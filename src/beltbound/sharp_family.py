"""Two-parameter family of piecewise-trigonometric angular stretchings on
which the exponent bounds are attained.

For M > 1 and tau in [0, 1] the circle splits into four arcs with junctions
{0, c pi/2, pi, pi + c pi/2}.  The weight pair (k1, k2) is (1, 1) on the
first and third arcs and (M, M^{1-2tau}) on the others.  The constants

    c = 2/(1 + M^{-tau}),    d = (4/pi) arctan M^{-(1-tau)/2}

are chosen so that a pure rotation profile on the unit arcs glues
continuously to a faster, amplitude-scaled rotation on the weighted arcs
(the junction condition is tan(d pi/4) = M^{-(1-tau)/2}), producing a
2pi-periodic profile pair with exponent d/c.  Profiles, derivatives, and
coefficients all come from closed forms, so junction and residual tests see
no interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .periodic_fields import (
    SMOOTH,
    AngularGrid,
    PeriodicField,
    arg_of,
    merge_breakpoints,
    wrap_angle,
)
from .reduction import _ELL_TOL, BeltramiPair
from .stretching import AngularStretching, KProfile

__all__ = [
    "SharpFamily",
    "cd_params",
    "build_family",
    "build_maps",
]


def cd_params(M: float, tau: float) -> tuple[float, float]:
    """Arc-length and exponent constants of the family.

    c fixes the junction angles, d the rotation rate; d/c is the Holder
    exponent the family attains.
    """
    if not M > 1:
        raise ValueError(f"M must exceed 1, got {M}")
    if not 0 <= tau <= 1:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    c = 2.0 / (1.0 + M**-tau)
    d = (4.0 / math.pi) * math.atan(M ** (-(1.0 - tau) / 2.0))
    return c, d


@dataclass(frozen=True, eq=False)
class SharpFamily:
    """Everything derived from (M, tau): arcs, the stretching (profiles and
    their derivatives at the grid nodes), weights, coefficients."""

    M: float
    tau: float
    c: float
    d: float
    breakpoints: tuple[float, float, float, float]
    stretch: AngularStretching
    k: KProfile
    mu0: PeriodicField
    nu0: PeriodicField

    @property
    def alpha(self) -> float:
        return self.d / self.c

    @property
    def grid(self) -> AngularGrid:
        return self.stretch.grid

    def pair(self) -> BeltramiPair:
        return BeltramiPair.from_angular_k(self.k)

    def map_at(self, z):
        """Exact planar map |z|^alpha (theta1 + i theta2)(arg z), 0 at 0: the
        values of _phase without derivatives, its half-turn sign folded into
        |z|^alpha."""
        z = np.asarray(z, dtype=complex)
        sign, th1, th2, _ = _phase(self.M, self.tau, self.c, self.d, arg_of(z))
        out = sign * np.abs(z) ** self.alpha * (th1 + 1j * th2)
        return np.where(z == 0, 0.0, out)


def _phase(M: float, tau: float, c: float, d: float, t):
    """The closed form at angles t wrapped by wrap_angle: the half-turn sign,
    theta1 and theta2 without it, and the parts their derivatives reuse.

    The second and fourth arcs repeat the first and second with a half-turn
    shift and a sign flip.
    """
    half = t >= math.pi
    base = np.where(half, t - math.pi, t)
    amp = M ** ((1.0 - tau) / 2.0)  # amplitude split between the components
    rate1 = d / c
    rate2 = d * M**tau / c
    cut = c * math.pi / 2.0

    # classify against the same rounded junction values the grid carries, so
    # breakpoint nodes land on their own arc (right-limit convention)
    on1 = t < np.where(half, math.pi + cut, cut)
    # each point keeps one arc's argument, so one sin/cos pair serves both
    arg = np.where(on1, rate1 * base, rate2 * (base - cut)) - d * math.pi / 4.0
    sn, cs = np.sin(arg), np.cos(arg)
    th1 = np.where(on1, sn, cs / amp)
    th2 = np.where(on1, -cs, amp * sn)
    return np.where(half, -1.0, 1.0), th1, th2, (on1, sn, cs, amp, rate1, rate2)


def _profile_samples(M: float, tau: float, c: float, d: float, theta):
    """Closed-form (theta1, theta2, theta1', theta2') at the given angles,
    all four built on the phase that _phase shares with map_at."""
    t = wrap_angle(np.asarray(theta, dtype=float))
    sign, th1, th2, (on1, sn, cs, amp, rate1, rate2) = _phase(M, tau, c, d, t)
    dth1 = np.where(on1, rate1 * cs, -rate2 * sn / amp)
    dth2 = np.where(on1, rate1 * sn, rate2 * amp * cs)
    return sign * th1, sign * th2, sign * dth1, sign * dth2


def build_family(M: float, tau: float, node_count: int = 2048) -> SharpFamily:
    """Assemble the family at (M, tau) on a breakpoint-aligned grid.

    Large M leaves floating point behind, and each way raises a ValueError
    naming M and tau: the powers of M overflow, the weighted arcs (width
    pi M^-tau/(1 + M^-tau)) fall below the breakpoint merge tolerance, or
    |mu| + |nu| on them, 1 - 2(1 + M^{1-2tau})/(1 + M + M^{1-2tau} +
    M^{2-2tau}), comes within the ellipticity tolerance of 1.  In practice
    that bounds M below about 2e10 for every tau.
    """
    c, d = cd_params(M, tau)
    cut = c * math.pi / 2.0
    bks = (0.0, cut, math.pi, math.pi + cut)
    try:
        m_lo, m_sq = M ** (1.0 - 2.0 * tau), M ** (2.0 * (1.0 - tau))
    except OverflowError as exc:
        raise ValueError(f"sharp family at M={M:g}, tau={tau:g}: {exc} (M too large)") from exc
    den = 1.0 + M + m_lo + m_sq
    mu_hi = (M - m_lo) / den
    nu_hi = (m_sq - 1.0) / den
    if merge_breakpoints(bks).size < len(bks):
        raise ValueError(
            f"sharp family at M={M:g}, tau={tau:g}: the weighted arcs are "
            f"{math.pi - cut:.3g} wide, below the breakpoint merge tolerance (M too large)"
        )
    if mu_hi + nu_hi >= 1.0 - _ELL_TOL:
        raise ValueError(
            f"sharp family at M={M:g}, tau={tau:g}: |mu|+|nu| = {mu_hi + nu_hi:.17g} "
            f"is within the ellipticity tolerance of 1 (M too large)"
        )
    grid = AngularGrid.with_breakpoints(node_count, bks)

    th1, th2, dth1, dth2 = _profile_samples(M, tau, c, d, grid.nodes)

    k = KProfile(
        PeriodicField.piecewise(grid, [1.0, M, 1.0, M]),
        PeriodicField.piecewise(grid, [1.0, m_lo, 1.0, m_lo]),
    )
    return SharpFamily(
        M=M,
        tau=tau,
        c=c,
        d=d,
        breakpoints=bks,
        stretch=AngularStretching(
            d / c, PeriodicField(grid, th1, SMOOTH), PeriodicField(grid, th2, SMOOTH), dth1, dth2
        ),
        k=k,
        mu0=PeriodicField.piecewise(grid, [0.0, mu_hi, 0.0, mu_hi]),
        nu0=PeriodicField.piecewise(grid, [0.0, nu_hi, 0.0, nu_hi]),
    )


def build_maps(family: SharpFamily) -> tuple[AngularStretching, Callable]:
    """The extremal mapping and the scalar solution u = Re f of
    div(B grad u) = 0, u exact at every point (map_at)."""

    def u(z):
        return np.real(family.map_at(z))

    return family.stretch, u
