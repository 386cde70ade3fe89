"""Angular stretchings f(z) = |z|^alpha (eta1 + i eta2)(arg z).

Covers pointwise evaluation, the first-order system eta1' = -alpha k2^{-1}
eta2, eta2' = alpha k1 eta1 coupling the profile to a positive weight pair
(k1, k2), shooting for exponents alpha whose solutions close up
2pi-periodically, the injectivity certificate, and the (k1,k2) <-> (mu0,nu0)
algebra.

All propagation runs on constant-rate cells, where the system has a
closed-form 2x2 propagator, and one recurrence gives the state at every cell
boundary; profile values, monodromy matrices and phase advances all come
from those states.  Piecewise-constant weights are cut at their breakpoints,
so every result is exact to roundoff; that is what the sharpness tests lean
on.  Smooth weights are cut into eight cells per node gap with k frozen at
the cell midpoint (second order in the cell width); monodromy and phase
advance then describe one discrete flow and agree with each other to
roundoff.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    AngularGrid,
    PeriodicField,
    arg_of,
    field_extrema,
    wrap_angle,
)

__all__ = [
    "KProfile",
    "AngularStretching",
    "RootSearchError",
    "k_from_munu",
    "munu_values",
    "eval_stretching",
    "solve_system",
    "eval_system_solution",
    "monodromy",
    "phase_advance",
    "find_periodic_alpha",
    "injectivity_check",
]

_CELLS_PER_GAP = 8  # constant-rate cells per node gap of a smooth weight pair
_ALPHA_MAX = 50.0  # the exponent search looks for roots below this


class RootSearchError(RuntimeError):
    """Periodic-exponent search exhausted its alpha window."""


@dataclass(frozen=True, eq=False)
class KProfile:
    """Positive weight pair (k1, k2) on a shared angular grid."""

    k1: PeriodicField
    k2: PeriodicField
    _bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.k1.grid.same_layout(self.k2.grid):
            raise ValueError("k1 and k2 must share one grid layout")
        extrema = []
        for name, f in (("k1", self.k1), ("k2", self.k2)):
            if not f.is_real:
                raise TypeError(f"{name} must be real")
            lo, hi = field_extrema(f)
            if lo <= 0.0:
                raise ValueError(f"{name} must be strictly positive, min={lo}")
            extrema.append((lo, hi))
        (lo1, hi1), (lo2, hi2) = extrema
        object.__setattr__(self, "_bounds", (min(lo1, lo2), max(hi1, hi2)))

    @classmethod
    def constant(cls, k1: float, k2: float, node_count: int = 2048) -> "KProfile":
        g = AngularGrid.uniform(node_count)
        return cls(PeriodicField.constant(g, k1), PeriodicField.constant(g, k2))

    @property
    def grid(self) -> AngularGrid:
        return self.k1.grid

    @property
    def is_piecewise(self) -> bool:
        return self.k1.kind == PIECEWISE and self.k2.kind == PIECEWISE

    def bounds(self) -> tuple[float, float]:
        """(min, max) over both weights, taken once by the positivity check."""
        return self._bounds

    def pieces(self):
        """(lefts, rights, k1 values, k2 values) per breakpoint segment."""
        lefts = self.grid.breakpoints
        rights = np.concatenate([lefts[1:], [TWO_PI]])
        return lefts, rights, self.k1.piece_values(), self.k2.piece_values()

    def eval_wrapped(self, t):
        """(k1, k2) at angles already wrapped by wrap_angle, each as its
        PeriodicField.eval_wrapped gives it: piecewise-constant k looks the
        angles' segments up once for both weights, smooth k interpolates
        each weight."""
        if self.is_piecewise:
            seg = self.grid.segment_of_wrapped(t)
            return self.k1.piece_values()[seg], self.k2.piece_values()[seg]
        return self.k1.eval_wrapped(t), self.k2.eval_wrapped(t)


def k_from_munu(mu0: PeriodicField, nu0: PeriodicField) -> KProfile:
    """Weights k1 = (1+mu0+nu0)/(1-mu0-nu0), k2 = (1-mu0+nu0)/(1+mu0-nu0)."""
    if not mu0.grid.same_layout(nu0.grid):
        raise ValueError("mu0 and nu0 must share one grid layout")
    m, n = mu0.values, nu0.values
    if np.iscomplexobj(m) or np.iscomplexobj(n):
        raise TypeError("profiles must be real")
    d1 = 1.0 - m - n
    d2 = 1.0 + m - n
    if np.min(d1) <= 1e-10 or np.min(d2) <= 1e-10:
        raise ValueError("ellipticity violation: |mu0|+|nu0| reaches 1")
    kind = PIECEWISE if (mu0.kind == PIECEWISE and nu0.kind == PIECEWISE) else SMOOTH
    k1 = PeriodicField(mu0.grid, (1.0 + m + n) / d1, kind)
    k2 = PeriodicField(mu0.grid, (1.0 - m + n) / d2, kind)
    return KProfile(k1, k2)


def munu_values(k1, k2):
    """(mu0, nu0) of weight values, elementwise: the inverse of k_from_munu."""
    den = 1.0 + k1 + k2 + k1 * k2
    return (k1 - k2) / den, (k1 * k2 - 1.0) / den


@dataclass(frozen=True, eq=False)
class AngularStretching:
    """Profile pair with exponent and per-node derivative samples."""

    alpha: float
    eta1: PeriodicField
    eta2: PeriodicField
    deta1: np.ndarray
    deta2: np.ndarray

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.eta1.grid.same_layout(self.eta2.grid):
            raise ValueError("eta1 and eta2 must share one grid layout")
        n = self.eta1.grid.node_count
        for name, d in (("deta1", self.deta1), ("deta2", self.deta2)):
            d = np.asarray(d, dtype=float)
            if d.shape != (n,):
                raise ValueError(f"{name} must have {n} samples")
            object.__setattr__(self, name, d)

    @classmethod
    def radial(cls, alpha: float, node_count: int = 2048) -> "AngularStretching":
        """|z|^{alpha-1} z: circular profile with exponent alpha."""
        g = AngularGrid.uniform(node_count)
        t = g.nodes
        return cls(
            alpha,
            PeriodicField(g, np.cos(t)),
            PeriodicField(g, np.sin(t)),
            -np.sin(t),
            np.cos(t),
        )

    @property
    def grid(self) -> AngularGrid:
        return self.eta1.grid


def eval_stretching(s: AngularStretching, z):
    """f(z) = |z|^alpha (eta1 + i eta2)(arg z); linear interp between nodes."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("stretching is evaluated on z != 0 (it extends by 0 at the origin)")
    t = arg_of(z)
    out = np.abs(z)**s.alpha * (s.eta1.eval_wrapped(t) + 1j * s.eta2.eval_wrapped(t))
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# propagation


def _piece_propagator(a, b, h):
    """exp(h [[0, -a], [b, 0]]) for a, b > 0: rotation-like; elementwise.
    Returns the rate w = sqrt(ab) and the entries (11 = 22, 12, 21)."""
    w = np.sqrt(a * b)
    c, s = np.cos(w * h), np.sin(w * h)
    return w, c, -(a / w) * s, (b / w) * s


def _cells(k: KProfile):
    """Constant-weight cells (lefts, widths, k1, k2) tiling [0, 2pi).

    The one place the two kinds of weight differ: piecewise-constant k is cut
    at its breakpoints, where it is exactly constant; smooth k is cut into
    _CELLS_PER_GAP cells per node gap and read (linear interpolation) at each
    cell midpoint, the exponential midpoint rule.  The cells do not depend on
    alpha, so the exponent search builds them once.
    """
    if k.is_piecewise:
        lefts, rights, k1, k2 = k.pieces()
    else:
        g = k.grid
        frac = np.arange(_CELLS_PER_GAP) / _CELLS_PER_GAP
        lefts = (g.nodes[:, None] + g.spacings()[:, None] * frac).ravel()
        rights = np.append(lefts[1:], g.nodes[0] + TWO_PI)
        k1, k2 = k.eval_wrapped(wrap_angle(0.5 * (lefts + rights)))
    return lefts, rights - lefts, k1, k2


def _piece_rates(cells, alpha: float):
    """(lefts, widths, alpha/k2, alpha k1) of the cells of _cells at alpha."""
    lefts, h, k1, k2 = cells
    return lefts, h, alpha / k2, alpha * k1


def _propagate(a, b, h):
    """Cell rates w = sqrt(ab) and the fundamental matrices at every cell
    boundary, shape (cells + 1, 2, 2): the identity, then P_j ... P_0 after
    cell j; the last one is Phi(2pi).

    Cell j maps its left state to its right one by its propagator P_j; the
    prefix products come by recursive doubling (log2(cells) rounds of
    batched 2x2 products) in place, behind the identity row.
    """
    w, c, p12, p21 = _piece_propagator(a, b, h)
    fund = np.empty((w.size + 1, 2, 2))
    fund[0] = ((1.0, 0.0), (0.0, 1.0))
    prefix = fund[1:]
    prefix[:, 0, 0] = prefix[:, 1, 1] = c
    prefix[:, 0, 1], prefix[:, 1, 0] = p12, p21
    step = 1
    while step < len(prefix):
        prefix[step:] = prefix[step:] @ prefix[:-step]
        step *= 2
    return w, fund


def solve_system(k: KProfile, alpha: float, initial=None) -> AngularStretching:
    """Integrate the coupled system over [0, 2pi] on k's grid.

    Node values come from eval_system_solution; derivative samples from the
    system right-hand side, not finite differences.  With no explicit
    initial data the solution starts at (1, 0) and is rescaled so
    max(|eta1|, |eta2|) = 1.
    """
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    normalize = initial is None
    v0 = np.array([1.0, 0.0]) if initial is None else np.asarray(initial, dtype=float)
    if v0.shape != (2,) or not np.any(v0):
        raise ValueError("initial data must be a nonzero pair")
    g = k.grid
    e1, e2, d1, d2 = eval_system_solution(k, alpha, v0, g.nodes)
    if normalize:
        scale = max(np.max(np.abs(e1)), np.max(np.abs(e2)))
        e1, e2, d1, d2 = e1 / scale, e2 / scale, d1 / scale, d2 / scale
    return AngularStretching(
        alpha, PeriodicField(g, e1, SMOOTH), PeriodicField(g, e2, SMOOTH), d1, d2
    )


def eval_system_solution(k: KProfile, alpha: float, initial, thetas):
    """Solution samples at arbitrary angles, propagated from the state at the
    start of the cell holding each angle (exact for piecewise-constant k).

    Returns (eta1, eta2, eta1', eta2') arrays; the derivatives are the system
    right-hand side with k read by KProfile.eval_wrapped, so at a breakpoint
    they take the right-limit weights, matching the segment convention.
    """
    lefts, h, av, bv = _piece_rates(_cells(k), alpha)
    anchors = _propagate(av, bv, h)[1][:-1] @ np.asarray(initial, dtype=float)
    t = wrap_angle(np.asarray(thetas, dtype=float))
    cell = np.clip(np.searchsorted(lefts, t + 1e-12, side="right") - 1, 0, lefts.size - 1)
    _, c, p12, p21 = _piece_propagator(av[cell], bv[cell], t - lefts[cell])
    e1 = c * anchors[cell, 0] + p12 * anchors[cell, 1]
    e2 = p21 * anchors[cell, 0] + c * anchors[cell, 1]
    k1, k2 = k.eval_wrapped(t)
    return e1, e2, -alpha / k2 * e2, alpha * k1 * e1


def _fundamental(cells, alpha: float):
    """Cell widths, rates (alpha/k2, alpha k1) and w = sqrt(ab) for the cells
    of _cells, and the fundamental matrices of _propagate."""
    _, h, av, bv = _piece_rates(cells, alpha)
    return (h, av, bv, *_propagate(av, bv, h))


def _advances(h, av, bv, w, fund, phis):
    """Phase advances from the start directions phis (1-d); see phase_advance.

    The arg corrections at the end and at the start of every cell are taken
    together, by one arctan2 pair over both stacked states."""
    states = fund @ np.array([np.cos(phis), np.sin(phis)])
    ends = np.array([states[1:], states[:-1]])  # (end, start) of each cell
    x, y = ends[:, :, 0], ends[:, :, 1]
    sa, sb = np.sqrt(av)[:, None], np.sqrt(bv)[:, None]
    # |arg v - arg(scaled v)| < pi/2: same quadrant, wrap is safe
    c = np.arctan2(y, x) - np.arctan2(sa * y, sb * x)
    c = (c + np.pi) % TWO_PI - np.pi
    return w @ h + (c[0] - c[1]).sum(axis=0)


def monodromy(k: KProfile, alpha: float) -> np.ndarray:
    """Fundamental matrix over one period, Phi(2pi); det = 1 up to roundoff."""
    return _fundamental(_cells(k), alpha)[4][-1]


# benchmark/tracer.py patches it, but the search calls _advance_extremum; goes with ROADMAP item 17
def phase_advance(k: KProfile, alpha: float, phi0):
    """Unwrapped advance of arg(eta1 + i eta2) over one period.

    Strictly increasing in alpha (the phase obeys phi' = alpha (k1 cos^2 phi
    + k2^{-1} sin^2 phi) > 0), which is what the exponent search bisects on.
    On a cell with rates (a, b) the scaled vector (sqrt(b) eta1, sqrt(a) eta2)
    turns at the constant rate w = sqrt(ab), so the advance is the sum of w h
    plus the change of arg v - arg(scaled v) across each cell, taken from the
    boundary states of the same propagation monodromy uses.
    """
    phi0 = np.asarray(phi0, dtype=float)
    total = _advances(*_fundamental(_cells(k), alpha), phi0.reshape(-1))
    return total.reshape(phi0.shape) if phi0.shape else float(total[0])


def _advance_extremum(cells, alpha: float) -> tuple[float, float]:
    """(max, min) over start directions of the one-period phase advance.

    The end direction depends on the start direction with derivative
    1/|Phi v|^2 (unimodular flow), so the advance is extremal exactly where
    |Phi v| = 1: on the intersection of the unit circle with the ellipse
    v' Phi'Phi v = 1.  That gives the two candidate directions in closed
    form; no line search.  One propagation serves both Phi and the advances.
    """
    h, av, bv, w, fund = _fundamental(cells, alpha)
    mono = fund[-1]
    evals, evecs = np.linalg.eigh(mono.T @ mono)
    lam0, lam1 = float(evals[0]), float(evals[1])
    if lam1 - 1.0 < 1e-13 or 1.0 - lam0 < 1e-13:
        # |Phi v| = 1 identically (rotation): advance independent of phi0
        phis = np.zeros(1)
    else:
        # unit vector c*e0 + s*e1 with lam0 c^2 + lam1 s^2 = 1
        s2 = (1.0 - lam0) / (lam1 - lam0)
        c = math.sqrt(1.0 - s2)
        s = math.sqrt(s2)
        e0, e1 = c * evecs[:, 0], s * evecs[:, 1]
        dirs = np.array([e0 + e1, e0 - e1])
        phis = np.arctan2(dirs[:, 1], dirs[:, 0])
    vals = _advances(h, av, bv, w, fund, phis)
    return float(vals.max()), float(vals.min())


def _brent(f, a, b, fa, fb, xtol, rtol):
    """Root of f in [a, b] from fa = f(a), fb = f(b) of opposite signs: Brent's
    zeroin (1973, ch. 4) step for step as scipy.optimize.brentq runs it (same
    tests, tolerance, 100-step cap), so the same float; NaN raises ValueError."""
    if math.isnan(fa) or math.isnan(fb):
        raise ValueError(f"function value is NaN at an end of [{a:.6g}, {b:.6g}]")
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # inf or nan in C: no short step
                stry = math.inf
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"function value is NaN at x={xcur:.6g}")
    raise RootSearchError(f"root search did not converge in 100 steps; last x={xcur!r}")


def _edge_roots(k: KProfile, cells, winding: int):
    """alphas where the max and the min phase advance equal 2 pi winding, each
    solved when read: the left edge, then the right one unless they coincide
    (degenerate); cells are _cells(k).  The edges share each propagation."""
    target = TWO_PI * winding
    h = k.grid.spacings()
    vmin = float(np.sum(h * np.minimum(k.k1.values, 1.0 / k.k2.values)))
    vmax = float(np.sum(h * np.maximum(k.k1.values, 1.0 / k.k2.values)))
    lo = 0.9 * target / vmax
    hi = min(1.1 * target / vmin, _ALPHA_MAX)
    if lo > _ALPHA_MAX:
        raise RootSearchError(
            f"winding-{winding} root lies above alpha_max={_ALPHA_MAX:g} "
            f"(needs alpha >= {target / vmax:g})"
        )

    @functools.cache
    def g(al):  # (max, min) advance minus target
        return tuple(v - target for v in _advance_extremum(cells, al))

    for edge in (0, 1):
        a = lo
        while g(a)[edge] > 0.0:
            a *= 0.5
        if g(hi)[edge] < 0.0:
            raise RootSearchError(
                f"winding-{winding} root not bracketed in ({a:g}, {hi:g}]: "
                f"advance extremum reaches {g(hi)[edge] + target:g} < {target:g}"
            )
        root = _brent(lambda al: g(al)[edge], a, hi, g(a)[edge], g(hi)[edge],
                      xtol=1e-15, rtol=4.0 * float(np.finfo(float).eps))
        if edge == 0 or root - left > 1e-10 * max(1.0, root):
            yield root
        left = root


def find_periodic_alpha(k: KProfile, branch: int = 1) -> float:
    """n-th alpha (increasing) with Floquet multiplier 1, i.e. tr Phi = 2.

    Roots are located through the phase advance of the solution direction,
    which crosses 2 pi n transversally in alpha even where tr Phi - 2 only
    touches zero; that keeps degenerate (constant-weight) roots at full
    precision.  Each winding number contributes the two edges of its
    instability interval, one where they coincide (degenerate, e.g. constant
    weights); the edges are solved in order through entry n only (branch 1:
    one edge), so no later edge can raise RootSearchError.
    """
    if branch < 1:
        raise ValueError(f"branch must be >= 1, got {branch}")
    cells = _cells(k)
    alphas = (a for w in itertools.count(1) for a in _edge_roots(k, cells, w))
    return float(next(itertools.islice(alphas, branch - 1, None)))


def injectivity_check(s: AngularStretching):
    """Certificate for injectivity of the stretching.

    Conditions: profile vector never vanishes, jacobian factor of constant
    sign, and minimal period 2pi (winding +-1 once the phase is monotone).
    Returns (bool, certificate dict naming any failing condition).
    """
    e1, e2 = s.eta1.values, s.eta2.values
    mod = e1**2 + e2**2
    cert: dict = {}
    ok = True
    if np.min(mod) <= 1e-14 * np.max(mod):
        ok = False
        cert["vanishing_node"] = int(np.argmin(mod))
    jac = s.alpha * (e1 * s.deta2 - s.deta1 * e2)
    pos, neg = np.any(jac > 0), np.any(jac < 0)
    if pos and neg or not (pos or neg):
        ok = False
        cert["jacobian_sign_change_node"] = int(np.argmin(np.abs(jac)))
    phases = np.unwrap(np.arctan2(e2, e1))
    closing = np.arctan2(e2[0], e1[0]) - np.arctan2(e2[-1], e1[-1])
    closing = (closing + np.pi) % TWO_PI - np.pi
    winding = (phases[-1] - phases[0] + closing) / TWO_PI
    cert["winding"] = float(winding)
    if abs(abs(winding) - 1.0) > 1e-6:
        ok = False
        cert["minimal_period"] = TWO_PI / max(abs(winding), 1e-12)
    return ok, cert
