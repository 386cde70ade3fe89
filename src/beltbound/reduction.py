"""Coefficient pairs (mu, nu), elliptic matrix fields, and the reduction
between the first-order equation and its divergence-form counterparts.

Each field has one of two representations.  Every pair carries vectorized
evaluators z -> mu(z), nu(z); when it was built from angular profiles
(mu = -mu0(arg z) z/zbar, nu = -nu0(arg z)) it also keeps the profiles,
which lets circle restrictions stay piecewise-exact.  Matrix fields keep the
rotational form R(theta) diag(k1,k2) R(theta)^T alongside one entries
evaluator z -> (a11, a12, a21, a22) for the same reason; the evaluator does
the work its four entries share once per call.  A field without profiles is
pointwise: constant fields are pointwise fields whose constructors know
their kappa or eigenvalue bounds exactly.  Each conversion between pairs and
matrices has one branch per representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .periodic_fields import (
    PIECEWISE,
    SMOOTH,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    circle_points,
    wrap_angle,
)
from .stretching import KProfile, k_from_munu, munu_from_k

__all__ = [
    "EllipticityError",
    "BeltramiPair",
    "PairOnCircles",
    "CoefficientMatrixField",
    "MatrixOnCircles",
    "MatrixReduction",
    "beltrami_to_matrices",
    "matrix_to_beltrami",
    "normalize_matrix",
]

_ELL_TOL = 1e-10


class EllipticityError(ValueError):
    """|mu| + |nu| reaches 1 (or a matrix field loses positivity)."""


def _batch_grid(circles, extra_breakpoints, angular_breakpoints):
    """The grid circles share and their points z (C, N): for origin circles of
    angular data, the coefficients' breakpoints too and no points (None)."""
    angular = angular_breakpoints is not None
    if angular and any(c.through_origin() for c in circles):
        raise ValueError("angular coefficients: circle must not pass through the origin")
    key = {(c.resolution, angular and c.origin_centered) for c in circles}
    if len(key) > 1:
        raise ValueError("the circles of one batch must share one grid")
    if angular and circles[0].origin_centered:
        extra = () if extra_breakpoints is None else (extra_breakpoints,)
        return circles[0].grid(np.concatenate([*angular_breakpoints, *extra])), None
    grid = circles[0].grid(extra_breakpoints)
    return grid, circle_points(circles, grid)[0]


# the 12 x 96 polar lattice in the unit disk where callable fields are sampled
# for their kappa, eigenvalue bounds and symmetry; built once, read-only
_LATTICE = (np.geomspace(0.02, 0.98, 12)[:, None]
            * np.exp(1j * (2 * np.pi * np.arange(96) / 96))[None, :]).ravel()
_LATTICE.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BeltramiPair:
    """Coefficients of d_bar f = mu df + nu conj(df) with recorded ellipticity.

    kappa is the (sampled) sup of |mu| + |nu|; construction rejects
    kappa >= 1 - 1e-10 instead of clamping.
    """

    mu_fn: Callable
    nu_fn: Callable
    real_nu: bool
    kappa: float
    mu0: PeriodicField | None = None
    nu0: PeriodicField | None = None

    def __post_init__(self):
        if not np.isfinite(self.kappa):
            raise EllipticityError("non-finite coefficient samples")
        if self.kappa >= 1.0 - _ELL_TOL:
            raise EllipticityError(
                f"ellipticity violation: sup(|mu|+|nu|) = {self.kappa:.12g} >= 1"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_constant(cls, mu: complex, nu: complex) -> "BeltramiPair":
        mu, nu = complex(mu), complex(nu)

        def mu_fn(z):
            return np.full(np.shape(z), mu)

        def nu_fn(z):
            return np.full(np.shape(z), nu)

        return cls(mu_fn, nu_fn, real_nu=(nu.imag == 0.0), kappa=abs(mu) + abs(nu))

    @classmethod
    def from_angular(cls, mu0: PeriodicField, nu0: PeriodicField) -> "BeltramiPair":
        """mu(z) = -mu0(arg z) z/zbar, nu(z) = -nu0(arg z); real profiles."""
        if not (mu0.is_real and nu0.is_real):
            raise TypeError("angular profiles must be real")
        if not mu0.grid.same_layout(nu0.grid):
            raise ValueError("mu0 and nu0 must share one grid layout")

        def mu_fn(z):
            z = np.asarray(z, dtype=complex)
            theta = wrap_angle(np.angle(z))
            return -mu0.eval_wrapped(theta) * np.exp(2j * theta)

        def nu_fn(z):
            theta = wrap_angle(np.angle(np.asarray(z, dtype=complex)))
            return -nu0.eval_wrapped(theta) + 0j

        kappa = float(np.max(np.abs(mu0.values) + np.abs(nu0.values)))
        return cls(mu_fn, nu_fn, real_nu=True, kappa=kappa, mu0=mu0, nu0=nu0)

    @classmethod
    def from_profiles(cls, breakpoints, mu0_pieces, nu0_pieces, node_count: int = 2048) -> "BeltramiPair":
        """Piecewise-constant angular pair from per-arc values."""
        g = AngularGrid.with_breakpoints(node_count, breakpoints)
        return cls.from_angular(
            PeriodicField.piecewise(g, mu0_pieces), PeriodicField.piecewise(g, nu0_pieces)
        )

    @classmethod
    def from_callables(cls, mu_fn, nu_fn, real_nu: bool | None = None) -> "BeltramiPair":
        mu_s = np.asarray(mu_fn(_LATTICE), dtype=complex)
        nu_s = np.asarray(nu_fn(_LATTICE), dtype=complex)
        if real_nu is None:
            real_nu = bool(np.max(np.abs(nu_s.imag)) < 1e-14)
        kappa = float(np.max(np.abs(mu_s) + np.abs(nu_s)))
        return cls(mu_fn, nu_fn, real_nu=real_nu, kappa=kappa)

    @classmethod
    def radial_stretch(cls, alpha: float, node_count: int = 2048) -> "BeltramiPair":
        """Coefficients of |z|^{alpha-1} z: mu0 = (1-alpha)/(1+alpha), nu = 0."""
        if not (0 < alpha <= 1):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        g = AngularGrid.uniform(node_count)
        mu0 = PeriodicField.constant(g, (1.0 - alpha) / (1.0 + alpha))
        return cls.from_angular(mu0, PeriodicField.constant(g, 0.0))

    # -- derived quantities -------------------------------------------------

    @property
    def is_angular(self) -> bool:
        return self.mu0 is not None

    def distortion_bound(self) -> float:
        """sup of (1 + |mu| + |nu|)/(1 - |mu| - |nu|) over the samples."""
        return (1.0 + self.kappa) / (1.0 - self.kappa)

    def on_circles(self, circles, extra_breakpoints=None) -> "PairOnCircles":
        """Coefficient samples along circles that share one grid.

        extra_breakpoints forces additional grid breakpoints (weight-arc
        boundaries, typically) so downstream arc reductions stay exact.
        Origin-centred circles of an angular pair also sit on the profiles'
        breakpoints (piecewise-exact); others read mu_fn, nu_fn in one call.
        """
        bks = (self.mu0.grid.breakpoints, self.nu0.grid.breakpoints) if self.is_angular else None
        grid, z = _batch_grid(circles, extra_breakpoints, bks)
        if z is None:
            t = grid.nodes
            nu, nbar2mu = -self.nu0.eval_wrapped(t) + 0j, -self.mu0.eval_wrapped(t) + 0j
            nu, nbar2mu = (np.repeat(v[None], len(circles), axis=0) for v in (nu, nbar2mu))
            kinds = (self.nu0.kind, self.mu0.kind)
        else:
            flat = z.ravel()  # the evaluators see one flat array, as for one circle
            mu = PeriodicField(grid, np.asarray(self.mu_fn(flat), dtype=complex).reshape(z.shape))
            nu = np.asarray(self.nu_fn(flat), dtype=complex).reshape(z.shape)
            nbar2mu = np.conj(np.exp(1j * grid.nodes)) ** 2 * mu.values
            kinds = (SMOOTH, SMOOTH)
        return PairOnCircles(tuple(circles), grid, PeriodicField(grid, nu, kinds[0]),
                             PeriodicField(grid, nbar2mu, kinds[1]), self.real_nu)

    def on_circle(self, circle: CircleSpec, extra_breakpoints=None) -> "PairOnCircles":
        """Coefficient samples along one circle: on_circles of a batch of one."""
        return self.on_circles((circle,), extra_breakpoints)


@dataclass(frozen=True, eq=False)
class PairOnCircles:
    """Samples of a pair along circles of one grid; row c is on circles[c]."""

    circles: tuple
    grid: AngularGrid
    nu: PeriodicField
    nbar2mu: PeriodicField  # conj(n)^2 mu, piecewise-exact for angular pairs
    real_nu: bool


@dataclass(frozen=True, eq=False)
class CoefficientMatrixField:
    """2x2 elliptic coefficient field with one evaluator z -> (a11, a12, a21, a22).

    Two representations: angular, with k1/k2 set, when the field has the
    rotational form R(theta) diag(k1, k2) R(theta)^T; pointwise otherwise
    (constant fields included).  symmetric distinguishes the real-nu
    reduction; eig_bounds records the extremes of the symmetric part's
    eigenvalues: exact for angular and constant fields, sampled for callables.
    """

    entries_fn: Callable
    symmetric: bool
    eig_bounds: tuple[float, float]
    k1: PeriodicField | None = None
    k2: PeriodicField | None = None

    def __post_init__(self):
        lo, hi = self.eig_bounds
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0.0:
            raise EllipticityError(f"matrix field not positive: eig bounds {self.eig_bounds}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, a11, a12, a21, a22) -> "CoefficientMatrixField":
        vals = tuple(float(v) for v in (a11, a12, a21, a22))

        def entries_fn(z):
            return tuple(np.full(np.shape(z), v) for v in vals)

        lo, hi = _sym_eigs(*[np.asarray(v) for v in vals])
        return cls(entries_fn, symmetric=(vals[1] == vals[2]), eig_bounds=(lo, hi))

    @classmethod
    def identity(cls) -> "CoefficientMatrixField":
        return cls.constant(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_angular_k(cls, k: KProfile) -> "CoefficientMatrixField":
        """R(theta) diag(k1, k2) R(theta)^T as a planar field."""

        def entries_fn(z):
            theta = wrap_angle(np.angle(np.asarray(z, dtype=complex)))
            k1 = k.k1.eval_wrapped(theta)
            k2 = k.k2.eval_wrapped(theta)
            c, s = np.cos(theta), np.sin(theta)
            off = (k1 - k2) * c * s
            return k1 * c * c + k2 * s * s, off, off, k1 * s * s + k2 * c * c

        lo, hi = k.bounds()
        return cls(entries_fn, symmetric=True, eig_bounds=(lo, hi), k1=k.k1, k2=k.k2)

    @classmethod
    def from_callables(cls, entries_fn) -> "CoefficientMatrixField":
        """Field of one vectorized z -> (a11, a12, a21, a22), sampled for its bounds."""
        e = [np.asarray(v, dtype=float) for v in entries_fn(_LATTICE)]
        lo, hi = _sym_eigs(*e)
        symmetric = bool(np.max(np.abs(e[1] - e[2])) < 1e-13)
        return cls(entries_fn, symmetric=symmetric, eig_bounds=(float(lo), float(hi)))

    # -- evaluation ---------------------------------------------------------

    def entries(self, z):
        """(a11, a12, a21, a22) float arrays at the points z."""
        z = np.asarray(z, dtype=complex)
        return tuple(np.asarray(v, dtype=float) for v in self.entries_fn(z))

    def det(self, z):
        a11, a12, a21, a22 = self.entries(z)
        return a11 * a22 - a12 * a21

    def on_circles(self, circles, extra_breakpoints=None) -> "MatrixOnCircles":
        """Normal-direction form and determinant along circles that share
        one grid; the layout is that of BeltramiPair.on_circles."""
        bks = None if self.k1 is None else (self.k1.grid.breakpoints, self.k2.grid.breakpoints)
        grid, z = _batch_grid(circles, extra_breakpoints, bks)
        if z is None:
            k1 = self.k1.eval_wrapped(grid.nodes)
            k2 = self.k2.eval_wrapped(grid.nodes)
            kind = self.k1.kind if self.k1.kind == self.k2.kind else SMOOTH
            nAn, det = (np.repeat(v[None], len(circles), axis=0) for v in (k1, k1 * k2))
        else:
            a11, a12, a21, a22 = (v.reshape(z.shape) for v in self.entries(z.ravel()))
            n = np.exp(1j * grid.nodes)
            c, s = n.real, n.imag
            nAn = a11 * c * c + (a12 + a21) * c * s + a22 * s * s
            det = a11 * a22 - a12 * a21
            kind = SMOOTH
        return MatrixOnCircles(tuple(circles), grid, PeriodicField(grid, nAn, kind),
                               PeriodicField(grid, det, kind), self.symmetric)

    def on_circle(self, circle: CircleSpec, extra_breakpoints=None) -> "MatrixOnCircles":
        """Samples along one circle: on_circles of a batch of one."""
        return self.on_circles((circle,), extra_breakpoints)


@dataclass(frozen=True, eq=False)
class MatrixOnCircles:
    """<n, A n> and det A along circles of one grid; row c is on circles[c]."""

    circles: tuple
    grid: AngularGrid
    nAn: PeriodicField
    det: PeriodicField
    symmetric: bool


def _sym_eigs(a11, a12, a21, a22):
    """Eigenvalue range of the symmetric part over samples."""
    mean = 0.5 * (a11 + a22)
    rad = np.sqrt(0.25 * (a11 - a22) ** 2 + 0.25 * (a12 + a21) ** 2)
    return float(np.min(mean - rad)), float(np.max(mean + rad))


@dataclass(frozen=True, eq=False)
class MatrixReduction:
    """Divergence-form matrices for Re(f) and Im(f) of a solution."""

    B: CoefficientMatrixField
    B_tilde: CoefficientMatrixField


def _pair_matrix_entries(mu, nu, tilde: bool):
    """Entry samples of B (tilde=False) or B-tilde (tilde=True)."""
    den = np.abs(1.0 + (nu if not tilde else -nu)) ** 2 - np.abs(mu) ** 2
    m11 = np.abs(1.0 - mu) ** 2 - np.abs(nu) ** 2
    m22 = np.abs(1.0 + mu) ** 2 - np.abs(nu) ** 2
    upper = -2.0 * np.imag(mu - nu) if not tilde else -2.0 * np.imag(mu + nu)
    lower = -2.0 * np.imag(mu + nu) if not tilde else -2.0 * np.imag(mu - nu)
    return m11 / den, upper / den, lower / den, m22 / den


def beltrami_to_matrices(pair: BeltramiPair) -> MatrixReduction:
    """Divergence-form reduction: Re(f) solves div(B grad u) = 0, Im(f) the
    B-tilde equation.  For real nu both are symmetric and B_tilde = B/det B.
    """
    if pair.is_angular:
        B = CoefficientMatrixField.from_angular_k(k_from_munu(pair.mu0, pair.nu0))
        return MatrixReduction(B, normalize_matrix(B))

    def build(tilde: bool) -> CoefficientMatrixField:
        def entries_fn(z):
            mu = np.asarray(pair.mu_fn(z), dtype=complex)
            nu = np.asarray(pair.nu_fn(z), dtype=complex)
            return _pair_matrix_entries(mu, nu, tilde)

        return CoefficientMatrixField.from_callables(entries_fn)

    return MatrixReduction(build(False), build(True))


def _munu_of_entries(b11, b12, b21, b22):
    """(mu, nu) of matrix entries: the formulas of matrix_to_beltrami."""
    det = b11 * b22 - b12 * b21
    den = 1.0 + (b11 + b22) + det
    return -(b11 - b22 + 1j * (b12 + b21)) / den, (1.0 - det + 1j * (b12 - b21)) / den


def matrix_to_beltrami(m: CoefficientMatrixField) -> BeltramiPair:
    """Recover (mu, nu) from a matrix field.

    mu = -(b11 - b22 + i(b12 + b21)) / (1 + tr + det),
    nu = (1 - det + i(b12 - b21)) / (1 + tr + det).
    """
    if m.k1 is not None:
        return BeltramiPair.from_angular(*munu_from_k(KProfile(m.k1, m.k2)))
    return BeltramiPair.from_callables(lambda z: _munu_of_entries(*m.entries(z))[0],
                                       lambda z: _munu_of_entries(*m.entries(z))[1],
                                       real_nu=m.symmetric)


def normalize_matrix(m: CoefficientMatrixField) -> CoefficientMatrixField:
    """A / det A.  The circle functional gives the same value for both fields
    (swap the weight pair (phi, psi) for (1/psi, 1/phi)), so either one can
    feed the exponent estimate.  Of the rotational form it is the form with
    (k1, k2) replaced by (1/k2, 1/k1).
    """
    if m.k1 is not None:
        return CoefficientMatrixField.from_angular_k(KProfile(
            PeriodicField(m.k2.grid, 1.0 / m.k2.values, m.k2.kind),
            PeriodicField(m.k1.grid, 1.0 / m.k1.values, m.k1.kind),
        ))

    def entries_fn(z):
        a11, a12, a21, a22 = m.entries(z)
        det = a11 * a22 - a12 * a21
        return a11 / det, a12 / det, a21 / det, a22 / det

    return CoefficientMatrixField.from_callables(entries_fn)
