"""Coefficient pairs (mu, nu), elliptic matrix fields, and the reduction
between the first-order equation and its divergence-form counterparts.

Each field has one of two representations.  An angular field stores one
KProfile k of weights (k1, k2) and nothing else: as a matrix field it is
R(theta) diag(k1, k2) R(theta)^T, and as a pair it is the pair whose
reduction matrix B that is, mu = -mu0(arg z) z/zbar, nu = -nu0(arg z) with
(mu0, nu0) = munu_values(k1, k2) of k read at arg z, so both interpolate k
linearly between its nodes.  Origin circles read k at their nodes, which
keeps them piecewise-exact.  A pointwise field keeps one vectorized
evaluator only (a pair z -> (mu, nu), a matrix z -> (a11, a12, a21, a22)),
which does the work its outputs share once per call, and samples it for its
kappa or eigenvalue bounds.  A pair restricts to circles as its matrix B
does, so every circle functional reads one restriction type,
MatrixOnCircles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    _DUPLICATE_TOL,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    arg_of,
    circle_points,
)
from .stretching import KProfile, k_from_munu, munu_values

__all__ = [
    "EllipticityError",
    "BeltramiPair",
    "CoefficientMatrixField",
    "MatrixOnCircles",
    "MatrixReduction",
    "beltrami_to_matrices",
    "normalize_matrix",
]

_ELL_TOL = 1e-10


class EllipticityError(ValueError):
    """|mu| + |nu| reaches 1 (or a matrix field loses positivity)."""


def _check_kappa(kappa: float) -> None:
    """Refuse kappa = sup |mu| + |nu| when it is not finite or comes within
    _ELL_TOL of 1."""
    if not np.isfinite(kappa):
        raise EllipticityError("non-finite coefficient samples")
    if kappa >= 1.0 - _ELL_TOL:
        raise EllipticityError(f"ellipticity violation: sup(|mu|+|nu|) = {kappa:.12g} >= 1")


def grid_key(circle: CircleSpec, angular: bool):
    """Circles of one key share a grid: the resolution and, for angular data,
    whether origin-centred (a grid on the source's own breakpoints)."""
    return circle.resolution, angular and circle.origin_centered


def _check_batch(circles, angular: bool) -> None:
    if angular and any(c.through_origin() for c in circles):
        raise ValueError("angular coefficients: circle must not pass through the origin")
    if len({grid_key(c, angular) for c in circles}) > 1:
        raise ValueError("the circles of one batch must share one grid")


@functools.lru_cache(maxsize=1)
def _circle_geometry(circles: tuple, arcs: tuple | None, angular: bool):
    """(grid, geometry) of circles that share one grid with the weight arcs
    as its breakpoints: everything a restriction needs that does not depend
    on the source.  For angular data the geometry is (arg z, cos and sin of
    each outward normal's angle to arg z), each (C, N) with row c on
    circles[c]; for pointwise data it is (z, cos and sin of the normals'
    angles), the last two (N,).

    Its arrays are read-only, since the cache hands them to every source.
    Keyed on (circles, arcs, angular), it holds the last batch only: a
    README or benchmark sweep restricts at most one such batch, which its
    repeats hit, so an older batch would only hold memory (origin circles
    of angular data never get here: their grid is the source's own, or
    holds its breakpoints).
    """
    _check_batch(circles, angular)
    grid = circles[0].grid(arcs)
    z, n = circle_points(circles, grid)
    if angular:
        theta = arg_of(z)
        rel = grid.nodes - theta
        geometry = (theta, np.cos(rel), np.sin(rel))
    else:
        geometry = (z, n.real, n.imag)
    for a in (*geometry, grid.nodes, grid.breakpoints, grid.segment_starts):
        a.flags.writeable = False
    return grid, geometry


# the 12 x 96 polar lattice in the unit disk where callable fields are sampled
# for their kappa, eigenvalue bounds and symmetry; built once, read-only
_LATTICE = (np.geomspace(0.02, 0.98, 12)[:, None]
            * np.exp(1j * (2 * np.pi * np.arange(96) / 96))[None, :]).ravel()
_LATTICE.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BeltramiPair:
    """Coefficients of d_bar f = mu df + nu conj(df) with one evaluator
    z -> (mu, nu) and recorded ellipticity.

    kappa is the sup of |mu| + |nu|, sampled for callables and exact
    otherwise; construction rejects kappa >= 1 - 1e-10 instead of clamping.
    An angular pair stores its weights k (see the module docstring).
    """

    munu_fn: Callable
    real_nu: bool
    kappa: float
    k: KProfile | None = None

    def __post_init__(self):
        _check_kappa(self.kappa)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_angular(cls, mu0: PeriodicField, nu0: PeriodicField) -> "BeltramiPair":
        """mu(z) = -mu0(arg z) z/zbar, nu(z) = -nu0(arg z) from real profiles
        on one grid layout, stored as their weights k_from_munu(mu0, nu0)."""
        _check_kappa(float(np.max(np.abs(mu0.values) + np.abs(nu0.values))))
        return cls.from_angular_k(k_from_munu(mu0, nu0))

    @classmethod
    def from_angular_k(cls, k: KProfile) -> "BeltramiPair":
        """The angular pair whose reduction matrix is R(theta) diag(k1, k2)
        R(theta)^T: its evaluator applies munu_values to k read at arg z.

        kappa is exact: |mu0| + |nu0| = (K - 1)/(K + 1) with K the largest of
        k1, k2, 1/k1 and 1/k2, and both k and 1/k peak at a node.
        """

        def munu_fn(z):
            theta = arg_of(z)
            mu0, nu0 = munu_values(*k.eval_wrapped(theta))
            return -mu0 * np.exp(2j * theta), -nu0 + 0j

        lo, hi = k.bounds()
        K = max(hi, 1.0 / lo)
        return cls(munu_fn, real_nu=True, kappa=(K - 1.0) / (K + 1.0), k=k)

    @classmethod
    def from_profiles(cls, breakpoints, mu0_pieces, nu0_pieces, node_count: int = 2048) -> "BeltramiPair":
        """Piecewise-constant angular pair from per-arc values; its breakpoints
        must be finite, strictly increasing from 0 and below 2 pi, each more
        than _DUPLICATE_TOL past the one before and short of 2 pi (closer
        ones would merge into one)."""
        bks = np.ravel(np.asarray(breakpoints, dtype=float)).tolist()
        tol = _DUPLICATE_TOL
        for i, b in enumerate(bks or [None]):  # Python comparisons: no warning on inf or NaN
            if not (b == 0.0 if i == 0 else b - bks[i - 1] > tol and TWO_PI - b > tol):
                raise ValueError("breakpoints must be finite, strictly increasing by more than "
                                 f"{tol:g}, start at 0 and lie more than {tol:g} below 2*pi: "
                                 f"entry {i} is {b!r}")
        g = AngularGrid.with_breakpoints(node_count, bks)
        return cls.from_angular(
            PeriodicField.piecewise(g, mu0_pieces), PeriodicField.piecewise(g, nu0_pieces)
        )

    @classmethod
    def from_callables(cls, munu_fn, real_nu: bool | None = None) -> "BeltramiPair":
        """Pair of one vectorized z -> (mu, nu), sampled for its kappa (and
        for real_nu unless given)."""
        mu_s, nu_s = (np.asarray(v, dtype=complex) for v in munu_fn(_LATTICE))
        if real_nu is None:
            real_nu = bool(np.max(np.abs(nu_s.imag)) < 1e-14)
        kappa = float(np.max(np.abs(mu_s) + np.abs(nu_s)))
        return cls(munu_fn, real_nu=real_nu, kappa=kappa)

    @classmethod
    def radial_stretch(cls, alpha: float, node_count: int = 2048) -> "BeltramiPair":
        """Coefficients of |z|^{alpha-1} z: mu0 = (1-alpha)/(1+alpha), nu = 0,
        whose weights are k = (1/alpha, alpha)."""
        if not (0 < alpha <= 1):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        return cls.from_angular_k(KProfile.constant(1.0 / alpha, alpha, node_count))

    # -- derived quantities -------------------------------------------------

    @property
    def is_angular(self) -> bool:
        return self.k is not None

    def munu(self, z):
        """(mu, nu) complex arrays at the points z."""
        mu, nu = self.munu_fn(np.asarray(z, dtype=complex))
        return np.asarray(mu, dtype=complex), np.asarray(nu, dtype=complex)

    def distortion_bound(self) -> float:
        """sup of (1 + |mu| + |nu|)/(1 - |mu| - |nu|) over the samples."""
        return (1.0 + self.kappa) / (1.0 - self.kappa)

    def on_circles(self, circles, extra_breakpoints=None) -> "MatrixOnCircles":
        """The reduction matrix B (beltrami_to_matrices) along circles that
        share one grid: every circle functional of the pair is one of B.
        See CoefficientMatrixField.on_circles for the cached geometry."""
        return _reduction_matrix(self).on_circles(circles, extra_breakpoints)

    # benchmark/tracer.py patches it (reduction.on_circle.*); goes with ROADMAP item 17
    def on_circle(self, circle: CircleSpec, extra_breakpoints=None) -> "MatrixOnCircles":
        """B along one circle: on_circles of a batch of one."""
        return self.on_circles((circle,), extra_breakpoints)


@dataclass(frozen=True, eq=False)
class CoefficientMatrixField:
    """2x2 elliptic coefficient field with one evaluator z -> (a11, a12, a21, a22).

    Two representations: angular, with k set, when the field has the
    rotational form R(theta) diag(k1, k2) R(theta)^T; pointwise otherwise.
    symmetric distinguishes the real-nu reduction; eig_bounds records the
    extremes of the symmetric part's eigenvalues: exact for angular fields,
    sampled for callables.
    """

    entries_fn: Callable
    symmetric: bool
    eig_bounds: tuple[float, float]
    k: KProfile | None = None

    def __post_init__(self):
        lo, hi = self.eig_bounds
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0.0:
            raise EllipticityError(f"matrix field not positive: eig bounds {self.eig_bounds}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_angular_k(cls, k: KProfile) -> "CoefficientMatrixField":
        """R(theta) diag(k1, k2) R(theta)^T as a planar field."""

        def entries_fn(z):
            theta = arg_of(z)
            k1, k2 = k.eval_wrapped(theta)
            c, s = np.cos(theta), np.sin(theta)
            off = (k1 - k2) * c * s
            return k1 * c * c + k2 * s * s, off, off, k1 * s * s + k2 * c * c

        return cls(entries_fn, symmetric=True, eig_bounds=k.bounds(), k=k)

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

    def on_circles(self, circles, extra_breakpoints=None) -> "MatrixOnCircles":
        """<n, A n> and det A along circles that share one grid, row c on
        circles[c], with outward normals n at the grid nodes.

        extra_breakpoints forces additional grid breakpoints (weight-arc
        boundaries, typically) so downstream arc reductions stay exact.  An
        angular field reads k at arg z, where <n, A n> = k1 cos^2 + k2 sin^2
        of the normal's angle to z and det A = k1 k2.  On origin circles that
        angle is 0 (<n, A n> = k1): with no extra breakpoints they read k.grid
        and k's node values as they are, whatever their resolution; with
        some, k resampled on a fresh grid at their resolution that holds k's
        breakpoints too.  Other circles take the grid, z or arg z and the
        normals' cosines and sines from _circle_geometry, built once per batch
        of circles and weight arcs and read-only, since the cache shares it; a
        pointwise field is evaluated in one call.
        """
        k, circles, kind = self.k, tuple(circles), SMOOTH
        arcs = None if extra_breakpoints is None else tuple(np.ravel(extra_breakpoints).tolist())
        if k is not None and circles[0].origin_centered:
            _check_batch(circles, True)
            grid, k1, k2 = k.grid, k.k1.values, k.k2.values
            if arcs is not None:
                grid = circles[0].grid(np.concatenate([k.grid.breakpoints, arcs]))
                k1, k2 = k.eval_wrapped(grid.nodes)
            nAn, det = (np.repeat(v[None], len(circles), axis=0) for v in (k1, k1 * k2))
            kind = PIECEWISE if k.is_piecewise else SMOOTH
        elif k is not None:
            grid, (theta, c, s) = _circle_geometry(circles, arcs, True)
            k1, k2 = k.eval_wrapped(theta)
            nAn, det = k1 * c * c + k2 * s * s, k1 * k2
        else:
            grid, (z, c, s) = _circle_geometry(circles, arcs, False)
            a11, a12, a21, a22 = (v.reshape(z.shape) for v in self.entries(z.ravel()))
            nAn = a11 * c * c + (a12 + a21) * c * s + a22 * s * s
            det = a11 * a22 - a12 * a21
        return MatrixOnCircles(circles, grid, PeriodicField(grid, nAn, kind),
                               PeriodicField(grid, det, kind))


@dataclass(frozen=True, eq=False)
class MatrixOnCircles:
    """<n, A n> and det A along circles of one grid; row c is on circles[c]."""

    circles: tuple
    grid: AngularGrid
    nAn: PeriodicField
    det: PeriodicField


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


def _reduction_matrix(pair: BeltramiPair, tilde: bool = False) -> CoefficientMatrixField:
    """B (tilde=False) or B-tilde of a pair; an angular pair's B is the
    rotational form of its k, and B-tilde = B/det B."""
    if pair.is_angular:
        B = CoefficientMatrixField.from_angular_k(pair.k)
        return normalize_matrix(B) if tilde else B

    def entries_fn(z):
        return _pair_matrix_entries(*pair.munu(z), tilde)

    return CoefficientMatrixField.from_callables(entries_fn)


def beltrami_to_matrices(pair: BeltramiPair) -> MatrixReduction:
    """Divergence-form reduction: Re(f) solves div(B grad u) = 0, Im(f) the
    B-tilde equation.  For real nu both are symmetric and B_tilde = B/det B.
    """
    return MatrixReduction(_reduction_matrix(pair), _reduction_matrix(pair, tilde=True))


def normalize_matrix(m: CoefficientMatrixField) -> CoefficientMatrixField:
    """A / det A.  The circle functional gives the same value for both fields
    (swap the weight pair (phi, psi) for (1/psi, 1/phi)), so either one can
    feed the exponent estimate.  Of the rotational form it is the form with
    (k1, k2) replaced by (1/k2, 1/k1).
    """
    if m.k is not None:
        return CoefficientMatrixField.from_angular_k(KProfile(
            *(PeriodicField(f.grid, 1.0 / f.values, f.kind) for f in (m.k.k2, m.k.k1))))

    def entries_fn(z):
        a11, a12, a21, a22 = m.entries(z)
        det = a11 * a22 - a12 * a21
        return a11 / det, a12 / det, a21 / det, a22 / det

    return CoefficientMatrixField.from_callables(entries_fn)
