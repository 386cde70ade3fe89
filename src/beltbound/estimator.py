"""Holder-exponent lower bounds from circle averages.

Every bound here has the same shape: on each circle, a positive integrand
I = <n, A n>/sqrt(det A) and a determinant-ratio field D = det A are formed
from a symmetric matrix field A (_matrix_fields, the one place they are
written); a weight pair (phi, psi) scales them into

    value(phi, psi) = sqrt(sup phi / inf psi) * mean(sqrt(psi/phi) * I)
                      / ((4/pi) * arctan( (inf D/(phi psi)) / (sup D/(phi psi)) )^{1/4}),

and the exponent bound is the reciprocal of the sup over circles of the inf
over weights.  beta, for a pair with real nu, is gamma of the pair's
reduction matrix B, which its on_circles restricts.  Each circle scores
three weight families once: the unit pair (its values alone give the
corollary bound), a closed-form pair that collapses the arctan term to 1
(the certified value), and the per-arc pair that minimises the value.
That minimum is exact: the best weights clip D/(phi psi) into a window
[m, M], on which the value has closed form.  For a fixed window ratio the
two ends decouple in one multiplier, so the best windows of all ratios form
a monotone staircase (Topkis 1978) of O(arcs) pieces; one sort and one
batched Newton solve minimise the value on each piece (see _solve_weights),
and the value of the returned weights is recomputed exactly.  Any window
gives a valid bound; the best one gives the least.

The sup runs over the sweep's circles only, so a bound speaks for the
exponent those circles see.  SweepConfig.origin takes origin-centred
circles; on angular data their value does not depend on the radius, and
the bound is one on the exponent at the origin.  SweepConfig.disk_lattice
(41 circles by default: the origin circle and 40 off-centre ones in the
unit disk) bounds the worst exponent over the disk as far as its lattice
resolves it.  The two differ: over 40 random piecewise pairs (2-6 arcs, 512
nodes), the worst lattice circle's value exceeds the origin circle's by a
median of 6.8 % and by up to 40 %.  The source paper is arXiv math/0612438;
the theorem that fixes its circles is not cited until its text is at hand.

Weights are constant on arcs.  Smooth restrictions take
SweepConfig.weight_pieces uniform arcs (merged with the coefficient
breakpoints on origin circles of angular data); origin circles of
piecewise-constant data keep the coefficient arcs, on which the best
weights are already constant.  One reduction, _arc_reduce, turns I and D
into per-arc integrals and extrema over node gaps for
piecewise-constant and smooth data alike; the kinds differ only in a gap's
right-end value (periodic_fields.gap_right_values).  The reduction is exact
for piecewise-constant data and trapezoid-accurate for smooth data.
_arc_value scores per-arc weights on it and is the one formula of the value.

A sweep restricts, reduces and solves the circles of one grid
(reduction.grid_key) together, at most _PASS_POINTS sample points a pass,
each circle's row as it would be alone.  Every pass goes through
one cache of the last two (_reduced_pass), keyed on the source's identity,
the circles and weight_pieces, so the bounds of one (source, sweep) of at
most two passes share one reduction, and no sweep leaves more behind.
Sources are therefore treated as immutable: editing a pair's or a field's
arrays in place after an estimate can return stale results.  A pass flags
read-only the arrays it builds, never the source's own.  The mu = 0 and
nu = 0 bounds are corollary_bound after a check of I = 1 or D = 1 on the
same batches: the unit-pair value is their one formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .periodic_fields import (
    TWO_PI,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    field_extrema,
    gap_integrals,
    gap_right_values,
)
from .reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    EllipticityError,
    MatrixOnCircles,
    grid_key,
)

__all__ = [
    "WeightPair",
    "SweepConfig",
    "ExponentReport",
    "classical_bound",
    "beta_estimate",
    "gamma_estimate",
    "corollary_bound",
    "nu_zero_bound",
    "mu_zero_bound",
]

# the weight families every circle scores; the others must beat the unit
# pair by _TIE, and on a tie the first one wins
_FAMILIES = ("constant", "remark", "piecewise")


@dataclass(frozen=True, eq=False)
class WeightPair:
    """Positive weight functions on a circle."""

    phi: PeriodicField
    psi: PeriodicField

    def __post_init__(self):
        for name, f in (("phi", self.phi), ("psi", self.psi)):
            if not f.is_real:
                raise TypeError(f"{name} must be real-valued")
            lo, _ = field_extrema(f)
            if lo <= 0:
                raise ValueError(f"{name} must be strictly positive, min = {lo:.3g}")

    @classmethod
    def constant(cls, grid: AngularGrid) -> "WeightPair":
        """The unit pair phi = psi = 1."""
        return cls(PeriodicField.constant(grid, 1.0), PeriodicField.constant(grid, 1.0))


@dataclass(frozen=True)
class SweepConfig:
    """The circles of a sweep and the arcs its weights are constant on.

    Every circle scores the same weight families (families()).  Smooth
    restrictions (off-centre circles, smooth angular data and pointwise
    data) take weight_pieces uniform arcs.  Origin circles of
    piecewise-constant angular data keep the coefficient arcs, on which the
    best weights are already constant, so weight_pieces changes nothing
    there.  Each circle is sampled at its own CircleSpec.resolution.
    """

    circles: tuple[CircleSpec, ...]
    weight_pieces: int = 16

    def __post_init__(self):
        if not self.circles:
            raise ValueError("at least one circle is required")
        if self.weight_pieces < 1:
            raise ValueError(f"weight_pieces must be >= 1, got {self.weight_pieces}")

    @classmethod
    def origin(cls, radius: float = 0.5, resolution: int = 2048, **kw) -> "SweepConfig":
        """Single origin-centered circle.  On angular data its value does not
        depend on the radius, and the bound is one on the exponent at the
        origin, not on the worst one over the disk (see disk_lattice)."""
        return cls(circles=(CircleSpec(0.0, radius, resolution=resolution),), **kw)

    @classmethod
    @functools.lru_cache(maxsize=8)
    def disk_lattice(
        cls,
        radius_count: int = 5,
        angle_count: int = 8,
        margin: float = 0.05,
        resolution: int = 1024,
        **kw,
    ) -> "SweepConfig":
        """Origin circle plus circles centered on a polar lattice in the unit
        disk, each with the largest radius keeping the stated margin.

        Memoized: equal arguments return the same frozen config, whose
        circles key the restriction's geometry cache."""
        circles = [CircleSpec(0.0, 1.0 - margin, resolution=resolution)]
        rs = np.linspace(0.15, 0.75, radius_count)
        ts = TWO_PI * np.arange(angle_count) / angle_count
        for r in rs:
            for t in ts:
                center = r * np.exp(1j * t)
                circles.append(
                    CircleSpec(center, (1.0 - margin) * (1.0 - r), resolution=resolution)
                )
        return cls(circles=tuple(circles), **kw)

    def families(self) -> tuple[str, ...]:
        return _FAMILIES


@dataclass(frozen=True, eq=False)
class ExponentReport:
    """Result of a sweep: the bound, where it was attained, and diagnostics."""

    bound: float
    sup_value: float
    attaining_circle: CircleSpec
    attaining_weights: WeightPair
    per_circle: tuple
    certified_value: float  # closed-form-weights chain; never above sup of distortion
    config: SweepConfig

    @property
    def corollary(self) -> float:
        """The unit-weights bound from this sweep's constant-pair values;
        equal to corollary_bound on the same pair and config."""
        return _bound_of(max(r["constant_value"] for r in self.per_circle))


# ---------------------------------------------------------------------------
# per-batch machinery: the circles of one grid


@dataclass(frozen=True, eq=False)
class _CircleBatch:
    """Integrand/det-ratio fields on circles of one grid, and their arc reduction."""

    circles: tuple
    integrand: PeriodicField
    det_ratio: PeriodicField
    arc_integrals: np.ndarray  # per-arc integral of I
    arc_dmin: np.ndarray
    arc_dmax: np.ndarray

    @functools.cached_property
    def unit_value(self) -> np.ndarray:
        """_unit_value, scored once per batch and read-only, so the bounds
        that share a cached batch share its values."""
        unit = _unit_value(self)
        unit.flags.writeable = False
        return unit


def _arc_reduce(circles, I: PeriodicField, D: PeriodicField) -> _CircleBatch:
    """Per-arc trapezoid integral of I and extrema of D over the node gaps,
    split at the grid's breakpoints."""
    starts = I.grid.segment_starts
    dv, dr = D.values, gap_right_values(D)
    T = np.add.reduceat(gap_integrals(I), starts, axis=-1)
    dmin = np.minimum.reduceat(np.minimum(dv, dr), starts, axis=-1)
    dmax = np.maximum.reduceat(np.maximum(dv, dr), starts, axis=-1)
    return _CircleBatch(tuple(circles), I, D, T, dmin, dmax)


def _arctan_term(ratio) -> np.ndarray:
    # ratio is a min over a max, so <= 1; it is taken as is, with no floor, so
    # a tiny ratio gives the large true value (for the unit pair and every
    # clip window it is at least ((1 - kappa)/(1 + kappa))^4 > 0).  libm
    # (float pow, math.atan) rounds alike whatever numpy's SIMD dispatch.
    return np.array([(4.0 / math.pi) * math.atan(r**0.25) for r in ratio.tolist()])


def _arc_value(data: _CircleBatch, phi, psi) -> np.ndarray:
    """Objective of per-arc constant weights (a row per circle); exact given the arcs."""
    num = np.sqrt(phi.max(axis=-1) / psi.min(axis=-1)) * (
        np.sqrt(psi / phi) * data.arc_integrals).sum(axis=-1) / TWO_PI
    prod = phi * psi
    ratio = (data.arc_dmin / prod).min(axis=-1) / (data.arc_dmax / prod).max(axis=-1)
    return num / _arctan_term(ratio)


def _unit_value(data: _CircleBatch) -> np.ndarray:
    ones = np.ones(data.arc_integrals.shape[-1])
    return _arc_value(data, ones, ones)


def _remark_weights(I: PeriodicField, D: PeriodicField):
    """Closed-form per-node pair phi = I sqrt(D), psi = sqrt(D)/I.

    Pointwise sqrt(psi/phi) I = 1 and phi psi = D, so the objective collapses
    to sqrt(sup phi / inf psi); no quadrature error enters.
    """
    iv = I.values.real
    sq = np.sqrt(D.values)
    return iv * sq, sq / iv


_NEWTON_STEPS = 3
# a window or the remark pair must beat the unit pair by _TIE: where they
# coincide with it (at a window's corner, or I and D constant on a circle)
# their values tie to ulps
_TIE = 1e-14
_ON = 1e-12  # a window this close (relative) to a line or to w0 sits on it
_STATUS = np.array(["interior", "edge", "vertex"])  # by the lines a window sits on


def _solve_weights(data: _CircleBatch, unit):
    """Exact minimum of the per-arc weight problem, through its clip window,
    on every circle of data at once (unit: the unit pair's values).

    The value does not change when phi and psi are scaled apart, so take
    max phi = 1 = min psi.  Clipping D/(phi psi) into a window [m, M] with
    p = clip(1, dmax/M, dmin/m), phi = min(1, p), psi = max(1, p) is best, at

        F = (T + A(X) + B(Y)) / (8 arctan w),  w = sqrt(XY) <= w0,

    in X = M^{-1/2}, Y = m^{1/2}, w0 = min(dmin/dmax)^{1/4}, with the hinge
    sums A(X) = sum T_j max(0, X/L_j - 1) over the lines L_j = dmax_j^{-1/2}
    and B(Y) likewise over the lines L_j = dmin_j^{1/2}; F only falls from
    M > max dmax or m < min dmin towards them.  At fixed w the best window
    minimises A + B along XY = w^2, which is convex in log X, so it is where
    X A'(X) and Y B'(Y) share a multiplier lam.  The two sides decouple in
    lam: each of X(lam), Y(lam) is nondecreasing, so the optimum over all w
    lies on one monotone staircase (Topkis 1978).  Over the sorted lines of
    a side, with running sums S1 of T/L and S0 of T (past line k the hinge
    sum is S1_k X - S0_k), the side reaches line k at lam = L_k S1_{k-1} and
    leaves it at L_k S1_k.  One stable sort of a circle's 4n events cuts
    the staircase into 4n - 1 pieces, the same count for every circle, so a
    row never depends on its batch.  Where both sides are free, F is least
    at h(w) = (1 + w^2) arctan w - w = N0/(2 sqrt(S1_X S1_Y)), N0 the
    piece's constant part; with X on its line, at e(w) = 2w(1 + w^2) arctan
    w - w^2 = (N - S1_Y Y) X/S1_Y (Y likewise); with both on lines the piece
    is a point.  Clipped to the piece's w range and to w <= w0, one batched
    Newton solve gives each piece's best window, scored with the piece's
    own sums; ties go to the first piece.  Per circle, returns the exact
    _arc_value of the best window's weights (or unit, unless beaten by more
    than _TIE), the weights, the number of pieces scored, where the window
    lies ("interior", "edge" or "vertex" by the lines it sits on to _ON,
    "boundary" at w0, or "constant") and the relative gap between F and the
    returned value.
    """
    T, dmin, dmax = data.arc_integrals, data.arc_dmin, data.arc_dmax
    C, n = T.shape
    w0 = np.array([r**0.25 for r in (dmin / dmax).min(axis=-1).tolist()])  # libm pow
    # lines of side 0 (X) and side 1 (Y), each sorted, and their running sums
    side, rows = np.arange(2)[:, None, None], np.arange(C)[:, None]
    L = np.sqrt(np.array([1.0 / dmax, dmin]))
    order = L.argsort(axis=-1, kind="stable")
    L, t = L[side, rows, order], T[rows, order]
    S1, S0 = np.cumsum([t / L, t], axis=-1)
    # a side reaches line k at lam = L_k S1_{k-1} and leaves it at L_k S1_k:
    # its 2n events are in order under rounding, so a stable merge keeps it
    S1_ = np.concatenate([np.zeros((2, C, 1)), S1], axis=-1)
    events = np.concatenate(L.repeat(2, axis=-1) * S1_.repeat(2, axis=-1)[..., 1:-1], axis=-1)
    by_lam = events.argsort(axis=-1, kind="stable")
    lam = events[rows, by_lam]
    # a piece's events passed per side: an odd count is on line k, an even
    # one is past it (a side not yet at its first line is taken on it)
    passed = np.cumsum(by_lam < 2 * n, axis=-1)[:, :-1]
    count = np.maximum(np.array([passed, np.arange(1, 4 * n) - passed]), 1)
    k, on = (count - 1) // 2, count % 2 == 1
    Lk, s1, s0 = np.array([L, S1, S0])[:, side, rows, k]
    # the piece's window at its two ends, and its w range
    pos = np.where(on[:, None], Lk[:, None], np.array([lam[:, :-1], lam[:, 1:]]) / s1[:, None])
    lo, hi = np.sqrt(pos[0] * pos[1])
    top = np.minimum(hi, w0[:, None])
    base = T.sum(axis=-1)[:, None] - s0[0] - s0[1]
    fixed = np.where(on, s1 * Lk, 0.0)
    edge = on[0] != on[1]
    target = (base + fixed[0] + fixed[1]) * np.where(
        edge, np.where(on[0], Lk[0] / s1[1], Lk[1] / s1[0]), 0.5 / np.sqrt(s1[0] * s1[1]))
    # start near the root: (pi/2 - 1) w^3 <= h(w) <= (2/3) w^3 and
    # w^2 <= e(w) <= w^2 + (4/3) w^4 on [0, 1]
    a = np.abs(target)
    v = np.where(edge, np.sqrt(2.0 * a / (1.0 + np.sqrt(1.0 + 16.0 / 3.0 * a))),
                 np.cbrt(a / (math.pi / 2.0 - 1.0)))
    for _ in range(_NEWTON_STEPS):
        v = np.minimum(np.maximum(v, lo), top)
        at = np.arctan(v)
        q = (1.0 + v * v) * at
        g = np.where(edge, 2.0 * v * q - v * v, q - v) - target
        v -= g / np.where(edge, 2.0 * (1.0 + 3.0 * v * v) * at, 2.0 * v * at)
    v = np.minimum(np.maximum(v, lo), top)
    X = np.where(on[0], Lk[0], np.where(on[1], v * v / Lk[1], v * np.sqrt(s1[1] / s1[0])))
    Y = np.where(on[1], Lk[1], v * v / X)
    f = np.where(lo <= top, (base + s1[0] * X + s1[1] * Y) / (8.0 * np.arctan(v)), np.inf)
    circle, best = rows[:, 0], f.argmin(axis=1)  # the first smallest F
    f_best, xs, ys, v = f[circle, best], X[circle, best], Y[circle, best], v[circle, best]
    # the lines the window sits on: its piece's line or the next one
    pts, kb = np.array([xs, ys])[..., None], k[:, circle, best][..., None]
    near = L[side, rows, np.concatenate([kb, np.minimum(kb + 1, n - 1)], axis=-1)]
    sits = on[:, circle, best] | (np.abs(near - pts) <= _ON * pts).any(axis=-1)
    where = np.where(v >= w0 * (1.0 - _ON), "boundary", _STATUS[sits.sum(axis=0)])
    # the window's ends through libm pow, one circle at a time, like w0
    found = f_best < np.inf
    M = np.where(found, [x**-2.0 for x in xs], dmax.max(axis=-1))
    m = np.where(found, [y**2 for y in ys], dmin.min(axis=-1))
    p = np.minimum(np.maximum(1.0, dmax / M[:, None]), dmin / m[:, None])
    phi, psi = np.minimum(1.0, p), np.maximum(1.0, p)
    value = _arc_value(data, phi, psi)
    kept = ~(value < unit * (1.0 - _TIE))  # True for a NaN value too
    value = np.where(kept, unit, value)
    phi[kept], psi[kept], where[kept] = 1.0, 1.0, "constant"
    return value, phi, psi, np.full(C, 4 * n - 1), where, np.abs(f_best - value) / value


def _bound_of(sup_value: float) -> float:
    # a Holder exponent never exceeds 1; values below 1 only arise when the
    # sweep omits the small near-constant circles that realize 1
    return min(1.0, 1.0 / sup_value)


# ---------------------------------------------------------------------------
# restrictions to (integrand, det-ratio) fields


def _matrix_fields(on: MatrixOnCircles):
    """(I, D) of a matrix restriction: I = nAn/sqrt(det), D = det.  The one
    ellipticity check on circles: a pair whose |mu| + |nu| reaches 1 between
    the samples of its kappa shows here as a B that is not positive."""
    nAn = on.nAn.values
    det = on.det.values
    if np.any(det <= 0) or np.any(nAn <= 0):
        raise EllipticityError("matrix field loses positivity on the circle")
    kind = on.nAn.kind  # nAn and det share one kind
    return PeriodicField(on.grid, nAn / np.sqrt(det), kind), PeriodicField(on.grid, det, kind)


# sample points a pass restricts at most, so that a sweep's memory does not
# grow with its circle count; a README or benchmark sweep is one pass a grid
_PASS_POINTS = 1 << 16


def _passes(circles, angular: bool):
    """Positions in circles per pass: the circles of one grid_key, at most
    _PASS_POINTS sample points at a time."""
    groups = {}
    for k, c in enumerate(circles):
        groups.setdefault(grid_key(c, angular), []).append(k)
    passes = []
    for (resolution, _), idx in groups.items():
        size = max(1, _PASS_POINTS // resolution)
        passes += [idx[i:i + size] for i in range(0, len(idx), size)]
    return passes


@functools.lru_cache(maxsize=2)
def _reduced_pass(source, circles: tuple, weight_pieces: int) -> _CircleBatch:
    """Restrict source to circles of one grid and reduce the restriction's
    (I, D) to arcs.  Smooth restrictions take the weight-arc boundaries as
    extra breakpoints.  Origin circles of piecewise-constant k keep k's own
    arcs: I and D are constant on each, so its sub-arcs share dmin = dmax
    and every clip window gives them one weight; at k's node count they
    read k's own grid (see CoefficientMatrixField.on_circles).  The arrays
    the pass builds are read-only, since the cache hands the same batch to
    every bound; a grid it reuses stays the source's, as the caller left it."""
    k = source.k
    piecewise_origin = k is not None and k.is_piecewise and circles[0].origin_centered
    arcs = None if piecewise_origin else TWO_PI * np.arange(weight_pieces) / weight_pieces
    on = source.on_circles(circles, arcs)
    data = _arc_reduce(on.circles, *_matrix_fields(on))
    grid = data.integrand.grid
    built = () if k is not None and grid is k.grid else (
        grid.nodes, grid.breakpoints, grid.segment_starts)
    for a in (data.integrand.values, data.det_ratio.values, data.arc_integrals, data.arc_dmin,
              data.arc_dmax, *built):
        a.flags.writeable = False
    return data


def _reduced(source, cfg: SweepConfig):
    """(positions in cfg.circles, reduced pass) per pass, lazily, each
    through _reduced_pass's cache."""
    circles = tuple(cfg.circles)
    for idx in _passes(circles, source.k is not None):
        yield idx, _reduced_pass(source, tuple(circles[k] for k in idx), cfg.weight_pieces)


def _sweep(source, cfg: SweepConfig) -> ExponentReport:
    """Score each family once on every circle and keep the smallest value;
    of the passes, only the one holding the worst circle so far is kept."""
    rows, worst = [None] * len(cfg.circles), None
    for idx, data in _reduced(source, cfg):
        unit = data.unit_value
        rphi, rpsi = _remark_weights(data.integrand, data.det_ratio)
        remark = np.sqrt(rphi.max(axis=-1) / rpsi.min(axis=-1))
        window, phi, psi, evals, status, residual = _solve_weights(data, unit)
        scores = np.array([unit, np.where(remark < unit * (1.0 - _TIE), remark, np.inf), window])
        family = scores.argmin(axis=0)  # on a tie the first of _FAMILIES
        columns = {key: col.tolist() for key, col in {
            "value": scores[family, np.arange(len(idx))], "family": np.array(_FAMILIES)[family],
            "evaluations": evals, "solver_status": status, "optimality_residual": residual,
            "constant_value": unit, "remark_value": remark}.items()}
        for r, (k, circle) in enumerate(zip(idx, data.circles)):
            rows[k] = {"center": circle.center, "radius": circle.radius,
                       **{key: col[r] for key, col in columns.items()},
                       "nodes": data.integrand.grid.node_count, "arcs": data.arc_dmin.shape[-1]}
            key = (rows[k]["value"], -k)  # the largest value, the first on a tie
            if worst is None or key > worst[0]:
                worst = (key, k, data, r, phi[r], psi[r], rphi[r].copy(), rpsi[r].copy())
    _, k, data, r, phi, psi, rphi, rpsi = worst
    row, grid = rows[k], data.integrand.grid
    if row["family"] == "constant":
        weights = WeightPair.constant(grid)
    elif row["family"] == "remark":
        weights = WeightPair(*(PeriodicField(grid, w, data.integrand.kind) for w in (rphi, rpsi)))
    else:
        weights = WeightPair(PeriodicField.piecewise(grid, phi),
                             PeriodicField.piecewise(grid, psi))
    return ExponentReport(
        bound=_bound_of(row["value"]),
        sup_value=row["value"],
        attaining_circle=data.circles[r],
        attaining_weights=weights,
        per_circle=tuple(rows),
        certified_value=max(r["remark_value"] for r in rows),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# public bounds


def _real_nu(pair: BeltramiPair) -> BeltramiPair:
    if not pair.real_nu:
        raise ValueError("the circle functional requires real nu")
    return pair


def beta_estimate(pair: BeltramiPair, cfg: SweepConfig) -> ExponentReport:
    """Exponent lower bound for a coefficient pair with real nu: the
    gamma_estimate of its reduction matrix B."""
    return _sweep(_real_nu(pair), cfg)


def gamma_estimate(m: CoefficientMatrixField, cfg: SweepConfig) -> ExponentReport:
    """Exponent lower bound for a symmetric elliptic matrix field."""
    if not m.symmetric:
        raise ValueError("estimation requires a symmetric matrix field")
    return _sweep(m, cfg)


def corollary_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """The unit-weights bound: beta_estimate's circles and arc reduction,
    scored with the constant pair only; equal to its report's corollary.
    Right after beta_estimate on the same pair and a config of at most two
    passes, it reuses that sweep's reduction and unit-pair values: it
    restricts and scores nothing."""
    return _bound_of(max(float(d.unit_value.max()) for _, d in _reduced(_real_nu(pair), cfg)))


_UNIT_TOL = 1e-14  # I = 1 for mu = 0, D = 1 (times K^2) for nu = 0


def nu_zero_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """Simplified bound for nu = 0: reciprocal of the sup over circles of
    the mean of I, which is |1 - nbar^2 mu|^2 / (1 - |mu|^2) there.

    For real nu, D = ((1-nu)^2 - |mu|^2)/((1+nu)^2 - |mu|^2) is 1 only at
    nu = 0, where the arctan term is 1 and this is the corollary value
    circle by circle, so once D = 1 is checked on the sweep's reduced
    batches it is corollary_bound.  A pointwise B's det sums entry products
    up to K^2 (K the distortion bound), so D = 1 is tested to _UNIT_TOL K^2.
    """
    tol = _UNIT_TOL * pair.distortion_bound() ** 2
    for _, data in _reduced(_real_nu(pair), cfg):
        if np.max(np.abs(data.det_ratio.values - 1.0)) > tol:
            raise ValueError("nu_zero_bound requires nu = 0")
    return corollary_bound(pair, cfg)


def mu_zero_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """Simplified bound for mu = 0: over the worst circle, the arctan term
    of inf D / sup D, (4/pi) arctan of the root of the (1-nu)/(1+nu) spread.

    mu = 0 shows as I = 1, where this is the corollary value circle by
    circle, so once I = 1 is checked to _UNIT_TOL on the sweep's reduced
    batches it is corollary_bound: a circle on which nu is constant
    contributes 1, and on angular data the origin circle, which sees every
    value of nu, is the worst.
    """
    for _, data in _reduced(_real_nu(pair), cfg):
        if np.max(np.abs(data.integrand.values - 1.0)) > _UNIT_TOL:
            raise ValueError("mu_zero_bound requires mu = 0")
    return corollary_bound(pair, cfg)


def classical_bound(pair: BeltramiPair) -> float:
    """Reciprocal of the distortion sup (1+|mu|+|nu|)/(1-|mu|-|nu|).

    kappa = sup |mu| + |nu| is exact for angular pairs; for a callable pair it
    is sampled on a fixed 12 x 96 polar lattice, so the bound can be optimistic.
    """
    return (1.0 - pair.kappa) / (1.0 + pair.kappa)
