"""Holder-exponent lower bounds from circle averages.

Every bound here has the same shape: on each circle, a positive integrand I
and a determinant-ratio field D are formed from the coefficients (a Beltrami
pair for beta, a symmetric matrix field for gamma); a weight pair (phi, psi)
scales them into

    value(phi, psi) = sqrt(sup phi / inf psi) * mean(sqrt(psi/phi) * I)
                      / ((4/pi) * arctan( (inf D/(phi psi)) / (sup D/(phi psi)) )^{1/4}),

and the exponent bound is the reciprocal of the sup over circles of the inf
over weights.  Each circle scores three weight families once: the unit pair
(its values alone give the corollary bound), a closed-form pair that
collapses the arctan term to 1 (the certified value), and the per-arc pair
that minimises the value.  That minimum is exact: the best weights clip
D/(phi psi) into a window [m, M], on which the value has closed form, and
one batched Newton solve finds the few candidate minima per cell of a grid
over the windows (see _solve_weights); the value of the returned weights is
recomputed exactly.  Any candidate set gives a valid bound; richer sets
tighten it.

Weights are constant on arcs: the coefficient breakpoints merged with
SweepConfig.weight_pieces uniform arcs.  One reduction, _arc_reduce, turns I
and D into per-arc integrals and extrema over node gaps for
piecewise-constant and smooth data alike; the kinds differ only in a gap's
right-end value (periodic_fields.gap_right_values).  The reduction is exact
for piecewise-constant data and trapezoid-accurate for smooth data.

A sweep makes one pass per grid: the circles of one resolution, origin-centred
or not, are restricted, reduced and solved together (_restrictions), each
circle's row as it would be alone.  A grid with more than _PASS_POINTS sample
points takes several passes, made one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    field_extrema,
    gap_integrals,
    gap_right_values,
    periodic_mean,
)
from .reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    EllipticityError,
    MatrixOnCircles,
    PairOnCircles,
)

__all__ = [
    "WeightPair",
    "SweepConfig",
    "ExponentReport",
    "circle_integrand",
    "weighted_objective",
    "remark_weights",
    "classical_bound",
    "beta_estimate",
    "gamma_estimate",
    "corollary_bound",
    "nu_zero_bound",
    "mu_zero_bound",
]

# the weight families every circle scores; on a tie the first one wins
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

    Every circle scores the same weight families (families()).  The
    weight_pieces uniform arcs are merged into each circle's coefficient
    breakpoints.  On piecewise-constant data the best weights are already
    constant on the coefficient arcs, so weight_pieces matters only for
    smooth data.  Each circle is sampled at its own CircleSpec.resolution.
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
        """Single origin-centered circle; enough for purely angular data."""
        return cls(circles=(CircleSpec(0.0, radius, resolution=resolution),), **kw)

    @classmethod
    def disk_lattice(
        cls,
        radius_count: int = 5,
        angle_count: int = 8,
        margin: float = 0.05,
        resolution: int = 1024,
        **kw,
    ) -> "SweepConfig":
        """Origin circle plus circles centered on a polar lattice in the unit
        disk, each with the largest radius keeping the stated margin."""
        circles = [CircleSpec(0.0, 1.0 - margin, resolution=resolution)]
        rs = np.linspace(0.15, 0.75, radius_count)
        ts = TWO_PI * np.arange(angle_count) / angle_count
        for r in rs:
            for t in ts:
                center = r * np.exp(1j * t)
                circles.append(
                    CircleSpec(complex(center), (1.0 - margin) * (1.0 - r), resolution=resolution)
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


def _arc_reduce(circles, I: PeriodicField, D: PeriodicField) -> _CircleBatch:
    """Per-arc trapezoid integral of I and extrema of D over the node gaps,
    split at the grid's breakpoints."""
    starts = I.grid.segment_starts
    dv, dr = D.values, gap_right_values(D)
    T = np.add.reduceat(gap_integrals(I), starts, axis=-1)
    dmin = np.minimum.reduceat(np.minimum(dv, dr), starts, axis=-1)
    dmax = np.maximum.reduceat(np.maximum(dv, dr), starts, axis=-1)
    return _CircleBatch(tuple(circles), I, D, T, dmin, dmax)


def _arctan_term(ratio, power: float = 0.25) -> np.ndarray:
    # ratio is a min over a max, so <= 1; it is taken as is, with no floor, so
    # a tiny ratio gives the large true value (for the unit pair and every
    # clip window it is at least ((1 - kappa)/(1 + kappa))^4 > 0).  libm
    # (float pow, math.atan) rounds alike whatever numpy's SIMD dispatch.
    return np.array([(4.0 / math.pi) * math.atan(r**power) for r in ratio.tolist()])


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


def _remark_pair(I: PeriodicField, D: PeriodicField) -> WeightPair:
    phi, psi = _remark_weights(I, D)
    return WeightPair(PeriodicField(I.grid, phi, I.kind), PeriodicField(I.grid, psi, I.kind))


def _keys(rows, values) -> np.ndarray:
    """Complex keys rows + i values, which numpy orders by row, then value."""
    keys = np.empty(np.broadcast_shapes(np.shape(rows), np.shape(values)), dtype=complex)
    keys.real, keys.imag = rows, values
    return keys


_BLOCK = 1 << 14  # grid cells per block, across circles
_NEWTON_STEPS = 3
# candidate kinds: edge of fixed X, edge of fixed Y, cell; X = scale * w**power
_EDGE = np.array([True, True, False])[:, None, None, None]
_X_POWER = np.array([0.0, 2.0, 1.0])[:, None, None, None]
# a window must beat the unit pair by _TIE: at its corner they tie to ulps
_TIE = 1e-14


def _solve_weights(data: _CircleBatch, unit):
    """Exact minimum of the per-arc weight problem, through its clip window,
    on every circle of data at once (unit: the unit pair's values).

    The value does not change when phi and psi are scaled apart, so take
    max phi = 1 = min psi.  Clipping D/(phi psi) into a window [m, M] with
    p = clip(1, dmax/M, dmin/m), phi = min(1, p), psi = max(1, p) is best, at

        F = (T + sum_{dmax_j > M} T_j (sqrt(dmax_j/M) - 1)
               + sum_{dmin_j < m} T_j (sqrt(m/dmin_j) - 1)) / (8 arctan w),

    w = (m/M)^{1/4} <= w0 = min(dmin/dmax)^{1/4}.  In X = M^{-1/2}, Y = m^{1/2}
    (w^2 = XY) the sorted dmax and dmin cut the plane into cells on which the
    numerator is N = C + A1 X + B1 Y; F only falls from M > max dmax or
    m < min dmin towards them or onto w = w0.  A cell's stationary point
    solves h(w) = (1 + w^2) arctan w - w = C/(2 sqrt(A1 B1)) at
    X = w sqrt(B1/A1); clipped to w <= w0 it is also the minimum on that
    line.  Along a grid line of fixed X, F falls while e(w) =
    2w(1 + w^2) arctan w - w^2 < (N - B1 Y) X/B1 (fixed Y likewise), so the
    root clipped to an edge's feasible part is its minimum: a vertex or a
    crossing of w = w0 included.  One batched Newton solve per block of grid
    rows of all circles (padded to the most lines) gives these feasible
    windows; each is scored with the exact F, ties going to the first in
    (kind, row, column) order.  Per circle, returns the exact _arc_value of
    the best one's weights (or unit, unless beaten by more than _TIE), the
    weights, the candidate count, where the optimum lies ("interior",
    "edge", "vertex", "boundary" or "constant") and the relative gap between
    F and the returned value.
    """
    T, dmin, dmax = data.arc_integrals, data.arc_dmin, data.arc_dmax
    C, n = T.shape
    w0 = np.array([r**0.25 for r in (dmin / dmax).min(axis=-1).tolist()])  # libm pow
    # grid lines: each circle's distinct dmax (side 0) and dmin (side 1),
    # sorted, padded with inf; rank: each arc's line, its arcs in arc order
    D = np.stack([dmax, dmin])
    order, s = np.argsort(D, axis=-1, kind="stable"), np.sort(D, axis=-1)
    new = np.diff(s, axis=-1, prepend=0.0) != 0.0
    rank = np.cumsum(new, axis=-1) - 1
    (nX, nY) = counts = rank[..., -1] + 1
    KX, KY = counts.max(axis=1)
    lines = np.sort(np.where(new, s, np.inf), axis=-1)[..., :max(KX, KY)]
    # clipped from above for M just below line i: dmax >= Mk[i], sums A[i]
    # (A[nX] = 0); from below for m just above line l: dmin <= mk[l], B[l + 1]
    base = np.arange(2 * C).reshape(2, C, 1) * n
    w = np.array([[T * np.sqrt(dmax), T / np.sqrt(dmin)], [T, T]]).reshape(2, -1)
    sums = np.array([np.bincount((rank + base).ravel(), v, minlength=2 * C * n)
                     for v in w[:, (order + base).ravel()]]).reshape(2, 2, C, n)
    zero = np.zeros((2, C, 1))
    A = np.concatenate([np.cumsum(sums[:, 0, :, ::-1], axis=-1)[..., ::-1], zero], axis=-1)
    B = np.concatenate([zero, np.cumsum(sums[:, 1], axis=-1)], axis=-1)
    # a window's key (circle, value) counts its lines (pads sit at circle + 1/2)
    circle = np.arange(C)[:, None, None]
    KM, Km = _keys(circle[:, 0] + 0.5 * np.isinf(lines), lines).reshape(2, -1)
    (A1, A0), (B1, B0) = (a[..., :lines.shape[-1] + 1].reshape(2, -1) for a in (A, B))
    X, Y = lines[0, :, :KX] ** -0.5, np.sqrt(lines[1, :, :KY])  # cell: [X, Xhi] x [Y, Yhi]
    Xhi = np.concatenate([np.full((C, 1), np.inf), X[:, :-1]], axis=1)
    y, yhi = Y[:, None], np.concatenate([Y[:, 1:], np.full((C, 1), np.inf)], axis=1)[:, None]
    (b1, b0), (b1l, b0l) = B[:, :, None, 1:KY + 1], B[:, :, None, :KY]  # B[l + 1], B[l]
    tot, w0c = T.sum(axis=-1)[:, None, None], w0[:, None, None]
    col_ok = np.arange(KY) < nY[:, None, None]
    # per circle: F, key, X, Y, w, lines it sits on; from the unit pair's corner
    best = np.array([np.full(C, np.inf), np.zeros(C), np.ones(C), np.ones(C), w0, np.full(C, 2.0)])
    rows = max(1, _BLOCK // (C * KY))
    for i0 in range(0, KX, rows):
        i1 = min(i0 + rows, KX)
        x, xhi = X[:, i0:i1, None], Xhi[:, i0:i1, None]
        (a1, a0), (a1n, a0n) = A[:, :, i0:i1, None], A[:, :, i0 + 1:i1 + 1, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # padded cells
            r = np.sqrt(a1 / b1)
            w = np.sqrt(x * y)
            side = np.array([x * r, y / r, xhi * r, yhi / r])  # where a cell root clips
            lo = np.array([w, w, np.maximum(side[0], side[1])])
            top = np.minimum(np.array(
                [np.sqrt(x * yhi), np.sqrt(xhi * y), np.minimum(side[2], side[3])]), w0c)
            target = np.array([
                (tot + a1n * x - a0n - b0) * x / b1,
                (tot + b1l * y - b0l - a0) * y / a1,
                (tot - a0 - b0) / (2.0 * np.sqrt(a1 * b1)),
            ])
            scale = np.empty((3, *r.shape))
            scale[0], scale[1], scale[2] = x, 1.0 / y, 1.0 / r
            # start near the root: (pi/2 - 1) w^3 <= h(w) <= (2/3) w^3 and
            # w^2 <= e(w) <= w^2 + (4/3) w^4 on [0, 1]
            t = np.abs(target)
            v = np.where(_EDGE, np.sqrt(2.0 * t / (1.0 + np.sqrt(1.0 + 16.0 / 3.0 * t))),
                         np.cbrt(t / (math.pi / 2.0 - 1.0)))
            for _ in range(_NEWTON_STEPS):
                v = np.minimum(np.maximum(v, lo), top)
                at = np.arctan(v)
                q = (1.0 + v * v) * at
                g = np.where(_EDGE, 2.0 * v * q - v * v, q - v) - target
                v -= g / np.where(_EDGE, 2.0 * (1.0 + 3.0 * v * v) * at, 2.0 * v * at)
            v = np.minimum(np.maximum(v, lo), top)
            # a full exponent array: with a broadcast one, numpy's power
            # switches to a differently rounded loop past 4096 elements
            xs = scale * v ** np.broadcast_to(_X_POWER, v.shape).copy()
            ys = v * v / xs
            i = np.searchsorted(KM, _keys(circle, xs**-2.0)) + circle
            l = np.searchsorted(Km, _keys(circle, ys * ys), side="right") + circle
            f = (tot + A1[i] * xs - A0[i] + B1[l] * ys - B0[l]) / (8.0 * np.arctan(v))
        f = np.where((np.arange(i0, i1)[:, None] < nX[:, None, None]) & col_ok, f, np.inf)
        # each circle's first smallest F in the block, in (kind, row, column) order
        kind, lr, lc = np.unravel_index(f.swapaxes(0, 1).reshape(C, -1).argmin(axis=1),
                                        (3, i1 - i0, KY))
        pick = (kind, np.arange(C), lr, lc)
        fk, xk, yk, vk, lok, topk = (a[pick] for a in (f, xs, ys, v, lo, top))
        # grid lines the point sits on, to rounding: an edge's ends are
        # vertices; a cell's root clipped onto a side or corner is on 1 or 2
        ends = np.where(kind < 2, [lok, topk, np.nan * vk, np.nan * vk], side[:, pick[1], lr, lc])
        on = (kind < 2) + np.count_nonzero(np.abs(ends - vk) <= 1e-12 * vk, axis=0)
        row = np.array([fk, (kind * KX + i0 + lr) * KY + lc, xk, yk, vk, on])
        won = (fk < best[0]) | ((fk == best[0]) & (row[1] < best[1]))
        best[:, won] = row[:, won]
    f_best, _, xs, ys, v, on = best
    where = np.where(v >= w0, "boundary",
                     np.array(["interior", "edge", "vertex"])[np.minimum(on, 2).astype(int)])
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
    return value, phi, psi, 3 * nX * nY, where, np.abs(f_best - value) / value


def _bound_of(sup_value: float) -> float:
    # a Holder exponent never exceeds 1; values below 1 only arise when the
    # sweep omits the small near-constant circles that realize 1
    return min(1.0, 1.0 / sup_value)


# ---------------------------------------------------------------------------
# restrictions to (integrand, det-ratio) fields


def _joint_kind(*fields) -> str:
    return PIECEWISE if all(f.kind == PIECEWISE for f in fields) else SMOOTH


def _pair_fields(on: PairOnCircles):
    """(I, D) of a pair restriction: I = (|1-nbar^2 mu|^2 - nu^2)/sqrt(rad) with
    rad = (1-(|mu|+nu)^2)(1-(|mu|-nu)^2), D = ((1-nu)^2-|mu|^2)/((1+nu)^2-|mu|^2);
    defined for real nu only."""
    if not on.real_nu:
        raise ValueError("the circle functional requires real nu")
    mu_abs = np.abs(on.nbar2mu.values)
    nu = on.nu.values.real
    num = np.abs(1.0 - on.nbar2mu.values) ** 2 - nu**2
    rad = (1.0 - (mu_abs + nu) ** 2) * (1.0 - (mu_abs - nu) ** 2)
    if np.any(rad <= 0):
        j = int(np.argmin(rad)) % on.grid.node_count
        raise EllipticityError(
            f"integrand radicand <= 0 at node {j} (|mu|+|nu| reaches 1 on the circle)"
        )
    dvals = ((1.0 - nu) ** 2 - mu_abs**2) / ((1.0 + nu) ** 2 - mu_abs**2)
    kind = _joint_kind(on.nbar2mu, on.nu)
    return PeriodicField(on.grid, num / np.sqrt(rad), kind), PeriodicField(on.grid, dvals, kind)


def _matrix_fields(on: MatrixOnCircles):
    """(I, D) of a matrix restriction: I = nAn/sqrt(det), D = det."""
    nAn = on.nAn.values
    det = on.det.values
    if np.any(det <= 0) or np.any(nAn <= 0):
        raise EllipticityError("matrix field loses positivity on the circle")
    kind = _joint_kind(on.nAn, on.det)
    return PeriodicField(on.grid, nAn / np.sqrt(det), kind), PeriodicField(on.grid, det, kind)


# sample points a pass restricts at most, so that a sweep's memory does not
# grow with its circle count; the README and benchmark sweeps are one pass
_PASS_POINTS = 1 << 16


def _restrictions(source, circles, extra_breakpoints=None):
    """(positions in circles, source.on_circles) per pass, lazily: the circles
    of one grid, at most _PASS_POINTS sample points at a time."""
    groups = {}
    for k, c in enumerate(circles):
        groups.setdefault((c.resolution, c.origin_centered), []).append(k)
    for (resolution, _), idx in groups.items():
        size = max(1, _PASS_POINTS // resolution)
        for part in (idx[i:i + size] for i in range(0, len(idx), size)):
            yield part, source.on_circles([circles[k] for k in part], extra_breakpoints)


def _reduced(source, fields, cfg: SweepConfig):
    """Restrict source to the sweep circles, weight-arc boundaries as extra
    breakpoints, and reduce fields(restriction) = (I, D) to arcs, per pass."""
    arcs = TWO_PI * np.arange(cfg.weight_pieces) / cfg.weight_pieces
    return ((idx, _arc_reduce(on.circles, *fields(on)))
            for idx, on in _restrictions(source, cfg.circles, arcs))


def _sweep(source, fields, cfg: SweepConfig) -> ExponentReport:
    """Score each family once on every circle and keep the smallest value;
    of the passes, only the one holding the worst circle so far is kept."""
    rows, worst = [None] * len(cfg.circles), None
    for idx, data in _reduced(source, fields, cfg):
        unit = _unit_value(data)
        rphi, rpsi = _remark_weights(data.integrand, data.det_ratio)
        remark = np.sqrt(rphi.max(axis=-1) / rpsi.min(axis=-1))
        window, phi, psi, evals, status, residual = _solve_weights(data, unit)
        scores = np.array([unit, remark, window])
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
                worst = (key, k, data, r, phi[r], psi[r])
    _, k, data, r, phi, psi = worst
    row, grid = rows[k], data.integrand.grid
    if row["family"] == "constant":
        weights = WeightPair.constant(grid)
    elif row["family"] == "remark":
        weights = _remark_pair(*(PeriodicField(grid, f.values[r], f.kind)
                                 for f in (data.integrand, data.det_ratio)))
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


def beta_estimate(pair: BeltramiPair, cfg: SweepConfig) -> ExponentReport:
    """Exponent lower bound for a coefficient pair with real nu."""
    return _sweep(pair, _pair_fields, cfg)


def gamma_estimate(m: CoefficientMatrixField, cfg: SweepConfig) -> ExponentReport:
    """Exponent lower bound for a symmetric elliptic matrix field."""
    if not m.symmetric:
        raise ValueError("estimation requires a symmetric matrix field")
    return _sweep(m, _matrix_fields, cfg)


def corollary_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """The unit-weights bound: beta_estimate's circles and arc reduction,
    scored with the constant pair only; equal to its report's corollary."""
    return _bound_of(max(float(_unit_value(d).max()) for _, d in _reduced(pair, _pair_fields, cfg)))


def nu_zero_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """Simplified bound for nu = 0: reciprocal of the sup over circles of
    the mean of |1 - nbar^2 mu|^2 / (1 - |mu|^2)."""
    sup = 0.0
    for _, on in _restrictions(pair, cfg.circles):
        if np.max(np.abs(on.nu.values)) > 1e-14:
            raise ValueError("nu_zero_bound requires nu = 0")
        mu_abs = np.abs(on.nbar2mu.values)
        vals = np.abs(1.0 - on.nbar2mu.values) ** 2 / (1.0 - mu_abs**2)
        sup = max(sup, float(np.max(periodic_mean(PeriodicField(on.grid, vals, on.nbar2mu.kind)))))
    return min(1.0, 1.0 / sup)


def mu_zero_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """Simplified bound for mu = 0: over the worst circle, (4/pi) arctan of
    the square root of the (1-nu)/(1+nu) spread.

    With mu = 0 the integrand is 1, so this is the corollary bound circle by
    circle: a circle on which nu is constant contributes 1, and on angular
    data the origin circle, which sees every value of nu, is the worst.
    """
    worst = 1.0
    for _, on in _restrictions(pair, cfg.circles):
        if np.max(np.abs(on.nbar2mu.values)) > 1e-14:  # |nbar^2 mu| = |mu|
            raise ValueError("mu_zero_bound requires mu = 0")
        nu = on.nu.values.real
        g = (1.0 - nu) / (1.0 + nu)
        worst = min(worst, float(_arctan_term(g.min(axis=-1) / g.max(axis=-1), power=0.5).min()))
    return worst


def classical_bound(pair: BeltramiPair) -> float:
    """Reciprocal of the distortion sup (1+|mu|+|nu|)/(1-|mu|-|nu|).

    kappa = sup |mu| + |nu| is exact for angular pairs; for a callable pair it
    is sampled on a fixed 12 x 96 polar lattice, so the bound can be optimistic.
    """
    return (1.0 - pair.kappa) / (1.0 + pair.kappa)


def remark_weights(on: PairOnCircles) -> WeightPair:
    """Closed-form weight pair making the arctan term exactly 1.

    phi = I sqrt(D) = (|1-nbar^2 mu|^2 - nu^2)/((1+nu)^2 - |mu|^2) and
    psi = sqrt(D)/I = ((1-nu)^2 - |mu|^2)/(|1-nbar^2 mu|^2 - nu^2), since
    rad = ((1-nu)^2 - |mu|^2)((1+nu)^2 - |mu|^2); their product is the det
    ratio, and the weighted integrand is identically 1, leaving
    sqrt(sup phi / inf psi) <= sup of the distortion.
    """
    return _remark_pair(*_pair_fields(on))


def circle_integrand(on: PairOnCircles, weights: WeightPair) -> PeriodicField:
    """sqrt(psi/phi) times the coefficient integrand, per node."""
    I, _ = _pair_fields(on)
    w = np.sqrt(weights.psi.values.real / weights.phi.values.real)
    return PeriodicField(on.grid, w * I.values, SMOOTH)


def weighted_objective(on, weights: WeightPair) -> float:
    """Node-level objective for explicit weights on one circle's restriction.

    Accepts either a coefficient-pair restriction or a matrix restriction;
    extrema and means are taken over the sampled nodes.
    """
    I, D = _matrix_fields(on) if isinstance(on, MatrixOnCircles) else _pair_fields(on)
    phi = weights.phi.values.real
    psi = weights.psi.values.real
    mean = periodic_mean(PeriodicField(on.grid, np.sqrt(psi / phi) * I.values, I.kind)).item()
    prod = D.values / (phi * psi)
    ratio = np.min(prod) / np.max(prod)
    return math.sqrt(np.max(phi) / np.min(psi)) * mean / _arctan_term(np.array([ratio]))[0]
