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
    gap_right_values,
    periodic_mean,
)
from .reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    EllipticityError,
    MatrixOnCircle,
    PairOnCircle,
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
    def constant(cls, grid: AngularGrid, phi: float = 1.0, psi: float = 1.0) -> "WeightPair":
        return cls(PeriodicField.constant(grid, phi), PeriodicField.constant(grid, psi))


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
# per-circle machinery


@dataclass(frozen=True, eq=False)
class _CircleData:
    """Integrand/det-ratio fields on one circle plus their arc reduction."""

    circle: CircleSpec
    integrand: PeriodicField
    det_ratio: PeriodicField
    arc_integrals: np.ndarray  # per-arc integral of I
    arc_dmin: np.ndarray
    arc_dmax: np.ndarray


def _arc_reduce(circle: CircleSpec, I: PeriodicField, D: PeriodicField) -> _CircleData:
    """Per-arc trapezoid integral of I and extrema of D over the node gaps,
    split at the grid's breakpoints."""
    grid, starts = I.grid, I.grid.segment_starts
    iv, dv = I.values.real, D.values
    ir, dr = gap_right_values(I).real, gap_right_values(D)
    T = np.add.reduceat(grid.spacings() * 0.5 * (iv + ir), starts)
    dmin = np.minimum.reduceat(np.minimum(dv, dr), starts)
    dmax = np.maximum.reduceat(np.maximum(dv, dr), starts)
    return _CircleData(circle, I, D, T, dmin, dmax)


def _arctan_term(ratio: float, power: float = 0.25) -> float:
    # ratio is a min over a max, so <= 1; it is taken as is, with no floor, so
    # a tiny ratio gives the large true value (for the unit pair and every
    # clip window it is at least ((1 - kappa)/(1 + kappa))^4 > 0)
    return (4.0 / math.pi) * math.atan(ratio**power)


def _arc_value(data: _CircleData, phi: np.ndarray, psi: np.ndarray) -> float:
    """Objective for per-arc constant weights; exact given the arc reduction."""
    num = math.sqrt(phi.max() / psi.min()) * float(
        (np.sqrt(psi / phi) * data.arc_integrals).sum()
    ) / TWO_PI
    prod = phi * psi
    ratio = float((data.arc_dmin / prod).min() / (data.arc_dmax / prod).max())
    return num / _arctan_term(ratio)


def _unit_value(data: _CircleData) -> float:
    ones = np.ones(data.arc_integrals.size)
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


_BLOCK = 1 << 14  # grid cells per block of rows
_NEWTON_STEPS = 3
# candidate kinds: edge of fixed X, edge of fixed Y, cell; X = scale * w**power
_EDGE = np.array([True, True, False])[:, None, None]
_X_POWER = np.array([0.0, 2.0, 1.0])[:, None, None]


def _solve_weights(data: _CircleData, unit: float):
    """Exact minimum of the per-arc weight problem, through its clip window.

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
    rows gives these feasible windows; each is scored with the exact F.
    Returns the exact _arc_value of the best one's weights (or unit, the
    unit pair's value, when that is not beaten), the weights, the candidate
    count, where the optimum lies ("interior", "edge", "vertex", "boundary"
    or "constant") and the relative gap between F and the returned value.
    """
    T, dmin, dmax = data.arc_integrals, data.arc_dmin, data.arc_dmax
    total = float(T.sum())
    w0 = float((dmin / dmax).min()) ** 0.25
    Mk, mk = np.unique(dmax), np.unique(dmin)
    iM, im = np.searchsorted(Mk, dmax), np.searchsorted(mk, dmin)
    # clipped from above for M just below Mk[i]: dmax >= Mk[i], sums A[i];
    # from below for m just above mk[l]: dmin <= mk[l], sums B[l + 1]
    A1 = np.append(np.cumsum(np.bincount(iM, T * np.sqrt(dmax))[::-1])[::-1], 0.0)
    A0 = np.append(np.cumsum(np.bincount(iM, T)[::-1])[::-1], 0.0)
    B1 = np.concatenate([[0.0], np.cumsum(np.bincount(im, T / np.sqrt(dmin)))])
    B0 = np.concatenate([[0.0], np.cumsum(np.bincount(im, T))])
    X, Y = Mk**-0.5, np.sqrt(mk)  # grid lines; cell (i, l) is [X[i], Xhi[i]] x [Y[l], Yhi[l]]
    Xhi, Yhi = np.concatenate([[np.inf], X[:-1]]), np.append(Y[1:], np.inf)
    best = (math.inf, Mk[-1], mk[0], 2, w0)  # the unit pair's corner
    rows = max(1, _BLOCK // Y.size)
    for i0 in range(0, X.size, rows):
        s = slice(i0, min(i0 + rows, X.size))
        x, xhi, a1, a0 = X[s, None], Xhi[s, None], A1[s, None], A0[s, None]
        r = np.sqrt(a1 / B1[1:])
        w = np.sqrt(x * Y)
        side = np.array([x * r, Y / r, xhi * r, Yhi / r])  # where a cell root clips
        lo = np.array([w, w, np.maximum(side[0], side[1])])
        top = np.minimum(np.array(
            [np.sqrt(x * Yhi), np.sqrt(xhi * Y), np.minimum(side[2], side[3])]), w0)
        target = np.array([
            (total + A1[1:][s, None] * x - A0[1:][s, None] - B0[1:]) * x / B1[1:],
            (total + B1[:-1] * Y - B0[:-1] - a0) * Y / a1,
            (total - a0 - B0[1:]) / (2.0 * np.sqrt(a1 * B1[1:])),
        ])
        scale = np.array(np.broadcast_arrays(x, 1.0 / Y, 1.0 / r))
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
        xs = scale * v**_X_POWER
        ys = v * v / xs
        i, l = np.searchsorted(Mk, xs**-2.0), np.searchsorted(mk, ys * ys, side="right")
        f = (total + A1[i] * xs - A0[i] + B1[l] * ys - B0[l]) / (8.0 * np.arctan(v))
        k = np.unravel_index(np.argmin(f), f.shape)
        if f[k] < best[0]:
            # grid lines the point sits on, to rounding: an edge's ends are
            # vertices; a cell's root clipped onto a side or corner is on 1 or 2
            ends = np.array([lo[k], top[k]]) if k[0] < 2 else side[:, k[1], k[2]]
            on = (k[0] < 2) + np.count_nonzero(abs(ends - v[k]) <= 1e-12 * v[k])
            best = (float(f[k]), xs[k] ** -2.0, ys[k] ** 2, on, v[k])
    f_best, M, m, on, v = best
    where = "boundary" if v >= w0 else ("interior", "edge", "vertex")[min(on, 2)]
    p = np.minimum(np.maximum(1.0, dmax / M), dmin / m)
    phi, psi = np.minimum(1.0, p), np.maximum(1.0, p)
    value = _arc_value(data, phi, psi)
    if not value < unit:  # True for a NaN value too
        value, phi, psi, where = unit, np.ones(p.size), np.ones(p.size), "constant"
    return value, phi, psi, 3 * X.size * Y.size, where, abs(f_best - value) / value


def _evaluate_circle(data: _CircleData):
    """Score each family once on one circle and keep the smallest value.

    Returns the per-circle row and the per-arc window weights, which only
    the attaining circle turns into a WeightPair.
    """
    unit = _unit_value(data)
    rphi, rpsi = _remark_weights(data.integrand, data.det_ratio)
    remark = math.sqrt(float(np.max(rphi)) / float(np.min(rpsi)))
    window, phi, psi, evals, status, residual = _solve_weights(data, unit)
    family, value = min(zip(_FAMILIES, (unit, remark, window)), key=lambda c: c[1])
    row = {
        "center": data.circle.center,
        "radius": data.circle.radius,
        "value": value,
        "family": family,
        "evaluations": evals,
        "solver_status": status,
        "optimality_residual": residual,
        "constant_value": unit,
        "remark_value": remark,
    }
    return row, phi, psi


def _bound_of(sup_value: float) -> float:
    # a Holder exponent never exceeds 1; values below 1 only arise when the
    # sweep omits the small near-constant circles that realize 1
    return min(1.0, 1.0 / sup_value)


def _assemble(circles, evaluated, cfg: SweepConfig) -> ExponentReport:
    rows = tuple(row for row, _, _ in evaluated)
    k = max(range(len(rows)), key=lambda i: rows[i]["value"])
    data, (row, phi, psi) = circles[k], evaluated[k]
    grid = data.integrand.grid
    if row["family"] == "constant":
        weights = WeightPair.constant(grid)
    elif row["family"] == "remark":
        weights = _remark_pair(data.integrand, data.det_ratio)
    else:
        weights = WeightPair(PeriodicField.piecewise(grid, phi),
                             PeriodicField.piecewise(grid, psi))
    return ExponentReport(
        bound=_bound_of(row["value"]),
        sup_value=row["value"],
        attaining_circle=data.circle,
        attaining_weights=weights,
        per_circle=rows,
        certified_value=max(r["remark_value"] for r in rows),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# restrictions to (integrand, det-ratio) fields


def _joint_kind(*fields) -> str:
    return PIECEWISE if all(f.kind == PIECEWISE for f in fields) else SMOOTH


def _pair_fields(on: PairOnCircle):
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
        j = int(np.argmin(rad))
        raise EllipticityError(
            f"integrand radicand <= 0 at node {j} (|mu|+|nu| reaches 1 on the circle)"
        )
    dvals = ((1.0 - nu) ** 2 - mu_abs**2) / ((1.0 + nu) ** 2 - mu_abs**2)
    kind = _joint_kind(on.nbar2mu, on.nu)
    return PeriodicField(on.grid, num / np.sqrt(rad), kind), PeriodicField(on.grid, dvals, kind)


def _matrix_fields(on: MatrixOnCircle):
    """(I, D) of a matrix restriction: I = nAn/sqrt(det), D = det."""
    nAn = on.nAn.values
    det = on.det.values
    if np.any(det <= 0) or np.any(nAn <= 0):
        raise EllipticityError("matrix field loses positivity on the circle")
    kind = _joint_kind(on.nAn, on.det)
    return PeriodicField(on.grid, nAn / np.sqrt(det), kind), PeriodicField(on.grid, det, kind)


def _reduced(source, fields, cfg: SweepConfig) -> list:
    """Restrict source to every sweep circle, with the weight-arc boundaries
    as extra breakpoints, and reduce fields(restriction) = (I, D) to arcs."""
    arcs = TWO_PI * np.arange(cfg.weight_pieces) / cfg.weight_pieces
    return [_arc_reduce(c, *fields(source.on_circle(c, arcs))) for c in cfg.circles]


def _sweep(source, fields, cfg: SweepConfig) -> ExponentReport:
    circles = _reduced(source, fields, cfg)
    return _assemble(circles, [_evaluate_circle(d) for d in circles], cfg)


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
    return _bound_of(max(_unit_value(d) for d in _reduced(pair, _pair_fields, cfg)))


def nu_zero_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """Simplified bound for nu = 0: reciprocal of the sup over circles of
    the mean of |1 - nbar^2 mu|^2 / (1 - |mu|^2)."""
    sup = 0.0
    for circle in cfg.circles:
        on = pair.on_circle(circle)
        if np.max(np.abs(on.nu.values)) > 1e-14:
            raise ValueError("nu_zero_bound requires nu = 0")
        mu_abs = np.abs(on.nbar2mu.values)
        vals = np.abs(1.0 - on.nbar2mu.values) ** 2 / (1.0 - mu_abs**2)
        sup = max(sup, periodic_mean(PeriodicField(on.grid, vals, on.nbar2mu.kind)))
    return min(1.0, 1.0 / sup)


def mu_zero_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """Simplified bound for mu = 0: over the worst circle, (4/pi) arctan of
    the square root of the (1-nu)/(1+nu) spread.

    With mu = 0 the integrand is 1, so this is the corollary bound circle by
    circle: a circle on which nu is constant contributes 1, and on angular
    data the origin circle, which sees every value of nu, is the worst.
    """
    worst = 1.0
    for circle in cfg.circles:
        on = pair.on_circle(circle)
        if np.max(np.abs(on.mu.values)) > 1e-14:
            raise ValueError("mu_zero_bound requires mu = 0")
        nu = on.nu.values.real
        g = (1.0 - nu) / (1.0 + nu)
        ratio = float(np.min(g) / np.max(g))
        worst = min(worst, _arctan_term(ratio, power=0.5))
    return worst


def classical_bound(pair: BeltramiPair) -> float:
    """Reciprocal of the distortion sup (1+|mu|+|nu|)/(1-|mu|-|nu|).

    kappa = sup |mu| + |nu| is exact for angular pairs; for a callable pair it
    is sampled on a fixed 12 x 96 polar lattice, so the bound can be optimistic.
    """
    return (1.0 - pair.kappa) / (1.0 + pair.kappa)


def remark_weights(on: PairOnCircle) -> WeightPair:
    """Closed-form weight pair making the arctan term exactly 1.

    phi = I sqrt(D) = (|1-nbar^2 mu|^2 - nu^2)/((1+nu)^2 - |mu|^2) and
    psi = sqrt(D)/I = ((1-nu)^2 - |mu|^2)/(|1-nbar^2 mu|^2 - nu^2), since
    rad = ((1-nu)^2 - |mu|^2)((1+nu)^2 - |mu|^2); their product is the det
    ratio, and the weighted integrand is identically 1, leaving
    sqrt(sup phi / inf psi) <= sup of the distortion.
    """
    return _remark_pair(*_pair_fields(on))


def circle_integrand(on: PairOnCircle, weights: WeightPair) -> PeriodicField:
    """sqrt(psi/phi) times the coefficient integrand, per node."""
    I, _ = _pair_fields(on)
    w = np.sqrt(weights.psi.values.real / weights.phi.values.real)
    return PeriodicField(on.grid, w * I.values, SMOOTH)


def weighted_objective(on, weights: WeightPair) -> float:
    """Node-level objective for explicit weights on one circle restriction.

    Accepts either a coefficient-pair restriction or a matrix restriction;
    extrema and means are taken over the sampled nodes.
    """
    I, D = _matrix_fields(on) if isinstance(on, MatrixOnCircle) else _pair_fields(on)
    phi = weights.phi.values.real
    psi = weights.psi.values.real
    mean = periodic_mean(PeriodicField(on.grid, np.sqrt(psi / phi) * I.values, I.kind))
    prod = D.values / (phi * psi)
    ratio = float(np.min(prod) / np.max(prod))
    return math.sqrt(np.max(phi) / np.min(psi)) * mean / _arctan_term(ratio)
