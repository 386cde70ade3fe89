"""Holder-exponent lower bounds from circle averages.

Every bound here has the same shape: on each circle, a positive integrand I
and a determinant-ratio field D are formed from the coefficients; a weight
pair (phi, psi) scales them into

    value(phi, psi) = sqrt(sup phi / inf psi) * mean(sqrt(psi/phi) * I)
                      / ((4/pi) * arctan( (inf D/(phi psi)) / (sup D/(phi psi)) )^{1/4}),

and the exponent bound is the reciprocal of the sup over circles of the inf
over weights.  The inf runs over a concrete candidate set: the constant
pair, a closed-form pair that collapses the arctan term to 1, and the
piecewise-constant pair aligned to the coefficient arcs that minimises the
value.  In log-weights that minimisation is convex, so it is one
deterministic SLSQP solve of a smooth epigraph form per circle; the value of
the weights it returns is recomputed exactly.  Any candidate set gives a
valid bound; richer sets tighten it.

Weights are reduced to one value per arc (coefficient breakpoints merged
with a uniform subdivision), so the objective needs only per-arc integrals
and extrema of I and D; those are exact for piecewise-constant coefficient
data and trapezoid-accurate for smooth data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    field_extrema,
    merge_breakpoints,
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

_RATIO_FLOOR = 1e-15  # arctan ratio clamp; degenerate constant fields hit 0/0


@dataclass(frozen=True, eq=False)
class WeightPair:
    """Positive weight functions on a circle with recorded extrema."""

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

    def bounds(self):
        return field_extrema(self.phi), field_extrema(self.psi)


@dataclass(frozen=True)
class SweepConfig:
    """Circle sweep and weight-search settings.

    weight_family picks the candidate classes: "constant", "remark",
    "piecewise", or "all".  weight_pieces is the uniform subdivision merged
    into the coefficient arcs for the piecewise class.  Each circle is
    sampled at its own CircleSpec.resolution.
    """

    circles: tuple[CircleSpec, ...]
    weight_pieces: int = 16
    weight_family: str = "all"

    def __post_init__(self):
        if not self.circles:
            raise ValueError("at least one circle is required")
        if self.weight_pieces < 1:
            raise ValueError(f"weight_pieces must be >= 1, got {self.weight_pieces}")
        if self.weight_family not in ("constant", "remark", "piecewise", "all"):
            raise ValueError(f"unknown weight family {self.weight_family!r}")

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
        if self.weight_family == "all":
            return ("constant", "remark", "piecewise")
        return (self.weight_family,)


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
        values = [r["constant_value"] for r in self.per_circle]
        if None in values:
            raise ValueError("the sweep did not evaluate the constant family")
        return _bound_of(max(values))


# ---------------------------------------------------------------------------
# per-circle machinery


@dataclass(frozen=True, eq=False)
class _CircleData:
    """Integrand/det-ratio fields on one circle plus their arc reduction."""

    circle: CircleSpec
    grid: AngularGrid
    integrand: PeriodicField
    det_ratio: PeriodicField
    arc_lefts: np.ndarray
    arc_integrals: np.ndarray  # per-arc integral of I
    arc_dmin: np.ndarray
    arc_dmax: np.ndarray


def _arc_reduce(circle, grid, I: PeriodicField, D: PeriodicField) -> _CircleData:
    lefts = grid.breakpoints
    rights = np.concatenate([lefts[1:], [TWO_PI]])
    n_arcs = lefts.size
    T = np.empty(n_arcs)
    dmin = np.empty(n_arcs)
    dmax = np.empty(n_arcs)
    starts = grid.segment_starts
    ends = np.concatenate([starts[1:], [grid.node_count]])
    iv, dv = I.values.real, D.values
    for j in range(n_arcs):
        sl = slice(starts[j], ends[j])
        if I.kind == PIECEWISE:
            T[j] = iv[starts[j]] * (rights[j] - lefts[j])
        else:
            # closed trapezoid: append the next arc's first node as the
            # right-endpoint sample
            nodes = np.concatenate([grid.nodes[sl], [rights[j]]])
            right_val = iv[ends[j] % grid.node_count]
            vals = np.concatenate([iv[sl], [right_val]])
            T[j] = np.sum(np.diff(nodes) * 0.5 * (vals[:-1] + vals[1:]))
        if D.kind == PIECEWISE:
            dmin[j] = dmax[j] = dv[starts[j]]
        else:
            seg = np.concatenate([dv[sl], [dv[ends[j] % grid.node_count]]])
            dmin[j], dmax[j] = np.min(seg), np.max(seg)
    return _CircleData(circle, grid, I, D, lefts, T, dmin, dmax)


def _arctan_term(ratio: float, power: float = 0.25) -> float:
    r = min(max(ratio, _RATIO_FLOOR), 1.0)
    return (4.0 / math.pi) * math.atan(r**power)


def _arc_value(data: _CircleData, phi: np.ndarray, psi: np.ndarray) -> float:
    """Objective for per-arc constant weights; exact given the arc reduction."""
    num = math.sqrt(np.max(phi) / np.min(psi)) * float(
        np.sum(np.sqrt(psi / phi) * data.arc_integrals)
    ) / TWO_PI
    prod = phi * psi
    ratio = float(np.min(data.arc_dmin / prod) / np.max(data.arc_dmax / prod))
    return num / _arctan_term(ratio)


def _remark_pair(I: PeriodicField, D: PeriodicField) -> WeightPair:
    """Closed-form pair phi = I sqrt(D), psi = sqrt(D)/I.

    Pointwise sqrt(psi/phi) I = 1 and phi psi = D, so the objective collapses
    to sqrt(sup phi / inf psi); no quadrature error enters.
    """
    iv = I.values.real
    sq = np.sqrt(D.values)
    return WeightPair(PeriodicField(I.grid, iv * sq, I.kind),
                      PeriodicField(I.grid, sq / iv, I.kind))


def _epigraph(data: _CircleData):
    """Smooth convex epigraph form of log(_arc_value) in log-weights.

    Variables v = (x, y, a, b, m, M): x = log phi and y = log psi per arc, and
    auxiliaries a >= max x, b <= min y, m <= min(log dmin - x - y),
    M >= max(log dmax - x - y), written as G v + h >= 0.  The objective

        (a - b)/2 + log(sum T exp((y - x)/2) / 2pi) - log((4/pi) arctan(e^{(m-M)/4}))

    is convex (a log-sum-exp plus a convex decreasing function of m - M) and
    equals log(_arc_value) wherever the auxiliaries are tight.
    """
    n = data.arc_lefts.size
    log_t = np.log(data.arc_integrals)
    log_dmin, log_dmax = np.log(data.arc_dmin), np.log(data.arc_dmax)
    eye, zero = np.eye(n), np.zeros((n, n))
    one, nil = np.ones((n, 1)), np.zeros((n, 1))
    G = np.block([
        [-eye, zero, one, nil, nil, nil],  # a - x_j
        [zero, eye, nil, -one, nil, nil],  # y_j - b
        [-eye, -eye, nil, nil, -one, nil],  # log dmin_j - x_j - y_j - m
        [eye, eye, nil, nil, nil, one],  # M - log dmax_j + x_j + y_j
    ])
    h = np.concatenate([np.zeros(2 * n), log_dmin, -log_dmax])
    const = math.log(TWO_PI * 4.0 / math.pi)

    def objective(v):
        x, y = v[:n], v[n:2 * n]
        a, b, m, M = v[2 * n:]
        z = log_t + 0.5 * (y - x)
        zmax = float(np.max(z))
        e = np.exp(z - zmax)
        total = float(np.sum(e))
        # m - M <= 0 on the feasible set; the clamp only guards exp overflow
        s = min(m - M, 0.0)
        u = math.exp(0.25 * s)
        h_u = math.atan(u) / u if u > 1e-8 else 1.0  # arctan(u)/u, -> 1 as u -> 0
        val = 0.5 * (a - b) + zmax + math.log(total) - const - 0.25 * s - math.log(h_u)
        grad = np.empty_like(v)
        w = e / total
        grad[:n] = -0.5 * w
        grad[n:2 * n] = 0.5 * w
        dg = -0.25 / (h_u * (1.0 + u * u))
        grad[2 * n:] = (0.5, -0.5, dg, -dg)
        return val, grad

    start = np.concatenate([np.zeros(2 * n + 2), [np.min(log_dmin), np.max(log_dmax)]])
    return objective, G, h, start


def _solve_weights(data: _CircleData):
    """One SLSQP solve of the per-arc weight problem from the constant pair.

    The reported value is always the exact _arc_value of the returned
    weights; the solver's own objective only steers.  When the solve does not
    beat the constant start, the start is kept.  Returns the value, the
    weights, the objective+gradient call count, the SLSQP exit status and the
    optimality residual |epigraph objective - log value| at the returned point.
    """
    n = data.arc_lefts.size
    objective, G, h, v0 = _epigraph(data)
    evals = 0

    def counted(v):
        nonlocal evals
        evals += 1
        return objective(v)

    res = minimize(
        counted, v0, jac=True, method="SLSQP",
        constraints={"type": "ineq", "fun": lambda v: G @ v + h, "jac": lambda v: G},
        # at the default ftol (1e-6) SLSQP stops up to ~1e-8 above the minimum
        options={"maxiter": 500, "ftol": 1e-14},
    )
    ones = np.ones(n)
    best_v, best_val = v0, _arc_value(data, ones, ones)
    val = _arc_value(data, np.exp(res.x[:n]), np.exp(res.x[n:2 * n]))
    if val < best_val:  # False for a NaN value too
        best_v, best_val = res.x, val
    residual = abs(float(objective(best_v)[0]) - math.log(best_val))
    phi, psi = np.exp(best_v[:n]), np.exp(best_v[n:2 * n])
    return best_val, phi, psi, evals, int(res.status), residual


def _piecewise_pair(data: _CircleData, phi: np.ndarray, psi: np.ndarray) -> WeightPair:
    return WeightPair(
        PeriodicField.piecewise(data.grid, phi), PeriodicField.piecewise(data.grid, psi)
    )


def _evaluate_circle(data: _CircleData, cfg: SweepConfig) -> dict:
    candidates = []
    fams = cfg.families()
    if "constant" in fams:
        ones = np.ones(data.arc_lefts.size)
        candidates.append(
            ("constant", _arc_value(data, ones, ones), lambda: WeightPair.constant(data.grid))
        )
    if "remark" in fams:
        w = _remark_pair(data.integrand, data.det_ratio)
        value = math.sqrt(float(np.max(w.phi.values)) / float(np.min(w.psi.values)))
        candidates.append(("remark", value, lambda: w))
    evals, status, residual = 0, None, None
    if "piecewise" in fams:
        v, phi, psi, evals, status, residual = _solve_weights(data)
        candidates.append(("piecewise", v, lambda: _piecewise_pair(data, phi, psi)))
    name, val, make = min(candidates, key=lambda c: c[1])
    return {
        "circle": data.circle,
        "value": val,
        "family": name,
        "weights": make(),
        "evaluations": evals,
        "solver_status": status,
        "optimality_residual": residual,
        "all_values": {c[0]: c[1] for c in candidates},
    }


def _bound_of(sup_value: float) -> float:
    # a Holder exponent never exceeds 1; values below 1 only arise when the
    # sweep omits the small near-constant circles that realize 1
    return min(1.0, 1.0 / sup_value)


def _assemble(records, cfg: SweepConfig) -> ExponentReport:
    sup_rec = max(records, key=lambda r: r["value"])
    sup_value = sup_rec["value"]
    certified = max(r["all_values"].get("remark", math.nan) for r in records)
    return ExponentReport(
        bound=_bound_of(sup_value),
        sup_value=sup_value,
        attaining_circle=sup_rec["circle"],
        attaining_weights=sup_rec["weights"],
        per_circle=tuple(
            {
                "center": r["circle"].center,
                "radius": r["circle"].radius,
                "value": r["value"],
                "family": r["family"],
                "evaluations": r["evaluations"],
                "solver_status": r["solver_status"],
                "optimality_residual": r["optimality_residual"],
                "constant_value": r["all_values"].get("constant"),
            }
            for r in records
        ),
        certified_value=certified,
        config=cfg,
    )


def _uniform_boundaries(p: int) -> np.ndarray:
    return TWO_PI * np.arange(p) / p


# ---------------------------------------------------------------------------
# restrictions to (integrand, det-ratio) fields


def _joint_kind(*fields) -> str:
    return PIECEWISE if all(f.kind == PIECEWISE for f in fields) else SMOOTH


def _pair_fields(on: PairOnCircle):
    """(I, D) of a pair restriction: I = (|1-nbar^2 mu|^2 - nu^2)/sqrt(rad) with
    rad = (1-(|mu|+nu)^2)(1-(|mu|-nu)^2), D = ((1-nu)^2-|mu|^2)/((1+nu)^2-|mu|^2)."""
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


def _beta_fields(pair: BeltramiPair, circle: CircleSpec, cfg: SweepConfig):
    on = pair.on_circle(circle, _uniform_boundaries(cfg.weight_pieces))
    return (on.grid, *_pair_fields(on))


def _gamma_fields(m: CoefficientMatrixField, circle: CircleSpec, cfg: SweepConfig):
    on = m.on_circle(circle, _uniform_boundaries(cfg.weight_pieces))
    return (on.grid, *_matrix_fields(on))


def _sweep(fields_of: Callable, cfg: SweepConfig) -> ExponentReport:
    records = []
    for circle in cfg.circles:
        grid, I, D = fields_of(circle)
        records.append(_evaluate_circle(_arc_reduce(circle, grid, I, D), cfg))
    return _assemble(records, cfg)


# ---------------------------------------------------------------------------
# public bounds


def beta_estimate(pair: BeltramiPair, cfg: SweepConfig) -> ExponentReport:
    """Exponent lower bound for a coefficient pair with real nu."""
    if not pair.real_nu:
        raise ValueError("estimation requires real nu")
    return _sweep(lambda c: _beta_fields(pair, c, cfg), cfg)


def gamma_estimate(m: CoefficientMatrixField, cfg: SweepConfig) -> ExponentReport:
    """Exponent lower bound for a symmetric elliptic matrix field."""
    if not m.symmetric:
        raise ValueError("estimation requires a symmetric matrix field")
    return _sweep(lambda c: _gamma_fields(m, c, cfg), cfg)


def corollary_bound(pair: BeltramiPair, cfg: SweepConfig) -> float:
    """The unit-weights bound: same sweep, constant pair only."""
    return beta_estimate(pair, replace(cfg, weight_family="constant")).bound


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
    """Simplified bound for mu = 0, taken literally as a sup over circles of
    (4/pi) arctan of the square root of the (1-nu)/(1+nu) spread.

    A circle on which nu is constant contributes 1, so sweeps mixing circle
    geometries report the most optimistic circle; origin-centered sweeps on
    angular data reproduce the spread of the full field.
    """
    best = 0.0
    for circle in cfg.circles:
        on = pair.on_circle(circle)
        if np.max(np.abs(on.mu.values)) > 1e-14:
            raise ValueError("mu_zero_bound requires mu = 0")
        nu = on.nu.values.real
        g = (1.0 - nu) / (1.0 + nu)
        ratio = float(np.min(g) / np.max(g))
        best = max(best, _arctan_term(ratio, power=0.5))
    return best


def classical_bound(pair: BeltramiPair) -> float:
    """Reciprocal of the distortion sup (1+|mu|+|nu|)/(1-|mu|-|nu|)."""
    return (1.0 - pair.kappa) / (1.0 + pair.kappa)


def remark_weights(on: PairOnCircle) -> WeightPair:
    """Closed-form weight pair making the arctan term exactly 1.

    phi = I sqrt(D) = (|1-nbar^2 mu|^2 - nu^2)/((1+nu)^2 - |mu|^2) and
    psi = sqrt(D)/I = ((1-nu)^2 - |mu|^2)/(|1-nbar^2 mu|^2 - nu^2), since
    rad = ((1-nu)^2 - |mu|^2)((1+nu)^2 - |mu|^2); their product is the det
    ratio, and the weighted integrand is identically 1, leaving
    sqrt(sup phi / inf psi) <= sup of the distortion.
    """
    if not on.real_nu:
        raise ValueError("remark weights require real nu")
    return _remark_pair(*_pair_fields(on))


def circle_integrand(on: PairOnCircle, weights: WeightPair) -> PeriodicField:
    """sqrt(psi/phi) times the coefficient integrand, per node."""
    if not on.real_nu:
        raise ValueError("the integrand is defined for real nu")
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
