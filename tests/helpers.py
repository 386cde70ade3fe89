"""Constructors, reductions and references that only the tests need."""

import json
import math

import numpy as np

from beltbound.estimator import _arc_reduce, _matrix_fields
from beltbound.periodic_fields import SMOOTH, TWO_PI, AngularGrid, PeriodicField, wrap_angle
from beltbound.reduction import CoefficientMatrixField
from beltbound.stretching import _cells, _piece_propagator, _piece_rates


def field_from_callable(grid, fn, kind=SMOOTH):
    """The samples of fn at the grid's nodes."""
    return PeriodicField(grid, np.asarray(fn(grid.nodes)), kind)


def identity_matrix():
    """The constant identity matrix field."""
    return CoefficientMatrixField.constant(1.0, 0.0, 0.0, 1.0)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def reference_json(payload) -> str:
    """The CLI's JSON text as it was written before the one-pass writer: a
    plain-Python copy of the payload (complex as [re, im], arrays through
    tolist, numpy scalars through item), then json.dumps(indent=2)."""
    return json.dumps(_jsonable(payload), indent=2)


def node_gap_batch(on):
    """The arc reduction of a matrix restriction with one arc per node gap:
    per-gap integrals of I and extrema of D, so that per-gap weights can be
    scored with _arc_value."""
    I, D = _matrix_fields(on)
    nodes = on.grid.nodes
    grid = AngularGrid(nodes, nodes, np.arange(nodes.size))
    return _arc_reduce(on.circles, *(PeriodicField(grid, f.values, f.kind) for f in (I, D)))


# ---------------------------------------------------------------------------
# reference search step: the propagation as it was before each step became
# one pass (start states times the prefix products, the fundamental matrices
# as a product with the identity, the arg corrections at cell ends and
# starts taken separately), and the four functions built on it


def reference_propagate(a, b, h, starts):
    """States at every cell boundary, shape (cells + 1, 2, B), for the start
    columns starts (2, B); the last entry is Phi(2pi) starts.

    Cell j maps its left state to its right one by its propagator P_j; the
    prefix products P_j ... P_0 come by recursive doubling (log2(cells)
    rounds of batched 2x2 products).
    """
    _, c, p12, p21 = _piece_propagator(a, b, h)
    prefix = np.array([[c, p12], [p21, c]]).transpose(2, 0, 1).copy()
    step = 1
    while step < len(prefix):
        prefix[step:] = prefix[step:] @ prefix[:-step]
        step *= 2
    return np.concatenate([starts[None], prefix @ starts])


def reference_fundamental(cells, alpha: float):
    """Cell widths and rates (alpha/k2, alpha k1) for the cells of _cells,
    and the fundamental matrices at every cell boundary, shape
    (cells + 1, 2, 2); the last one is Phi(2pi)."""
    _, h, av, bv = _piece_rates(cells, alpha)
    return h, av, bv, reference_propagate(av, bv, h, np.eye(2))


def reference_advances(h, av, bv, fund, phis):
    """Phase advances from the start directions phis (1-d); see phase_advance."""
    states = fund @ np.stack([np.cos(phis), np.sin(phis)])
    sa, sb = np.sqrt(av)[:, None], np.sqrt(bv)[:, None]

    def correction(v):
        # |arg v - arg(scaled v)| < pi/2: same quadrant, wrap is safe
        c = np.arctan2(v[:, 1], v[:, 0]) - np.arctan2(sa * v[:, 1], sb * v[:, 0])
        return (c + np.pi) % TWO_PI - np.pi

    turns = np.sum(correction(states[1:]) - correction(states[:-1]), axis=0)
    return np.sqrt(av * bv) @ h + turns


def reference_monodromy(k, alpha):
    return reference_fundamental(_cells(k), alpha)[3][-1]


def reference_phase_advance(k, alpha, phi0):
    phi0 = np.asarray(phi0, dtype=float)
    total = reference_advances(*reference_fundamental(_cells(k), alpha), phi0.reshape(-1))
    return total.reshape(phi0.shape) if phi0.shape else float(total[0])


def reference_advance_extremum(cells, alpha):
    h, av, bv, fund = reference_fundamental(cells, alpha)
    evals, evecs = np.linalg.eigh(fund[-1].T @ fund[-1])
    lam0, lam1 = float(evals[0]), float(evals[1])
    if lam1 - 1.0 < 1e-13 or 1.0 - lam0 < 1e-13:
        phis = np.zeros(1)
    else:
        s2 = (1.0 - lam0) / (lam1 - lam0)
        c = math.sqrt(1.0 - s2)
        s = math.sqrt(s2)
        dirs = np.stack([c * evecs[:, 0] + s * evecs[:, 1],
                         c * evecs[:, 0] - s * evecs[:, 1]])
        phis = np.arctan2(dirs[:, 1], dirs[:, 0])
    vals = reference_advances(h, av, bv, fund, phis)
    return float(np.max(vals)), float(np.min(vals))


def reference_eval_system_solution(k, alpha, initial, thetas):
    lefts, h, av, bv = _piece_rates(_cells(k), alpha)
    v0 = np.asarray(initial, dtype=float).reshape(2, 1)
    anchors = reference_propagate(av, bv, h, v0)[:-1, :, 0]
    t = wrap_angle(np.asarray(thetas, dtype=float))
    cell = np.clip(np.searchsorted(lefts, t + 1e-12, side="right") - 1, 0, lefts.size - 1)
    _, c, p12, p21 = _piece_propagator(av[cell], bv[cell], t - lefts[cell])
    e1 = c * anchors[cell, 0] + p12 * anchors[cell, 1]
    e2 = p21 * anchors[cell, 0] + c * anchors[cell, 1]
    return e1, e2, -alpha / k.k2.eval_at(t) * e2, alpha * k.k1.eval_at(t) * e1
