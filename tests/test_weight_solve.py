"""The window solve of the per-arc weight problem against the solvers it
replaced, and the arc reduction against the loop it replaced.

Four references live here.  `descend` is the randomised multistart
coordinate descent in log-weights that the estimator used first;
`slsqp_reference` is the SLSQP solve of a smooth epigraph form that followed
it; `grid_solve` is the exact window solve that scored candidates in every
cell of the grid of distinct dmax and dmin lines, which the staircase walk
replaced; `arc_reduce_loop` is the per-arc loop, one branch per field kind,
that the gap reduction replaced.  On a fixed corpus (criterion 6's generator
plus two disk-lattice sweeps, whose off-centre circles carry smooth
restrictions) and on random arc sets the window solve must never return a
larger per-circle value than any of them, must agree with `grid_solve` to
1e-12, and its closed-form value must be tight at the weights it returns.

The estimator works on batches of circles that share a grid; the helpers
below hand it batches of one circle and unpack that circle's row, and the
batch tests check that a circle's row does not depend on its batch.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from test_acceptance import random_angular_pair
from test_estimator import criterion_6_pairs

from beltbound import estimator
from beltbound.estimator import (
    _FAMILIES,
    _NEWTON_STEPS,
    _TIE,
    SweepConfig,
    _arc_reduce,
    _arc_value,
    _CircleBatch,
    _matrix_fields,
    _reduced,
    _remark_weights,
    _solve_weights,
    beta_estimate,
    gamma_estimate,
)
from beltbound.periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    AngularGrid,
    CircleSpec,
    PeriodicField,
)
from beltbound.reduction import BeltramiPair, beltrami_to_matrices
from beltbound.sharp_family import build_family

STATUSES = {"interior", "edge", "vertex", "boundary", "constant"}


def descend(data, rng, multistarts=8, sweeps=40):
    """Coordinate descent in log-weights, multiplicative steps, multistarts.

    The starts run in lockstep, one row each, and each trial step is one
    batched _arc_value call.  Every row keeps its own accept/reject path and
    step size, and a row's values do not depend on its batch, so each row
    runs as its start would alone."""
    n = data.arc_integrals.size
    x = np.array([np.zeros(2 * n)] + [rng.normal(0.0, 0.35, 2 * n)
                                      for _ in range(max(0, multistarts - 1))])

    def value_of(x):
        return _arc_value(data, np.exp(x[:, :n]), np.exp(x[:, n:]))

    v = value_of(x)
    step = np.full(len(x), 0.7)
    live = np.ones(len(x), dtype=bool)
    for _ in range(sweeps):
        improved = np.zeros(len(x), dtype=bool)
        for i in range(2 * n):
            todo = live.copy()  # rows still trying coordinate i
            for sgn in (1.0, -1.0):
                if not todo.any():
                    break
                trial_x = x.copy()
                trial_x[:, i] += sgn * step
                trial = value_of(trial_x)
                accept = todo & (trial < v)
                x[accept, i], v[accept] = trial_x[accept, i], trial[accept]
                improved |= accept
                todo &= ~accept
                x[todo, i] = trial_x[todo, i] - sgn * step[todo]  # undone as a lone run would
        stalled = live & ~improved
        step[stalled] *= 0.5
        live &= ~(stalled & (step < 1e-7))
        if not live.any():
            break
    best_val, best_x = math.inf, np.zeros(2 * n)
    for row_v, row_x in zip(v.tolist(), x):
        if row_v < best_val:
            best_val, best_x = row_v, row_x
    return best_val, np.exp(best_x[:n]), np.exp(best_x[n:])


def epigraph(data):
    """Smooth convex epigraph form of log(_arc_value) in log-weights.

    Variables v = (x, y, a, b, m, M): x = log phi and y = log psi per arc, and
    auxiliaries a >= max x, b <= min y, m <= min(log dmin - x - y),
    M >= max(log dmax - x - y), written as G v + h >= 0.  The objective

        (a - b)/2 + log(sum T exp((y - x)/2) / 2pi) - log((4/pi) arctan(e^{(m-M)/4}))

    is convex (a log-sum-exp plus a convex decreasing function of m - M) and
    equals log(_arc_value) wherever the auxiliaries are tight.
    """
    n = data.arc_integrals.size
    log_t = np.log(data.arc_integrals[0])
    log_dmin, log_dmax = np.log(data.arc_dmin[0]), np.log(data.arc_dmax[0])
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


def slsqp_reference(data):
    """One SLSQP solve of the epigraph form from the constant pair.

    The value is the exact _arc_value of the returned weights, or of the
    constant start when the solve does not beat it.  Returns the value and
    the weights.
    """
    n = data.arc_integrals.size
    objective, G, h, v0 = epigraph(data)
    res = minimize(
        objective, v0, jac=True, method="SLSQP",
        constraints={"type": "ineq", "fun": lambda v: G @ v + h, "jac": lambda v: G},
        # at the default ftol (1e-6) SLSQP stops up to ~1e-8 above the minimum
        options={"maxiter": 500, "ftol": 1e-14},
    )
    ones = np.ones(n)
    best = (arc_value(data, ones, ones), ones, ones)
    phi, psi = np.exp(res.x[:n]), np.exp(res.x[n:2 * n])
    val = arc_value(data, phi, psi)
    if val < best[0]:  # False for a NaN value too
        best = (val, phi, psi)
    return best


def _keys(rows, values):
    """Complex keys rows + i values, which numpy orders by row, then value."""
    keys = np.empty(np.broadcast_shapes(np.shape(rows), np.shape(values)), dtype=complex)
    keys.real, keys.imag = rows, values
    return keys


_BLOCK = 1 << 14  # grid cells per block, across circles
# candidate kinds: edge of fixed X, edge of fixed Y, cell; X = scale * w**power
_EDGE = np.array([True, True, False])[:, None, None, None]
_X_POWER = np.array([0.0, 2.0, 1.0])[:, None, None, None]


def grid_solve(data, unit):
    """The window solve over the whole grid of distinct dmax and dmin lines,
    with _solve_weights' signature and returns (evaluations: 3 nX nY).

    In X = M^{-1/2}, Y = m^{1/2} (w^2 = XY) the sorted dmax and dmin cut the
    windows into cells on which the numerator is N = C + A1 X + B1 Y.  A
    cell's stationary point solves h(w) = (1 + w^2) arctan w - w =
    C/(2 sqrt(A1 B1)) at X = w sqrt(B1/A1), clipped to the cell and to
    w <= w0; along a grid line of fixed X, F falls while e(w) =
    2w(1 + w^2) arctan w - w^2 < (N - B1 Y) X/B1 (fixed Y likewise), so the
    root clipped to an edge's feasible part is its minimum.  One batched
    Newton solve per block of grid rows of all circles (padded to the most
    lines) gives these feasible windows; each is scored with the exact F
    through a lookup of the cell it lies in, ties going to the first in
    (kind, row, column) order.
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

def arc_reduce_loop(data):
    """Per-arc integral of I and extrema of D on a batch of one circle, one
    arc and one kind branch at a time: piecewise data take the left value
    times the arc length, smooth data a closed trapezoid through the next
    arc's first node."""
    I, D = (PeriodicField(f.grid, f.values[0], f.kind) for f in (data.integrand, data.det_ratio))
    grid = I.grid
    lefts = grid.breakpoints
    rights = np.concatenate([lefts[1:], [TWO_PI]])
    starts = grid.segment_starts
    ends = np.concatenate([starts[1:], [grid.node_count]])
    iv, dv = I.values.real, D.values
    T, dmin, dmax = (np.empty(lefts.size) for _ in range(3))
    for j in range(lefts.size):
        sl = slice(starts[j], ends[j])
        if I.kind == PIECEWISE:
            T[j] = iv[starts[j]] * (rights[j] - lefts[j])
        else:
            nodes = np.concatenate([grid.nodes[sl], [rights[j]]])
            vals = np.concatenate([iv[sl], [iv[ends[j] % grid.node_count]]])
            T[j] = np.sum(np.diff(nodes) * 0.5 * (vals[:-1] + vals[1:]))
        if D.kind == PIECEWISE:
            dmin[j] = dmax[j] = dv[starts[j]]
        else:
            seg = np.concatenate([dv[sl], [dv[ends[j] % grid.node_count]]])
            dmin[j], dmax[j] = np.min(seg), np.max(seg)
    return T, dmin, dmax


def arcs(T, dmin, dmax):
    """A batch of one circle with the given arc reduction and no samples."""
    row = (np.asarray(v, dtype=float)[None, :] for v in (T, dmin, dmax))
    return _CircleBatch((None,), None, None, *row)


def arc_value(data, phi, psi):
    """_arc_value of one circle's weights on a batch of one."""
    return float(_arc_value(data, phi, psi)[0])


def solve(data):
    """_solve_weights on a batch of one, unpacked to the circle's row:
    value, phi, psi, candidate count, status, residual."""
    value, phi, psi, evals, where, residual, _ = _solve_weights(data)
    return float(value[0]), phi[0], psi[0], int(evals[0]), str(where[0]), float(residual[0])


def unit_value(data):
    """The unit pair's value on a batch of one, as _solve_weights scores it."""
    return float(_solve_weights(data)[-1][0])


def _reduced_circles(pair, cfg):
    """A batch of one per sweep circle, in sweep order."""
    return [next(_reduced(pair, replace(cfg, circles=(c,))))[1] for c in cfg.circles]


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(6)  # criterion 6's stream
    origin = SweepConfig.origin(resolution=256, weight_pieces=8)
    circles = []
    for _ in range(16):
        circles += _reduced_circles(random_angular_pair(rng), origin)
    lattice = SweepConfig.disk_lattice(radius_count=1, resolution=256, weight_pieces=4)
    for seed in (1, 2):
        pair = random_angular_pair(np.random.default_rng(seed), node_count=256)
        circles += _reduced_circles(pair, lattice)
    kinds = {d.integrand.kind for d in circles}
    assert kinds == {PIECEWISE, SMOOTH}
    return [(d, solve(d)) for d in circles]


def test_solve_never_looser_than_descent(corpus):
    for idx, (data, (value, phi, psi, *_)) in enumerate(corpus):
        reference, _, _ = descend(data, np.random.default_rng(1009 * idx))
        assert value <= reference * (1.0 + 1e-12), (idx, value, reference)
        # the reported value is the exact objective of the returned weights
        assert value == arc_value(data, phi, psi)


def test_solve_never_looser_than_slsqp(corpus):
    for idx, (data, (value, *_)) in enumerate(corpus):
        reference = slsqp_reference(data)[0]
        assert value <= reference * (1.0 + 1e-12), (idx, value, reference)


def test_window_value_tight_at_returned_weights(corpus):
    # the closed-form value at the best window is the exact value of its weights
    for idx, (_, (_, _, _, evals, status, residual)) in enumerate(corpus):
        assert residual < 1e-12, (idx, residual)
        assert status in STATUSES
        assert isinstance(evals, int) and evals >= 3


@pytest.mark.parametrize("T, dmin, dmax", [
    ([1, 1], [4, 2], [16, 4]),
    ([1, 1], [2, 3], [4, 12]),
    ([1, 1, 2], [2, 2, 4], [8, 4, 16]),
])
def test_clipped_cell_root_reports_its_grid_vertex(T, dmin, dmax):
    # the best window is the corner (max dmax, min dmin); a cell's stationary
    # point clipped onto that corner wins here by rounding, and is reported
    # where it lies, not as the interior of its cell.  With the unit pair
    # unable to win (any window beats it by the tie margin) the window's own
    # label shows; against the true margin the window ties the unit pair to
    # rounding, and the unit pair is kept
    data = arcs(T, dmin, dmax)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_TIE", -math.inf)
        value, phi, psi, _, status, _, unit = (v[0] for v in _solve_weights(data))
    assert status == "vertex"
    assert np.allclose(phi, 1.0, rtol=0.0, atol=1e-12) and np.allclose(psi, 1.0, rtol=0.0, atol=1e-12)
    assert value == pytest.approx(unit, rel=1e-14, abs=0.0)
    assert unit == unit_value(data)
    assert solve(data)[4] == "constant"


def test_tiny_window_ratio_scored_exactly():
    # min dmin / max dmax = 1e-23: the unit pair's arctan term is taken at
    # the true ratio, not raised to a floor, so the window beats it
    data = arcs([1, 1, 1], [1e-20, 1, 1e3], [1e-20, 1, 1e3])
    value, phi, psi, _, status, residual = solve(data)
    assert status == "edge"
    assert value == pytest.approx(142790.88003229036, rel=1e-12)
    assert value < unit_value(data)
    assert value == arc_value(data, phi, psi)
    assert residual < 1e-12


def test_gap_reduction_matches_arc_loop(corpus):
    # the corpus holds piecewise (origin) and smooth (off-centre) circles
    for idx, (data, _) in enumerate(corpus):
        T, dmin, dmax = arc_reduce_loop(data)
        assert np.max(np.abs(data.arc_integrals[0] - T) / T) <= 1e-14, idx
        assert np.array_equal(data.arc_dmin[0], dmin) and np.array_equal(data.arc_dmax[0], dmax), idx


def test_gap_reduction_matches_arc_loop_on_smooth_origin_data():
    grid = AngularGrid.uniform(512)
    th = grid.nodes
    pair = BeltramiPair.from_angular(PeriodicField(grid, 0.45 * np.sin(th) ** 2, SMOOTH),
                                     PeriodicField(grid, 0.35 * np.cos(3 * th), SMOOTH))
    for pieces in (1, 7, 64):
        data = _reduced_circles(pair, SweepConfig.origin(resolution=512, weight_pieces=pieces))[0]
        assert data.integrand.kind == SMOOTH
        T, dmin, dmax = arc_reduce_loop(data)
        assert np.max(np.abs(data.arc_integrals[0] - T) / T) <= 1e-14, pieces
        assert np.array_equal(data.arc_dmin[0], dmin) and np.array_equal(data.arc_dmax[0], dmax)


arc_rows = st.tuples(
    st.floats(0.01, 10.0),  # T
    st.floats(-3.0, 3.0),  # log dmin
    st.sampled_from([0.0, 0.01, 0.3, 3.0]),  # spread scale; 0 gives dmin = dmax
    st.floats(0.0, 1.0),
)
arc_sets = st.lists(arc_rows, min_size=1, max_size=40)
# 2 to 8 circles of one arc count, as the circles of one grid are
arc_batches = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.lists(arc_rows, min_size=n, max_size=n), min_size=2, max_size=8))


def _columns(rows):
    """(T, dmin, dmax) of arc_sets rows."""
    T, log_lo, scale, frac = (np.array(col) for col in zip(*rows))
    dmin = np.exp(log_lo)
    return T, dmin, dmin * np.exp(scale * frac)


def assert_matches_grid(data):
    """The solve of a batch against grid_solve: per circle the same value to
    1e-12 relative either way, the exact value of its weights, and 4n - 1
    staircase pieces scored; the unit values it returns are bitwise those of
    _arc_value on the unit pair alone."""
    value, phi, psi, evals, *_, unit = _solve_weights(data)
    ones = np.ones(data.arc_integrals.shape[1])
    assert np.array_equal(unit, _arc_value(data, ones, ones))
    reference = grid_solve(data, unit)[0]
    assert np.all(np.abs(value - reference) <= 1e-12 * reference), (value, reference)
    assert np.array_equal(value, _arc_value(data, phi, psi))
    assert np.all(evals == 4 * data.arc_integrals.shape[1] - 1)


@settings(max_examples=60, deadline=None)
@given(rows=arc_sets, c=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_window_solve_properties(rows, c, seed):
    T, dmin, dmax = _columns(rows)
    data = arcs(T, dmin, dmax)
    assert_matches_grid(data)
    value, phi, psi, *_ = solve(data)
    assert value == arc_value(data, phi, psi)
    assert value <= slsqp_reference(data)[0] * (1.0 + 1e-12)
    scaled = solve(arcs(T, c * dmin, c * dmax))[0]
    assert scaled == pytest.approx(value, rel=1e-12, abs=0.0)
    perm = np.random.default_rng(seed).permutation(T.size)
    permuted = solve(arcs(T[perm], dmin[perm], dmax[perm]))[0]
    assert permuted == pytest.approx(value, rel=1e-12, abs=0.0)



def test_solve_matches_grid_solve_on_corpus(corpus):
    for data, _ in corpus:
        assert_matches_grid(data)


@settings(max_examples=40, deadline=None)
@given(batch=arc_batches)
def test_batch_rows_equal_one_circle_solves(batch):
    T, dmin, dmax = (np.array(col) for col in zip(*map(_columns, batch)))
    data = _CircleBatch((None,) * len(batch), None, None, T, dmin, dmax)
    assert_matches_grid(data)
    rows = _solve_weights(data)
    for r in range(len(batch)):
        one = arcs(T[r], dmin[r], dmax[r])
        for got, alone in zip(rows, _solve_weights(one)):
            assert np.array_equal(got[r], alone[0]), r


@pytest.mark.parametrize("T, dmin, dmax", [
    ([1, 2, 3], [1, 4, 9], [1, 4, 9]),  # dmin = dmax
    ([1, 2, 1, 3], [1, 1, 2, 2], [3, 3, 5, 5]),  # repeated lines on both sides
    ([1, 1, 1, 1], [2, 2, 2, 2], [2, 2, 2, 2]),  # one line per side, D constant
    ([2], [1], [3]),  # a single arc
    ([1, 1, 1], [1e-20, 1, 1e3], [1e-20, 1, 1e3]),  # min dmin / max dmax = 1e-23
    ([1, 2, 1], [1e-20, 1, 1e2], [1e-19, 3, 1e3]),  # the same with spreads
])
def test_solve_matches_grid_solve_on_degenerate_sets(T, dmin, dmax):
    assert_matches_grid(arcs(T, dmin, dmax))

def assert_weight_arcs_change_nothing(pair, resolution):
    """The sweep's origin row, reduced on the coefficient arcs alone, scores
    what a batch with 1, 4, 16 or 64 weight arcs merged into them scores
    (restricted, reduced and solved here explicitly), to 1e-12."""
    row, = beta_estimate(pair, SweepConfig.origin(resolution=resolution)).per_circle
    assert row["arcs"] == pair.k.grid.breakpoints.size
    circles = (CircleSpec(0.0, 0.5, resolution=resolution),)
    for p in (1, 4, 16, 64):
        on = pair.on_circles(circles, TWO_PI * np.arange(p) / p)
        data = _arc_reduce(on.circles, *_matrix_fields(on))
        assert data.arc_dmin.shape[-1] >= row["arcs"] + (p > 4)
        value = _solve_weights(data)[0][0]
        assert abs(value - row["value"]) <= 1e-12 * row["value"], (p, value, row["value"])


def test_weight_pieces_change_nothing_on_piecewise_data():
    # the optimal weights are constant on each coefficient arc: its sub-arcs
    # share dmin = dmax, so every clip window gives them one weight, and
    # subdividing the arcs further leaves every per-circle minimum where it was
    rng = np.random.default_rng(6)  # criterion 6's stream
    for _ in range(12):
        assert_weight_arcs_change_nothing(random_angular_pair(rng, node_count=1024), 1024)


@settings(max_examples=40, deadline=None)
@given(pair=st.one_of(
    criterion_6_pairs(node_count=512),
    st.builds(lambda M, tau: build_family(M, tau, node_count=512).pair(),
              st.floats(1.5, 4.0), st.floats(0.0, 1.0))))
def test_weight_arcs_change_nothing_on_random_piecewise_pairs(pair):
    assert_weight_arcs_change_nothing(pair, 512)


def test_thousand_arc_circle_memory():
    # wall time depends on the machine; it is measured, not asserted
    nodes, pieces = 4096, 1024
    grid = AngularGrid.uniform(nodes)
    th = grid.nodes
    pair = BeltramiPair.from_angular(PeriodicField(grid, 0.45 * np.sin(th) ** 2, SMOOTH),
                                     PeriodicField(grid, 0.35 * np.cos(3 * th), SMOOTH))
    cfg = SweepConfig.origin(resolution=nodes, weight_pieces=pieces)
    data = _reduced_circles(pair, cfg)[0]
    assert data.arc_integrals.size == pieces
    tracemalloc.start()
    try:
        value, phi, psi, *_ = solve(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert value == _arc_value(data, phi, psi)


def test_thousand_arc_sweep_memory():
    # the bound above holds for a batch of 8 such circles, each solved on its
    # own 4n - 1 staircase pieces
    nodes, pieces = 4096, 1024
    grid = AngularGrid.uniform(nodes)
    th = grid.nodes
    pair = BeltramiPair.from_angular(PeriodicField(grid, 0.45 * np.sin(th) ** 2, SMOOTH),
                                     PeriodicField(grid, 0.35 * np.cos(3 * th), SMOOTH))
    circles = tuple(CircleSpec(0.05 * np.exp(0.8j * k), 0.5, resolution=nodes) for k in range(8))
    (_, data), = _reduced(pair, SweepConfig(circles=circles, weight_pieces=pieces))
    assert data.arc_integrals.shape == (8, pieces)
    tracemalloc.start()
    try:
        value, phi, psi, *_ = _solve_weights(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.array_equal(value, _arc_value(data, phi, psi))


def _random_circles(rng, count):
    """An origin circle and off-centre circles, at two resolutions."""
    circles = [CircleSpec(0.0, float(rng.uniform(0.2, 0.9)), resolution=128)]
    for _ in range(count):
        center = complex(rng.uniform(0.05, 0.6) * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        circles.append(CircleSpec(center, float(rng.uniform(0.05, 0.95) * abs(center)),
                                  resolution=int(rng.choice([128, 192]))))
    rng.shuffle(circles)
    return tuple(circles)


def _callable_pair():
    return BeltramiPair.from_callables(lambda z: (0.3 * np.exp(1j * z.real) * np.abs(z),
                                                  0.2 * np.cos(3.0 * z.imag) + 0j))


def test_sweep_rows_do_not_depend_on_the_batch():
    # a circle's row is bitwise the row of its one-circle sweep, whatever
    # circles share its batch and in whatever order they come
    rng = np.random.default_rng(8)
    for trial in range(9):
        pair = random_angular_pair(rng, node_count=256) if trial % 3 else _callable_pair()
        cfg = SweepConfig(circles=_random_circles(rng, int(rng.integers(2, 9))),
                          weight_pieces=int(rng.integers(1, 9)))
        if trial % 3 == 2:
            B = beltrami_to_matrices(pair).B
            sweep = lambda c: gamma_estimate(B, c)  # noqa: E731
        else:
            sweep = lambda c: beta_estimate(pair, c)  # noqa: E731
        rows = sweep(cfg).per_circle
        for circle, row in zip(cfg.circles, rows):
            assert row == sweep(replace(cfg, circles=(circle,))).per_circle[0], (trial, circle)


def test_sweep_report_does_not_depend_on_the_pass_size(monkeypatch):
    # a grid split into passes of one to a few circles gives the report of
    # one pass; at these seeds an off-centre circle attains the bound with
    # remark (4) and piecewise (32) weights, which come from its pass's rows
    cfg = SweepConfig.disk_lattice(radius_count=2, resolution=128, weight_pieces=4)
    for seed in (4, 32):
        pair = random_angular_pair(np.random.default_rng(seed), node_count=256)
        whole = beta_estimate(pair, cfg)
        for points in (1, 128, 3 * 128):
            monkeypatch.setattr(estimator, "_PASS_POINTS", points)
            split = beta_estimate(pair, cfg)
            monkeypatch.undo()
            assert split.per_circle == whole.per_circle, (seed, points)
            assert split.attaining_circle == whole.attaining_circle
            a, b = split.attaining_weights, whole.attaining_weights
            assert np.array_equal(a.phi.values, b.phi.values)
            assert np.array_equal(a.psi.values, b.psi.values)


def _family(unit, remark, window):
    return _FAMILIES[int(np.argmin([unit, remark, window]))]


def test_arc_order_changes_no_label(corpus):
    # summing T in another order moves values by ulps; a window that ties
    # the unit pair to rounding stays the unit pair, so no label flips.  The
    # corpus plus lattice circles with one or two weight arcs, where windows
    # at the unit pair's corner are common
    lattice = SweepConfig.disk_lattice(radius_count=2, resolution=256, weight_pieces=2)
    rng = np.random.default_rng(15)
    circles = [d for d, _ in corpus]
    for _ in range(4):
        circles += _reduced_circles(random_angular_pair(rng, node_count=256), lattice)
    for idx, data in enumerate(circles):
        rphi, rpsi = _remark_weights(data.integrand, data.det_ratio)
        remark = math.sqrt(rphi.max() / rpsi.min())
        perm = rng.permutation(data.arc_integrals.shape[1])
        labels = []
        for d in (data, arcs(*(a[0, perm] for a in (data.arc_integrals, data.arc_dmin,
                                                      data.arc_dmax)))):
            value, *_, status, _ = solve(d)
            labels.append((_family(unit_value(d), remark, value), status, value))
        (fam, status, value), (pfam, pstatus, pvalue) = labels
        assert (pfam, pstatus) == (fam, status), idx
        assert abs(pvalue - value) <= 1e-15 * value, idx
