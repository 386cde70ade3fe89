"""The window solve of the per-arc weight problem against the solvers it
replaced, and the arc reduction against the loop it replaced.

Three references live here.  `descend` is the randomised multistart
coordinate descent in log-weights that the estimator used first;
`slsqp_reference` is the SLSQP solve of a smooth epigraph form that followed
it; `arc_reduce_loop` is the per-arc loop, one branch per field kind, that
the gap reduction replaced.  On a fixed
corpus (criterion 6's generator plus two disk-lattice sweeps, whose
off-centre circles carry smooth restrictions) and on random arc sets the
window solve must never return a larger per-circle value than either, and
its closed-form value must be tight at the weights it returns.

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

from beltbound import estimator
from beltbound.estimator import (
    _FAMILIES,
    SweepConfig,
    _arc_value,
    _CircleBatch,
    _pair_fields,
    _reduced,
    _remark_weights,
    _solve_weights,
    _unit_value,
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

STATUSES = {"interior", "edge", "vertex", "boundary", "constant"}


def descend(data, rng, multistarts=8, sweeps=40):
    """Coordinate descent in log-weights, multiplicative steps, multistarts."""
    n = data.arc_integrals.size
    best_val = math.inf
    best_x = np.zeros(2 * n)

    def value_of(x):
        return arc_value(data, np.exp(x[:n]), np.exp(x[n:]))

    starts = [np.zeros(2 * n)]
    for _ in range(max(0, multistarts - 1)):
        starts.append(rng.normal(0.0, 0.35, 2 * n))
    for x in starts:
        x = x.copy()
        v = value_of(x)
        step = 0.7
        for _ in range(sweeps):
            improved = False
            for i in range(2 * n):
                for sgn in (1.0, -1.0):
                    x[i] += sgn * step
                    trial = value_of(x)
                    if trial < v:
                        v = trial
                        improved = True
                        break
                    x[i] -= sgn * step
            if not improved:
                step *= 0.5
                if step < 1e-7:
                    break
        if v < best_val:
            best_val, best_x = v, x
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
    value, phi, psi, evals, where, residual = _solve_weights(data, _unit_value(data))
    return float(value[0]), phi[0], psi[0], int(evals[0]), str(where[0]), float(residual[0])


def _reduced_circles(pair, cfg):
    """A batch of one per sweep circle, in sweep order."""
    return [next(_reduced(pair, _pair_fields, replace(cfg, circles=(c,))))[1] for c in cfg.circles]


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
    # where it lies, not as the interior of its cell.  Against an unbeatable
    # unit value the window's own label shows; against the true one the
    # window ties the unit pair to rounding, and the unit pair is kept
    data = arcs(T, dmin, dmax)
    value, phi, psi, _, status, _ = (v[0] for v in _solve_weights(data, np.array([np.inf])))
    assert status == "vertex"
    assert np.allclose(phi, 1.0, rtol=0.0, atol=1e-12) and np.allclose(psi, 1.0, rtol=0.0, atol=1e-12)
    assert value == pytest.approx(_unit_value(data)[0], rel=1e-14, abs=0.0)
    assert solve(data)[4] == "constant"


def test_tiny_window_ratio_scored_exactly():
    # min dmin / max dmax = 1e-23: the unit pair's arctan term is taken at
    # the true ratio, not raised to a floor, so the window beats it
    data = arcs([1, 1, 1], [1e-20, 1, 1e3], [1e-20, 1, 1e3])
    value, phi, psi, _, status, residual = solve(data)
    assert status == "edge"
    assert value == pytest.approx(142790.88003229036, rel=1e-12)
    assert value < _unit_value(data)[0]
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


arc_sets = st.lists(
    st.tuples(
        st.floats(0.01, 10.0),  # T
        st.floats(-3.0, 3.0),  # log dmin
        st.sampled_from([0.0, 0.01, 0.3, 3.0]),  # spread scale; 0 gives dmin = dmax
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=arc_sets, c=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_window_solve_properties(rows, c, seed):
    T, log_lo, scale, frac = (np.array(col) for col in zip(*rows))
    dmin = np.exp(log_lo)
    dmax = dmin * np.exp(scale * frac)
    data = arcs(T, dmin, dmax)
    value, phi, psi, *_ = solve(data)
    assert value == arc_value(data, phi, psi)
    assert value <= slsqp_reference(data)[0] * (1.0 + 1e-12)
    scaled = solve(arcs(T, c * dmin, c * dmax))[0]
    assert scaled == pytest.approx(value, rel=1e-12, abs=0.0)
    perm = np.random.default_rng(seed).permutation(T.size)
    permuted = solve(arcs(T[perm], dmin[perm], dmax[perm]))[0]
    assert permuted == pytest.approx(value, rel=1e-12, abs=0.0)


def test_weight_pieces_change_nothing_on_piecewise_data():
    # the optimal weights are constant on each coefficient arc, so subdividing
    # the arcs further leaves every per-circle minimum where it was
    rng = np.random.default_rng(6)  # criterion 6's stream
    for _ in range(12):
        pair = random_angular_pair(rng, node_count=1024)
        sups = [beta_estimate(pair, SweepConfig.origin(resolution=1024, weight_pieces=p)).sup_value
                for p in (1, 4, 16, 64)]
        assert max(sups) - min(sups) <= 1e-12 * min(sups), sups


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
    # the bound above holds for a batch of 8 such circles: a block spans every
    # circle's rows and holds no more cells than one circle's block
    nodes, pieces = 4096, 1024
    grid = AngularGrid.uniform(nodes)
    th = grid.nodes
    pair = BeltramiPair.from_angular(PeriodicField(grid, 0.45 * np.sin(th) ** 2, SMOOTH),
                                     PeriodicField(grid, 0.35 * np.cos(3 * th), SMOOTH))
    circles = tuple(CircleSpec(0.05 * np.exp(0.8j * k), 0.5, resolution=nodes) for k in range(8))
    (_, data), = _reduced(pair, _pair_fields, SweepConfig(circles=circles, weight_pieces=pieces))
    assert data.arc_integrals.shape == (8, pieces)
    tracemalloc.start()
    try:
        value, phi, psi, *_ = _solve_weights(data, _unit_value(data))
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
    return BeltramiPair.from_callables(lambda z: 0.3 * np.exp(1j * z.real) * np.abs(z),
                                       lambda z: 0.2 * np.cos(3.0 * z.imag) + 0j)


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
            labels.append((_family(_unit_value(d)[0], remark, value), status, value))
        (fam, status, value), (pfam, pstatus, pvalue) = labels
        assert (pfam, pstatus) == (fam, status), idx
        assert abs(pvalue - value) <= 1e-15 * value, idx
