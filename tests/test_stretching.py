"""Profile system, shooting, distortion identities, weak residuals."""

import math

import numpy as np
import pytest
from helpers import (
    field_from_callable,
    reference_advance_extremum,
    reference_eval_system_solution,
    reference_monodromy,
    reference_phase_advance,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import beltbound.stretching as stretching_module
from beltbound.periodic_fields import SMOOTH, TWO_PI, AngularGrid, PeriodicField
from beltbound.sharp_family import build_family
from beltbound.stretching import (
    AngularStretching,
    KProfile,
    RootSearchError,
    _ALPHA_MAX,
    _advance_extremum,
    _brent,
    _cells,
    _piece_propagator,
    _piece_rates,
    differential_quantities,
    discriminants,
    distortion_from_k,
    eval_stretching,
    eval_system_solution,
    find_periodic_alpha,
    injectivity_check,
    k_from_munu,
    monodromy,
    munu_from_k,
    periodic_alpha_table,
    phase_advance,
    sl_weak_residuals,
    solve_system,
)

# frozen exponent targets, d = (4/pi) arctan(1/sqrt(M)) at tau = 0
D_TARGETS = {2.0: 0.7836531040612146, 4.0: 0.590334470601733}


def random_k(rng, pieces=4, node_count=256):
    bks = np.sort(rng.uniform(0.3, TWO_PI - 0.3, pieces - 1))
    g = AngularGrid.with_breakpoints(node_count, np.concatenate([[0.0], bks]))
    k1 = rng.uniform(0.4, 3.0, pieces)
    k2 = rng.uniform(0.4, 3.0, pieces)
    return KProfile(PeriodicField.piecewise(g, k1), PeriodicField.piecewise(g, k2))


def trig_k(coefs, node_count):
    """Smooth k1, k2 = exp(trig polynomial) sampled on a uniform grid."""
    g = AngularGrid.uniform(node_count)
    fields = []
    for coef in coefs:
        j = np.arange(1, coef.shape[1] + 1)[:, None]
        log_k = coef[0] @ np.cos(j * g.nodes) + coef[1] @ np.sin(j * g.nodes)
        fields.append(PeriodicField(g, np.exp(log_k), SMOOTH))
    return KProfile(*fields)


def trig_coefficients(rng, harmonics=3, log_amplitude=0.4):
    """Three harmonics per log-weight, coefficient norm 0.4 (the benchmark's maps)."""
    coefs = []
    for _ in range(2):
        coef = rng.normal(size=(2, harmonics))
        coefs.append(coef * log_amplitude / np.linalg.norm(coef))
    return coefs


# Frozen from the implementation before piecewise and smooth weights shared
# one propagator (commit e22b207): the piecewise values came from its exact
# per-piece loops, the smooth exponents from its fixed-step RK4 integrators.
FROZEN_PIECEWISE = [  # random_k(default_rng(7)) x 3: monodromy at alpha 0.7, branch-1 alpha
    ([[-0.9882604973871881, 0.2818002237422161],
      [0.31095998359375715, -1.1005484847640092]], 1.228600339585924),
    ([[1.1738978407342402, -0.20633510642956945],
      [0.3671930739726385, 0.7873216441249876]], 0.6481204212763381),
    ([[-0.45025357402126176, -0.7625265005930476],
      [1.4268213415157125, 0.19542117951805327]], 0.5516027506944761),
]
FROZEN_SMOOTH_RK4 = [  # trig_coefficients(default_rng(201)) x 3: {nodes: alpha}
    {16: 0.9065413195399346, 64: 0.897147954657585},
    {16: 0.9407570393829796, 64: 0.9362868134959301},
    {16: 0.8897100180656551, 64: 0.8818223952881826},
]


def test_piecewise_propagation_matches_frozen_values():
    rng = np.random.default_rng(7)
    for frozen_m, frozen_alpha in FROZEN_PIECEWISE:
        k = random_k(rng)
        m = monodromy(k, 0.7)
        assert np.max(np.abs(m - frozen_m)) < 1e-13 * np.max(np.abs(frozen_m))
        assert abs(find_periodic_alpha(k) - frozen_alpha) < 1e-13 * frozen_alpha


def test_exponent_search_builds_cells_once(monkeypatch):
    # only the alpha scaling of the rates changes between search steps
    built = []
    cells = stretching_module._cells

    def counted(k):
        built.append(k)
        return cells(k)

    monkeypatch.setattr(stretching_module, "_cells", counted)
    rng = np.random.default_rng(5)
    for k in (random_k(rng), trig_k(trig_coefficients(rng), 16)):
        built.clear()
        find_periodic_alpha(k, branch=2)
        assert built == [k]


def test_monodromy_matches_sequential_cell_product():
    # reference for the recursive doubling: cell propagators applied one by one
    rng = np.random.default_rng(3)
    for k in (random_k(rng), trig_k(trig_coefficients(rng), 32)):
        _, h, av, bv = _piece_rates(_cells(k), 0.9)
        ref = np.eye(2)
        for j in range(h.size):
            _, c, p12, p21 = _piece_propagator(av[j], bv[j], h[j])
            ref = np.array([[c, p12], [p21, c]]) @ ref
        assert np.max(np.abs(monodromy(k, 0.9) - ref)) < 1e-13 * np.max(np.abs(ref))


def test_smooth_alpha_near_rk4_and_periodic():
    rng = np.random.default_rng(201)
    for frozen in FROZEN_SMOOTH_RK4:
        coefs = trig_coefficients(rng)
        for n, tol in ((16, 3e-4), (64, 3e-5)):
            k = trig_k(coefs, n)
            a = find_periodic_alpha(k)
            assert abs(a - frozen[n]) < tol, (n, a, frozen[n])
            # phase search and monodromy follow one discrete flow
            assert abs(np.trace(monodromy(k, a)) - 2.0) < 1e-12


def test_smooth_phase_advance_ends_at_monodromy_image():
    k = trig_k(trig_coefficients(np.random.default_rng(5)), 32)
    phi0 = np.linspace(0.0, np.pi, 7)
    for alpha in (0.4, 1.3):
        end = monodromy(k, alpha) @ np.stack([np.cos(phi0), np.sin(phi0)])
        turned = phi0 + phase_advance(k, alpha, phi0) - np.arctan2(end[1], end[0])
        assert np.max(np.abs((turned + np.pi) % TWO_PI - np.pi)) < 1e-12


def test_smooth_constant_weights_exact():
    # constant k1 = 1/k2 = kc tagged smooth: alpha_n = n/kc, Phi = identity
    for node_count in (16, 64):
        g = AngularGrid.uniform(node_count)
        for kc in (2.0, 5.0):
            k = KProfile(PeriodicField(g, np.full(node_count, kc), SMOOTH),
                         PeriodicField(g, np.full(node_count, 1.0 / kc), SMOOTH))
            for n in (1, 2):
                a = find_periodic_alpha(k, branch=n)
                assert abs(a - n / kc) < 1e-12
                assert abs(np.trace(monodromy(k, a)) - 2.0) < 1e-12


def test_k_munu_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = random_k(rng)
        mu0, nu0 = munu_from_k(k)
        back = k_from_munu(mu0, nu0)
        assert np.max(np.abs(back.k1.values - k.k1.values)) < 1e-12
        assert np.max(np.abs(back.k2.values - k.k2.values)) < 1e-12
        # the pair stays inside the ellipticity ball
        assert np.max(np.abs(mu0.values) + np.abs(nu0.values)) < 1.0


def test_munu_from_k_identity_weights():
    k = KProfile.constant(1.0, 1.0, node_count=64)
    mu0, nu0 = munu_from_k(k)
    assert np.max(np.abs(mu0.values)) == 0.0
    assert np.max(np.abs(nu0.values)) == 0.0


def test_solve_system_constant_weights_trig():
    # k1 = k, k2 = 1/k makes the direction rotate at constant rate alpha*k
    kc, alpha = 2.5, 0.4
    k = KProfile.constant(kc, 1.0 / kc, node_count=512)
    s = solve_system(k, alpha, initial=(1.0, 0.0))
    t = k.grid.nodes
    assert np.max(np.abs(s.eta1.values - np.cos(alpha * kc * t))) < 1e-12
    assert np.max(np.abs(s.eta2.values - np.sin(alpha * kc * t))) < 1e-12
    assert np.max(np.abs(s.deta1 + alpha * kc * np.sin(alpha * kc * t))) < 1e-12


def test_monodromy_determinant_one():
    # the system matrix is trace-free, so the propagator is unimodular
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = random_k(rng)
        m = monodromy(k, float(rng.uniform(0.1, 2.0)))
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_monodromy_trace_two_at_periodic_alpha():
    rng = np.random.default_rng(9)
    for _ in range(5):
        k = random_k(rng)
        a = find_periodic_alpha(k, branch=1)
        m = monodromy(k, a)
        assert abs(np.trace(m) - 2.0) < 1e-9


def test_phase_advance_monotone_in_alpha():
    rng = np.random.default_rng(21)
    k = random_k(rng)
    alphas = np.linspace(0.2, 2.0, 12)
    vals = [phase_advance(k, a, np.array(0.3)) for a in alphas]
    assert np.all(np.diff(vals) > 0)


def test_find_periodic_alpha_constant_weights():
    # alpha_n = 2 pi n / integral of k; with k1 = 1/k2 = k the integral is 2 pi k
    for kc in (2.0, 5.0):
        k = KProfile.constant(kc, 1.0 / kc, node_count=64)
        for n in (1, 2):
            a = find_periodic_alpha(k, branch=n)
            assert abs(a - n / kc) < 1e-12


def test_periodic_alpha_table_gap_edges():
    # k2 = 1/k1 on both half-circles: every instability interval is
    # degenerate, one root per winding, as for constant weights
    g = AngularGrid.with_breakpoints(128, [0.0, np.pi])
    k = KProfile(
        PeriodicField.piecewise(g, [1.0, 3.0]),
        PeriodicField.piecewise(g, [1.0, 1.0 / 3.0]),
    )
    table = periodic_alpha_table(k, branches=3)
    assert table[0]["winding"] == 1
    alphas = [row["alpha"] for row in table]
    assert all(np.diff(alphas) > 0)
    for row in table:
        m = monodromy(k, row["alpha"])
        assert abs(np.trace(m) - 2.0) < 1e-8
    # a jump of k1 against k2 = 1 opens an interval at every winding: both
    # edges are roots, the left one first
    gap = KProfile(PeriodicField.piecewise(g, [1.0, 3.0]), PeriodicField.piecewise(g, [1.0, 1.0]))
    table = periodic_alpha_table(gap, branches=4)
    assert [row["edge"] for row in table] == ["left", "right", "left", "right"]
    assert [row["winding"] for row in table] == [1, 1, 2, 2]
    expected = (0.6874058946488585, 0.781261426523646, 1.400944239060873, 1.5262155669433353)
    for row, alpha in zip(table, expected):
        assert abs(row["alpha"] - alpha) < 1e-12
        assert abs(np.trace(monodromy(gap, row["alpha"])) - 2.0) < 1e-8


def test_solution_closes_at_periodic_alpha():
    rng = np.random.default_rng(33)
    k = random_k(rng)
    a = find_periodic_alpha(k, branch=1)
    m = monodromy(k, a)
    w, v = np.linalg.eig(m)
    j = int(np.argmin(np.abs(w - 1.0)))
    v0 = np.real(v[:, j])
    s = solve_system(k, a, initial=v0)
    # propagate the eigvector one full period: back to itself
    end = m @ v0
    assert np.max(np.abs(end - v0)) < 1e-9
    assert s.eta1.values.shape == k.grid.nodes.shape


def test_radial_distortion_exact():
    # |z|^{alpha-1} z has distortion max(k, 1/k) with k = 1/alpha
    for alpha in (0.25, 0.5, 0.75, 1.0):
        s = AngularStretching.radial(alpha, node_count=128)
        _, _, dist = differential_quantities(s)
        assert np.max(np.abs(dist - 1.0 / alpha)) < 1e-14


def test_discriminant_forms_agree():
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = random_k(rng)
        a = find_periodic_alpha(k, branch=1)
        s = solve_system(k, a)
        diff_form, four_form = discriminants(s)
        scale = np.max(np.abs(four_form)) + 1e-30
        assert np.max(np.abs(diff_form - four_form)) / scale < 1e-12


def test_eigen_route_distortion_matches_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(10):
        k = random_k(rng)
        a = find_periodic_alpha(k, branch=1)
        s = solve_system(k, a)
        _, _, dist = differential_quantities(s)
        closed = distortion_from_k(k, s.eta1.values, s.eta2.values)
        assert np.max(np.abs(dist - closed)) < 1e-10


def test_eval_stretching_values_and_origin_guard():
    s = AngularStretching.radial(0.5, node_count=256)
    z = np.array([0.25, -0.25, 0.5j])
    out = eval_stretching(s, z)
    assert np.max(np.abs(out - np.abs(z) ** (-0.5) * z)) < 1e-10
    with pytest.raises(ValueError):
        eval_stretching(s, np.array([0.0]))


def test_injectivity_certificate():
    ok, cert = injectivity_check(AngularStretching.radial(0.5, node_count=256))
    assert ok and abs(abs(cert["winding"]) - 1.0) < 1e-6
    # winding-2 solutions are not injective
    k = KProfile.constant(2.0, 0.5, node_count=256)
    s = solve_system(k, find_periodic_alpha(k, branch=2))
    ok, cert = injectivity_check(s)
    assert not ok
    assert abs(abs(cert["winding"]) - 2.0) < 1e-6


def test_sl_weak_residuals_piecewise_machine_zero():
    rng = np.random.default_rng(41)
    for _ in range(5):
        k = random_k(rng, node_count=128)
        a = find_periodic_alpha(k, branch=1)
        s = solve_system(k, a)
        for comp in (1, 2):
            _, rel = sl_weak_residuals(k, s, component=comp)
            assert rel < 1e-12


def test_sl_weak_residuals_smooth_converges():
    # the residual only needs a system solution, not a periodic one: the
    # hats at the cut are skipped either way
    rels = []
    for n in (128, 256, 512):
        g = AngularGrid.uniform(n)
        k = KProfile(
            field_from_callable(g, lambda t: 1.5 + 0.4 * np.cos(t)),
            field_from_callable(g, lambda t: 1.0 / (1.5 + 0.4 * np.cos(t))),
        )
        s = solve_system(k, 0.7)
        _, rel = sl_weak_residuals(k, s, component=1)
        rels.append(rel)
    assert rels[0] > rels[1] > rels[2]
    assert rels[0] / rels[2] > 16.0  # at least second order over two refinements


def test_kprofile_validation():
    g = AngularGrid.uniform(64)
    with pytest.raises(ValueError):
        KProfile(
            PeriodicField.piecewise(g, [1.0]),
            PeriodicField.piecewise(g, [-2.0]),
        )


def test_solve_system_rejects_bad_input():
    k = KProfile.constant(2.0, 0.5, node_count=64)
    with pytest.raises(ValueError):
        solve_system(k, -1.0)
    with pytest.raises(ValueError):
        solve_system(k, 0.5, initial=(0.0, 0.0))


# ---------------------------------------------------------------------------
# exponent search: the zeroin port and the shared bracket ends

XTOL, RTOL = 1e-15, 4.0 * float(np.finfo(float).eps)  # the exponent search's tolerances


def scipy_edge_root(k, cells, winding, want_max):
    """The search of one interval edge as it ran on scipy's brentq: each edge
    propagates its own bracket ends, and brentq evaluates them again."""
    target = TWO_PI * winding
    h = k.grid.spacings()
    vmin = float(np.sum(h * np.minimum(k.k1.values, 1.0 / k.k2.values)))
    vmax = float(np.sum(h * np.maximum(k.k1.values, 1.0 / k.k2.values)))
    lo = 0.9 * target / vmax
    hi = min(1.1 * target / vmin, _ALPHA_MAX)
    assert lo <= _ALPHA_MAX

    def g(al):
        return _advance_extremum(cells, al)[0 if want_max else 1] - target

    glo, ghi = g(lo), g(hi)
    while glo > 0.0:
        lo *= 0.5
        glo = g(lo)
    assert ghi >= 0.0
    return float(brentq(g, lo, hi, xtol=XTOL, rtol=RTOL))


def scipy_alpha_table(k, branches):
    """periodic_alpha_table on scipy_edge_root."""
    cells = _cells(k)
    table = []
    w = 0
    while len(table) < branches:
        w += 1
        left = scipy_edge_root(k, cells, w, want_max=True)
        right = scipy_edge_root(k, cells, w, want_max=False)
        if right - left <= 1e-10 * max(1.0, right):
            table.append({"alpha": left, "winding": w, "edge": "degenerate"})
        else:
            table.append({"alpha": left, "winding": w, "edge": "left"})
            table.append({"alpha": right, "winding": w, "edge": "right"})
    return table[:branches]


@st.composite
def increasing_functions(draw):
    """x -> g(x) - g(root) for g = a x^3 + b tanh(c (x - s)) + d exp(e x),
    nonnegative coefficients, and a bracket [root - left, root + right];
    a zero width puts the exact root on a bracket end."""
    pos = st.floats(0.0, 10.0)
    a, b, d = draw(pos), draw(pos), draw(pos)
    assume(a + b + d > 0.0)
    c, s, e = draw(st.floats(0.1, 20.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-3.0, 3.0))
    root = draw(st.floats(-3.0, 3.0))
    width = st.one_of(st.just(0.0), st.floats(1e-12, 4.0))
    left, right = draw(width), draw(width)
    assume(left + right > 0.0)

    def g(x):
        return a * x**3 + b * math.tanh(c * (x - s)) + d * math.exp(e * x)

    g_root = g(root)
    return (lambda x: g(x) - g_root), root - left, root + right


@settings(max_examples=300, deadline=None)
@given(increasing_functions())
def test_brent_bitwise_equal_to_scipy_brentq(case):
    f, a, b = case
    fa, fb = f(a), f(b)
    assume(fa <= 0.0 <= fb)  # rounding can flatten g near the root
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    try:
        ref = brentq(counted, a, b, xtol=XTOL, rtol=RTOL)
    except RuntimeError:  # 100 steps without convergence: the port stops there too
        ref = None
    ref_calls = calls[2:]  # brentq evaluates both ends first
    calls.clear()
    if ref is None:
        with pytest.raises(RootSearchError, match="100 steps"):
            _brent(counted, a, b, fa, fb, XTOL, RTOL)
    else:
        got = _brent(counted, a, b, fa, fb, XTOL, RTOL)
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)
    assert calls == ref_calls  # the same iterates, step for step


def test_brent_nan_cap_and_zero_denominator():
    def step_at_sqrt2(x):
        return 1.0 if x > math.sqrt(2.0) else -1.0

    for f in (lambda x: math.nan if x > 1.2 else x - 1.5, lambda x: math.nan):
        with pytest.raises(ValueError, match="NaN"):
            _brent(f, 1.0, 2.0, -0.5, f(2.0), XTOL, RTOL)
    with pytest.raises(ValueError, match="NaN"):
        _brent(step_at_sqrt2, 1.0, 2.0, math.nan, 1.0, XTOL, RTOL)
    # zero tolerance: the bracket stalls at two adjacent floats, never f = 0
    with pytest.raises(RootSearchError, match="100 steps") as err:
        _brent(step_at_sqrt2, 1.0, 2.0, -1.0, 1.0, 0.0, 0.0)
    assert isinstance(err.value, RuntimeError)
    assert _brent(step_at_sqrt2, 1.0, 2.0, -1.0, 1.0, XTOL, RTOL) == brentq(
        step_at_sqrt2, 1.0, 2.0, xtol=XTOL, rtol=RTOL)
    # products that underflow give the extrapolation a zero denominator
    # (inf or nan in C, so a bisection step): same root, no exception
    def tiny_cubic(x):
        return 1e-250 * x**3

    assert _brent(tiny_cubic, -1.0, 2.0, tiny_cubic(-1.0), tiny_cubic(2.0), XTOL, RTOL) == (
        brentq(tiny_cubic, -1.0, 2.0, xtol=XTOL, rtol=RTOL))


def reference_profiles():
    rng = np.random.default_rng(61)
    profiles = [random_k(rng) for _ in range(8)]
    profiles += [trig_k(trig_coefficients(rng), n) for n in (16, 32, 64) for _ in range(3)]
    profiles += [build_family(M, tau, node_count=512).k
                 for M, tau in ((2.0, 0.5), (3.0, 1.0), (1.5, 0.0), (4.0, 0.3))]
    profiles += [KProfile.constant(2.0, 0.5, node_count=64),
                 KProfile.constant(1.5, 2.5, node_count=64)]
    return profiles


def test_alpha_table_bitwise_equal_to_scipy_search():
    for k in reference_profiles():
        assert periodic_alpha_table(k, 3) == scipy_alpha_table(k, 3)


def test_edges_share_propagations(monkeypatch):
    # a maps-style smooth profile: both edges reuse the shared bracket ends,
    # and no end is propagated twice
    k = trig_k(trig_coefficients(np.random.default_rng(201)), 16)
    calls = []
    propagate = stretching_module._propagate

    def counted(*args):
        calls.append(None)
        return propagate(*args)

    monkeypatch.setattr(stretching_module, "_propagate", counted)
    alpha = find_periodic_alpha(k)
    shared = len(calls)
    calls.clear()
    assert scipy_alpha_table(k, 1)[0]["alpha"] == alpha
    assert shared <= len(calls) - 6, (shared, len(calls))


def counting(monkeypatch, name):
    """Replace stretching_module.<name> by a wrapper that logs one entry per call."""
    calls = []
    inner = getattr(stretching_module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(stretching_module, name, counted)
    return calls


def test_branch_search_is_table_entry():
    # branch n is entry n of the table, bitwise, however few edges it solves
    for k in reference_profiles():
        ref = scipy_alpha_table(k, 3)
        for n in (1, 2, 3):
            alpha = find_periodic_alpha(k, n)
            assert alpha == periodic_alpha_table(k, n)[n - 1]["alpha"] == ref[n - 1]["alpha"]
        if np.ptp(k.k1.values) == 0.0 and np.ptp(k.k2.values) == 0.0:
            assert ref[1]["winding"] == 2 and ref[1]["edge"] == "degenerate"


def test_branch_search_solves_only_the_edges_it_needs(monkeypatch):
    # a jump of k1 against k2 = 1 opens an interval at winding 1; with
    # k2 = 1/k1 (test_periodic_alpha_table_gap_edges) every interval is
    # degenerate, as it is for constant weights
    g = AngularGrid.with_breakpoints(128, [0.0, np.pi])
    gap = KProfile(PeriodicField.piecewise(g, [1.0, 3.0]), PeriodicField.piecewise(g, [1.0, 1.0]))
    constant = KProfile.constant(2.0, 0.5)
    assert [row["edge"] for row in periodic_alpha_table(gap, 2)] == ["left", "right"]
    calls = counting(monkeypatch, "_brent")
    for k, branch, brents in ((gap, 1, 1), (constant, 1, 1), (gap, 2, 2), (constant, 2, 3)):
        calls.clear()
        find_periodic_alpha(k, branch)
        assert len(calls) == brents, (branch, len(calls))


def test_branch_one_skips_the_right_edge(monkeypatch):
    # scipy_edge_root propagates each bracket end twice, the shared cache once
    k = trig_k(trig_coefficients(np.random.default_rng(201)), 16)
    calls = counting(monkeypatch, "_propagate")
    alpha = find_periodic_alpha(k)
    lazy = len(calls)
    calls.clear()
    assert scipy_edge_root(k, _cells(k), 1, want_max=True) == alpha
    assert lazy <= len(calls) - 2, (lazy, len(calls))


def hexes(*arrays):
    return [float(v).hex() for a in arrays for v in np.ravel(a)]


nonzero = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), smooth=st.booleans(), alpha=st.floats(0.05, 4.0),
       initial=st.tuples(nonzero, nonzero))
def test_search_step_bitwise_equal_to_reference(seed, smooth, alpha, initial):
    # one propagation pass (identity row, the rates w shared, one arctan2 pair
    # over cell ends and starts) against the reference step of tests/helpers;
    # initial has no zero component, since only an exact zero's sign may
    # differ where the identity row replaces a product with the identity
    rng = np.random.default_rng(seed)
    if smooth:
        k = trig_k(trig_coefficients(rng), int(rng.choice([8, 16, 32])))
    else:
        k = random_k(rng, pieces=int(rng.integers(2, 7)), node_count=64)
    cells = _cells(k)
    assert hexes(_advance_extremum(cells, alpha)) == hexes(reference_advance_extremum(cells, alpha))
    assert hexes(monodromy(k, alpha)) == hexes(reference_monodromy(k, alpha))
    phis = rng.uniform(-np.pi, np.pi, 5)
    for phi0 in (phis, phis[0]):
        assert hexes(phase_advance(k, alpha, phi0)) == hexes(reference_phase_advance(k, alpha, phi0))
    thetas = np.concatenate([rng.uniform(-1.0, 7.0, 8), k.grid.breakpoints])
    assert hexes(*eval_system_solution(k, alpha, initial, thetas)) == hexes(
        *reference_eval_system_solution(k, alpha, initial, thetas))


@pytest.mark.parametrize("make_k, alpha", [
    (lambda: build_family(2.0, 0.5, node_count=1024).k, "0x1.850c3d59b3491p-1"),
    (lambda: build_family(3.0, 1.0, node_count=1024).k, "0x1.5555555555555p-1"),
    (lambda: trig_k(trig_coefficients(np.random.default_rng(201)), 16), "0x1.d034b8bd36476p-1"),
], ids=["family-2-0.5", "family-3-1", "smooth-16"])
def test_find_periodic_alpha_is_pinned(make_k, alpha):
    # the values before each search step became one propagation pass
    assert find_periodic_alpha(make_k()).hex() == alpha
