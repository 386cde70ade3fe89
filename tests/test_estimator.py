"""Weighted circle functionals and the exponent bounds they certify."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from helpers import constant_matrix, constant_pair, node_gap_batch, piecewise_k
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import random_angular_pair as criterion_6_pair

from beltbound import estimator, reduction
from beltbound.estimator import (
    SweepConfig,
    WeightPair,
    _arc_value,
    _matrix_fields,
    _reduced,
    _remark_weights,
    _solve_weights,
    beta_estimate,
    classical_bound,
    corollary_bound,
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
from beltbound.reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    EllipticityError,
    beltrami_to_matrices,
    normalize_matrix,
)
from beltbound.sharp_family import build_family

# frozen: d = (4/pi) arctan M^{-1/2}
D_M2 = 0.7836531040612146
D_M4 = 0.590334470601733

CFG = SweepConfig.origin(resolution=512, weight_pieces=8)


def random_angular_pair(rng, pieces=4, node_count=512):
    bks = np.concatenate([[0.0], np.sort(rng.uniform(0.4, TWO_PI - 0.4, pieces - 1))])
    g = AngularGrid.with_breakpoints(node_count, bks)
    while True:
        mu0 = rng.uniform(-0.5, 0.5, pieces)
        nu0 = rng.uniform(-0.5, 0.5, pieces)
        if np.max(np.abs(mu0) + np.abs(nu0)) < 0.9:
            break
    return BeltramiPair.from_angular(
        PeriodicField.piecewise(g, mu0), PeriodicField.piecewise(g, nu0)
    )


def test_trivial_pair_all_bounds_one():
    pair = constant_pair(0.0, 0.0)
    report = beta_estimate(pair, CFG)
    assert report.bound == report.mu_zero == report.nu_zero == 1.0
    assert corollary_bound(pair, CFG) == 1.0
    assert classical_bound(pair) == 1.0


def test_radial_stretch_equalities():
    for alpha in (0.25, 0.5, 0.75):
        pair = BeltramiPair.radial_stretch(alpha, node_count=512)
        assert abs(classical_bound(pair) - alpha) < 1e-12
        assert abs(corollary_bound(pair, CFG) - alpha) < 1e-12
        report = beta_estimate(pair, CFG)
        assert abs(report.bound - alpha) < 1e-12
        assert abs(report.nu_zero - alpha) < 1e-12


def test_nu_zero_frozen_quarters():
    # quarter arcs with mu0 = 0.1, 0.3, 0.2, 0.05:
    # mean of (1+m)/(1-m) = 1.42115705931...; bound is its reciprocal
    g = AngularGrid.with_breakpoints(
        512, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    )
    pair = BeltramiPair.from_angular(
        PeriodicField.piecewise(g, [0.1, 0.3, 0.2, 0.05]),
        PeriodicField.piecewise(g, [0.0, 0.0, 0.0, 0.0]),
    )
    assert abs(beta_estimate(pair, CFG).nu_zero - 0.7036519950033066) < 1e-12


def test_nu_zero_matches_independent_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(20):
        bks = np.concatenate([[0.0], np.sort(rng.uniform(0.4, 6.0, 3))])
        g = AngularGrid.with_breakpoints(512, bks)
        mu0 = rng.uniform(-0.6, 0.6, 4)
        pair = BeltramiPair.from_angular(
            PeriodicField.piecewise(g, mu0),
            PeriodicField.piecewise(g, np.zeros(4)),
        )
        lengths = np.diff(np.concatenate([bks, [TWO_PI]]))
        mean = np.sum(lengths * (1.0 + mu0) / (1.0 - mu0)) / TWO_PI
        expected = min(1.0, 1.0 / mean)
        assert abs(beta_estimate(pair, CFG).nu_zero - expected) < 1e-10


def test_nu_zero_rejects_nonzero_nu():
    report = beta_estimate(constant_pair(0.0, 0.2), CFG)
    assert report.nu_zero is None and report.mu_zero == report.corollary


def test_nu_zero_accepts_callable_pair_with_large_mu():
    # det B of a pointwise pair with nu = 0 is 1 only to rounding that grows
    # with the distortion (7e-14 at |mu| = 0.9): still nu = 0, still the
    # corollary value
    for r in (0.5, 0.9, 0.97):
        pair = BeltramiPair.from_callables(
            lambda z, r=r: (r * np.exp(3j * np.angle(z)), np.zeros_like(z)))
        cfg = SweepConfig(circles=(CircleSpec(0.1 + 0.2j, 0.5, resolution=512),), weight_pieces=8)
        report = beta_estimate(pair, cfg)
        assert report.nu_zero == report.corollary and report.mu_zero is None


def test_mu_zero_constant_nu_is_one():
    pair = constant_pair(0.0, 0.35)
    assert abs(beta_estimate(pair, CFG).mu_zero - 1.0) < 1e-12


def test_mu_zero_two_valued_nu_gives_arctan_value():
    for M, d in [(2.0, D_M2), (4.0, D_M4)]:
        fam = build_family(M, 0.0, node_count=512)
        pair = fam.pair()
        assert abs(beta_estimate(pair, CFG).mu_zero - d) < 1e-12


def test_mu_zero_rejects_nonzero_mu():
    report = beta_estimate(constant_pair(0.2, 0.0), CFG)
    assert report.mu_zero is None and report.nu_zero == report.corollary


def test_classical_bound_value():
    pair = constant_pair(1.0 / 3.0, 0.0)
    assert abs(classical_bound(pair) - 0.5) < 1e-14


def test_sharp_tau0_beta_hits_target():
    for M, d in [(2.0, D_M2), (4.0, D_M4)]:
        fam = build_family(M, 0.0, node_count=512)
        report = beta_estimate(fam.pair(), CFG)
        assert abs(report.bound - d) / d < 0.02
        assert report.bound <= 1.0


def test_sharp_tau1_beta_hits_target():
    fam = build_family(1.5, 1.0, node_count=512)
    report = beta_estimate(fam.pair(), CFG)
    assert abs(report.bound - 5.0 / 6.0) / (5.0 / 6.0) < 0.02


def test_remark_weights_contract():
    rng = np.random.default_rng(37)
    for _ in range(20):
        pair = random_angular_pair(rng)
        I, D = _matrix_fields(pair.on_circle(CircleSpec(0.0, 0.5, resolution=512)))
        phi, psi = _remark_weights(I, D)
        assert phi.min() > 0 and psi.min() > 0
        K = pair.distortion_bound()
        assert phi.max() / psi.min() <= K**2 + 1e-10
        # the remark integrand is identically one: quadrature-free value
        assert np.max(np.abs(np.sqrt(psi / phi) * I.values - 1.0)) < 1e-12


def test_objective_equal_for_normalized_matrix():
    # gamma(A) = gamma(A/det A) per weight pair: (phi, psi) on A scores as
    # (1/psi, 1/phi) on A/det A, here with random weights on every node gap
    rng = np.random.default_rng(41)
    for _ in range(20):
        pair = random_angular_pair(rng)
        m = CoefficientMatrixField.from_angular_k(pair.k)
        circle = CircleSpec(0.0, 0.6, resolution=512)
        data_a = node_gap_batch(m.on_circles((circle,)))
        data_h = node_gap_batch(normalize_matrix(m).on_circles((circle,)))
        w = np.exp(np.random.default_rng(17).normal(0.0, 0.3, (2, data_a.arc_integrals.shape[-1])))
        v1 = _arc_value(data_a, w[0], w[1])[0]
        v2 = _arc_value(data_h, 1.0 / w[1], 1.0 / w[0])[0]
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


def smooth_angular_pair(rng, node_count):
    """Smooth profiles with |mu0| + |nu0| <= 0.8: two harmonics through tanh."""
    g = AngularGrid.uniform(node_count)
    harmonics = np.array([np.cos(g.nodes), np.sin(g.nodes), np.cos(2 * g.nodes), np.sin(2 * g.nodes)])
    mu0, nu0 = 0.4 * np.tanh(rng.normal(size=(2, 4)) @ harmonics)
    return BeltramiPair.from_angular(PeriodicField(g, mu0, SMOOTH), PeriodicField(g, nu0, SMOOTH))


def test_beta_equals_gamma_of_reduction_matrix():
    rng = np.random.default_rng(43)
    for _ in range(5):
        pair = random_angular_pair(rng)
        m = beltrami_to_matrices(pair).B
        b = beta_estimate(pair, CFG).bound
        gm = gamma_estimate(m, CFG).bound
        assert abs(b - gm) < 1e-10
    # smooth profiles whose node count is not the circle's: the pair and B
    # interpolate the same k, on origin and off-centre circles alike
    lattice = SweepConfig.disk_lattice(radius_count=1, angle_count=4, resolution=512,
                                       weight_pieces=8)
    for node_count in (64, 256):
        pair = smooth_angular_pair(rng, node_count)
        m = beltrami_to_matrices(pair).B
        for cfg in (CFG, lattice):
            b, gm = beta_estimate(pair, cfg), gamma_estimate(m, cfg)
            assert b.bound == pytest.approx(gm.bound, rel=1e-12, abs=0.0)
            assert b.sup_value == pytest.approx(gm.sup_value, rel=1e-12, abs=0.0)


# beta's sup_value before pairs stored their coefficients as k alone, for
# criterion 6's pairs (test_acceptance.random_angular_pair, seeds 0-5, 256
# nodes), the sharp family and the radial stretch: piecewise data keeps its
# bounds to rounding
FROZEN_SWEEPS = {
    "origin": SweepConfig.origin(resolution=256, weight_pieces=8),
    "lattice": SweepConfig.disk_lattice(radius_count=1, angle_count=4, resolution=128,
                                        weight_pieces=4),
}
FROZEN_CRITERION_6 = {
    (0, "origin"): 2.7874930056449094, (0, "lattice"): 3.8304923312819747,
    (1, "origin"): 0.942792439195269, (1, "lattice"): 0.9945687712179965,
    (2, "origin"): 1.0652507726940073, (2, "lattice"): 1.6409680132709892,
    (3, "origin"): 1.0024733739458749, (3, "lattice"): 1.1197721144242698,
    (4, "origin"): 2.5005955363268444, (4, "lattice"): 3.019576870147289,
    (5, "origin"): 1.1802106095963136, (5, "lattice"): 1.4620468002162565,
}


def test_beta_frozen_on_piecewise_data():
    for (seed, sweep), value in FROZEN_CRITERION_6.items():
        pair = criterion_6_pair(np.random.default_rng(seed), node_count=256)
        got = beta_estimate(pair, FROZEN_SWEEPS[sweep]).sup_value
        assert got == pytest.approx(value, rel=1e-12, abs=0.0), (seed, sweep)
    for M, tau, value in ((2.0, 0.5, 1.3160336219585527), (3.0, 1.0, 1.5)):
        got = beta_estimate(build_family(M, tau, node_count=512).pair(), CFG).sup_value
        assert got == pytest.approx(value, rel=1e-12, abs=0.0), (M, tau)
    got = beta_estimate(BeltramiPair.radial_stretch(0.5, node_count=512), CFG).sup_value
    assert got == pytest.approx(2.0, rel=1e-12, abs=0.0)


def test_ellipticity_past_the_sampling_lattice():
    # kappa = 0.53 on the 12 x 96 lattice callables are sampled on, but
    # |mu| = 1.2 |z|^40 passes 1 near the unit circle: B is not positive
    # there, and every circle bound refuses the pair
    pair = BeltramiPair.from_callables(lambda z: (1.2 * np.abs(z) ** 40 + 0j, np.zeros_like(z)))
    assert pair.kappa < 0.6
    for circle in (CircleSpec(0.0, 0.9999), CircleSpec(0.3, 0.6999)):
        cfg = SweepConfig(circles=(circle,))
        for bound in (beta_estimate, corollary_bound):
            with pytest.raises(EllipticityError):
                bound(pair, cfg)


def test_beta_dominates_constant_weight_family():
    # the all-family search includes the constant candidate, so its bound
    # can only improve on the corollary
    rng = np.random.default_rng(47)
    for _ in range(10):
        pair = random_angular_pair(rng)
        assert beta_estimate(pair, CFG).bound >= corollary_bound(pair, CFG) - 1e-12


def test_beta_dominates_classical():
    rng = np.random.default_rng(53)
    for _ in range(10):
        pair = random_angular_pair(rng)
        assert beta_estimate(pair, CFG).bound >= classical_bound(pair) - 1e-12


@st.composite
def criterion_6_pairs(draw, node_count=256):
    """Piecewise pairs as criterion 6 draws them, with 2-8 arcs on node_count
    nodes: |mu0| + |nu0| shrunk onto a random cap in [0.3, 0.85] on each arc."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = draw(st.integers(2, 8))
    bks = np.concatenate([[0.0], np.sort(rng.uniform(0.3, TWO_PI - 0.3, pieces - 1))])
    mu0, nu0 = rng.uniform(-0.6, 0.6, (2, pieces))
    total = np.abs(mu0) + np.abs(nu0)
    shrink = np.minimum(1.0, rng.uniform(0.3, 0.85, pieces) / np.maximum(total, 1e-9))
    return BeltramiPair.from_profiles(bks, mu0 * shrink, nu0 * shrink, node_count=node_count)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 8), shift=st.floats(0.0, TWO_PI))
def test_origin_circle_ignores_rotation_of_the_breakpoints(seed, pieces, shift):
    # a criterion 6 pair turned by shift about the origin: its origin circle
    # sees the same arcs, so scores the same.  0 stays a breakpoint, so the
    # piece that wraps past 2pi is prepended there
    rng = np.random.default_rng(seed)
    bks = np.concatenate([[0.0], np.sort(rng.uniform(0.3, TWO_PI - 0.3, pieces - 1))])
    mu0, nu0 = rng.uniform(-0.6, 0.6, (2, pieces))
    total = np.abs(mu0) + np.abs(nu0)
    shrink = np.minimum(1.0, rng.uniform(0.3, 0.85, pieces) / np.maximum(total, 1e-9))
    mu0, nu0 = mu0 * shrink, nu0 * shrink
    turned = np.mod(bks + shift, TWO_PI)
    assume(np.min(np.minimum(turned, TWO_PI - turned)) > 1e-6)
    order = np.argsort(turned)
    first = order[-1]  # the piece that starts last and wraps through 0
    rotated = BeltramiPair.from_profiles(np.concatenate([[0.0], turned[order]]),
                                         np.concatenate([[mu0[first]], mu0[order]]),
                                         np.concatenate([[nu0[first]], nu0[order]]),
                                         node_count=256)
    cfg = SweepConfig.origin(resolution=256, weight_pieces=8)
    row = beta_estimate(BeltramiPair.from_profiles(bks, mu0, nu0, node_count=256), cfg).per_circle[0]
    turned_row = beta_estimate(rotated, cfg).per_circle[0]
    for key in ("constant_value", "value"):
        assert turned_row[key] == pytest.approx(row[key], rel=1e-12, abs=0.0), key


@settings(max_examples=25, deadline=None)
@given(pair=criterion_6_pairs())
def test_beta_is_a_bound_above_corollary_and_classical(pair):
    classical = classical_bound(pair)
    assert 0.0 < classical <= 1.0
    for cfg in (SweepConfig.origin(resolution=256, weight_pieces=8),
                SweepConfig.disk_lattice(radius_count=2, resolution=256, weight_pieces=8)):
        beta = beta_estimate(pair, cfg).bound
        corollary = corollary_bound(pair, cfg)
        assert 0.0 < beta <= 1.0
        assert 0.0 < corollary <= 1.0
        assert beta >= corollary - 1e-12
        assert beta >= classical - 1e-12


def test_remark_pair_must_beat_the_unit_pair():
    # I and D are constant on the origin circle of a one-arc pair, so the
    # remark pair is the unit pair and their values tie to an ulp (remark
    # 1.9999999999999996 against unit 1.9999999999999998 at mu0 = 1/3): the
    # label stays "constant" with unit weights, for an origin sweep and for
    # the origin circle of a lattice sweep
    for mu0, nodes in ((1 / 3, 256), (1 / 3, 1024), (1 / 3, 2048), (0.25, 256), (0.7, 256)):
        pair = BeltramiPair.from_profiles([0.0], [mu0], [0.0], node_count=nodes)
        for cfg in (SweepConfig.origin(resolution=nodes),
                    SweepConfig.disk_lattice(radius_count=1, angle_count=2, resolution=nodes)):
            report = beta_estimate(pair, cfg)
            assert report.per_circle[0]["family"] == "constant", (mu0, nodes)
            assert report.attaining_circle == cfg.circles[0]
            phi = report.attaining_weights.phi.values
            assert (phi.min(), phi.max()) == (1.0, 1.0), (mu0, nodes)


# a sweep where each weight family attains the bound: a one-arc pair with
# nu = 0 (I and D constant on the origin circle), and off-centre lattice
# circles at seeds 4 and 32 of test_sweep_report_does_not_depend_on_the_pass_size
# (on a sharp-family origin circle the unit pair wins)
LATTICE = SweepConfig.disk_lattice(radius_count=2, resolution=128, weight_pieces=4)
FAMILY_WINS = {
    "constant": lambda: (BeltramiPair.from_profiles([0.0], [1 / 3], [0.0], node_count=256),
                         SweepConfig.origin(resolution=256)),
    "remark": lambda: (criterion_6_pair(np.random.default_rng(4), node_count=256), LATTICE),
    "piecewise": lambda: (criterion_6_pair(np.random.default_rng(32), node_count=256), LATTICE),
}


@pytest.mark.parametrize("family", FAMILY_WINS)
def test_attaining_weights_are_built_on_first_read(family, monkeypatch):
    built = []
    check = WeightPair.__post_init__
    monkeypatch.setattr(WeightPair, "__post_init__", lambda w: built.append(w) or check(w))
    report = beta_estimate(*FAMILY_WINS[family]())
    assert built == []
    weights = report.attaining_weights
    assert built == [weights]
    assert report.attaining_weights is weights and len(built) == 1


@pytest.mark.parametrize("family", FAMILY_WINS)
def test_attaining_weights_are_the_ones_the_row_was_scored_with(family):
    pair, cfg = FAMILY_WINS[family]()
    report = beta_estimate(pair, cfg)
    circle = report.attaining_circle
    row, = (r for r in report.per_circle
            if (r["center"], r["radius"]) == (circle.center, circle.radius))
    assert row["family"] == family and row["value"] == report.sup_value
    # the attaining circle restricted alone gives the row it had in its pass
    (_, data), = _reduced(pair, replace(cfg, circles=(circle,)))
    grid, w = data.integrand.grid, report.attaining_weights
    assert w.phi.grid.same_layout(grid) and w.psi.grid.same_layout(grid)
    if family == "constant":
        assert np.all(w.phi.values == 1.0) and np.all(w.psi.values == 1.0)
        assert _solve_weights(data)[-1][0] == report.sup_value
    elif family == "remark":
        assert w.phi.kind == w.psi.kind == data.integrand.kind
        rphi, rpsi = _remark_weights(data.integrand, data.det_ratio)
        assert np.array_equal(w.phi.values, rphi[0]) and np.array_equal(w.psi.values, rpsi[0])
        assert math.sqrt(w.phi.values.max() / w.psi.values.min()) == report.sup_value
    else:
        assert w.phi.kind == w.psi.kind == PIECEWISE
        starts = grid.segment_starts
        value = _arc_value(data, w.phi.values[starts], w.psi.values[starts])
        assert value[0] == report.sup_value


def _same_report(a, b):
    assert (a.bound, a.sup_value, a.certified_value, a.corollary, a.mu_zero, a.nu_zero) == (
        b.bound, b.sup_value, b.certified_value, b.corollary, b.mu_zero, b.nu_zero)
    assert a.per_circle == b.per_circle and a.attaining_circle == b.attaining_circle
    assert a.config == b.config
    for f, g in ((a.attaining_weights.phi, b.attaining_weights.phi),
                 (a.attaining_weights.psi, b.attaining_weights.psi)):
        assert f.kind == g.kind and np.array_equal(f.values, g.values)
        assert f.grid.same_layout(g.grid)


@pytest.mark.parametrize("family", FAMILY_WINS)
def test_report_pickles_before_and_after_its_weights_are_read(family):
    report = beta_estimate(*FAMILY_WINS[family]())
    unread = pickle.loads(pickle.dumps(report))
    assert "attaining_weights" not in vars(unread)
    _same_report(unread, report)  # reads the weights of both
    read = pickle.loads(pickle.dumps(report))
    assert "attaining_weights" in vars(read)
    _same_report(read, report)


@pytest.mark.parametrize("family", FAMILY_WINS)
def test_report_stores_one_row_of_weights(family):
    # copies of the attaining row, not views of its pass: no stored array is
    # longer than the attaining grid's node count, and each owns its data
    report = beta_estimate(*FAMILY_WINS[family]())
    nodes = report.attaining_weights.phi.grid.node_count
    stored = [v for v in vars(report).values() if isinstance(v, np.ndarray)]
    assert len(stored) == (0 if family == "constant" else 2)
    for a in stored:
        assert a.ndim == 1 and a.size <= nodes and a.base is None


def test_corollary_equals_nu_zero_when_nu_vanishes():
    rng = np.random.default_rng(59)
    for _ in range(10):
        bks = np.concatenate([[0.0], np.sort(rng.uniform(0.4, 6.0, 2))])
        g = AngularGrid.with_breakpoints(512, bks)
        pair = BeltramiPair.from_angular(
            PeriodicField.piecewise(g, rng.uniform(-0.5, 0.5, 3)),
            PeriodicField.piecewise(g, np.zeros(3)),
        )
        assert corollary_bound(pair, CFG) == beta_estimate(pair, CFG).nu_zero


def test_corollary_equals_mu_zero_for_origin_sweep():
    fam = build_family(3.0, 0.0, node_count=512)
    pair = fam.pair()
    assert corollary_bound(pair, CFG) == beta_estimate(pair, CFG).mu_zero


def test_mu_zero_takes_the_worst_circle():
    # a small circle inside the constant-nu arc [1, 2.5) contributes 1; the
    # origin circle sees every value of nu and sets the bound, as it sets the
    # corollary bound (with mu = 0 the integrand is 1, circle by circle)
    pair = BeltramiPair.from_profiles([0.0, 1.0, 2.5, 4.0], [0.0] * 4,
                                      [0.5, -0.3, 0.1, -0.6], node_count=512)
    small = CircleSpec(0.5 * np.exp(1.75j), 0.05, resolution=512)
    on = pair.on_circle(small)
    assert np.ptp(on.det.values) == 0.0
    cfg = SweepConfig(circles=CFG.circles + (small,), weight_pieces=8)
    assert beta_estimate(pair, SweepConfig(circles=(small,))).mu_zero == 1.0
    report = beta_estimate(pair, cfg)
    assert report.mu_zero < 0.5
    assert report.mu_zero == report.corollary
    assert abs(report.mu_zero - beta_estimate(pair, CFG).mu_zero) < 1e-12


def test_bounds_live_in_unit_interval():
    rng = np.random.default_rng(61)
    for _ in range(10):
        pair = random_angular_pair(rng)
        for b in (
            beta_estimate(pair, CFG).bound,
            corollary_bound(pair, CFG),
            classical_bound(pair),
        ):
            assert 0.0 < b <= 1.0


def test_report_structure():
    pair = BeltramiPair.radial_stretch(0.5, node_count=512)
    report = beta_estimate(pair, CFG)
    assert len(report.per_circle) == len(CFG.circles)
    assert report.attaining_circle in CFG.circles
    assert report.sup_value > 0
    # certified chain: the closed-form candidate alone already gives a bound
    assert report.certified_value >= report.sup_value - 1e-12
    assert 1.0 / report.certified_value <= report.bound + 1e-12


def test_more_circles_never_improve_the_bound():
    fam = build_family(2.0, 0.5, node_count=512)
    pair = fam.pair()
    single = beta_estimate(pair, CFG).bound
    wide = SweepConfig(
        circles=CFG.circles + (CircleSpec(0.2, 0.3, resolution=512),),
        weight_pieces=8,
    )
    assert beta_estimate(pair, wide).bound <= single + 1e-12


def test_complex_nu_rejected():
    pair = BeltramiPair.from_callables(lambda z: (0.1 * np.ones_like(z), 0.1j * np.ones_like(z)))
    with pytest.raises(ValueError):
        beta_estimate(pair, CFG)


def test_gamma_requires_symmetric_field():
    from beltbound.reduction import CoefficientMatrixField

    m = constant_matrix(2.0, 0.3, -0.3, 1.0)
    with pytest.raises(ValueError):
        gamma_estimate(m, CFG)


# ---------------------------------------------------------------------------
# properties: gamma of A and of A/det A, beta and the origin circle's radius

PROPERTY_SWEEPS = {
    "origin": SweepConfig.origin(resolution=128, weight_pieces=4),
    "lattice": SweepConfig.disk_lattice(radius_count=1, angle_count=4, resolution=128,
                                        weight_pieces=4),
}


def random_symmetric_field(kind, rng):
    """A symmetric elliptic field on the unit disk of one representation:
    piecewise angular, constant, or a callable."""
    if kind == "angular":
        pieces = int(rng.integers(2, 6))
        bks = np.concatenate([[0.0], np.sort(rng.uniform(0.4, TWO_PI - 0.4, pieces - 1))])
        k1, k2 = rng.uniform(0.3, 3.0, (2, pieces))
        return CoefficientMatrixField.from_angular_k(piecewise_k(bks, k1, k2, 128))
    if kind == "constant":
        a11, a22 = rng.uniform(0.3, 3.0, 2)
        a12 = rng.uniform(-0.9, 0.9) * np.sqrt(a11 * a22)
        return constant_matrix(a11, a12, a12, a22)
    c = rng.uniform(-0.3, 0.3, 5)
    return CoefficientMatrixField.from_callables(
        lambda z: (1.5 + c[0] * np.real(z), c[1] + c[2] * np.imag(z),
                   c[1] + c[2] * np.imag(z), 1.2 + c[3] * np.abs(z) ** 2 + c[4] * np.imag(z)))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["angular", "constant", "callable"]),
       sweep=st.sampled_from(sorted(PROPERTY_SWEEPS)), seed=st.integers(0, 2**32 - 1))
def test_gamma_of_a_equals_gamma_of_a_over_det(kind, sweep, seed):
    # I = nAn/sqrt(det) is the same for both fields and D is inverted, so
    # the weight pair (1/psi, 1/phi) scores on A/det A what (phi, psi) does on A
    m = random_symmetric_field(kind, np.random.default_rng(seed))
    cfg = PROPERTY_SWEEPS[sweep]
    a, h = gamma_estimate(m, cfg), gamma_estimate(normalize_matrix(m), cfg)
    assert h.sup_value == pytest.approx(a.sup_value, rel=1e-12, abs=0.0)
    assert h.bound == pytest.approx(a.bound, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), smooth=st.booleans(),
       radii=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2))
def test_beta_of_angular_pair_ignores_origin_circle_radius(seed, smooth, radii):
    # an origin circle of angular data reads the profiles at its grid nodes
    # alone, so its row does not depend on the radius, bit for bit
    rng = np.random.default_rng(seed)
    pair = random_angular_pair(rng, node_count=128)
    if smooth:
        g = AngularGrid.uniform(64)
        mu0, nu0 = 0.4 * np.tanh(rng.normal(size=(2, 2)) @ [np.cos(g.nodes), np.sin(g.nodes)])
        pair = BeltramiPair.from_angular(PeriodicField(g, mu0, SMOOTH), PeriodicField(g, nu0, SMOOTH))
    rows = []
    for radius in radii:
        report = beta_estimate(pair, SweepConfig.origin(radius=radius, resolution=128,
                                                        weight_pieces=4))
        rows.append((report.sup_value.hex(), dict(report.per_circle[0], radius=None)))
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# the reduction the bounds of one (source, sweep) share


def _spy_on_circles(monkeypatch, cls=BeltramiPair):
    """Record the circle count of every cls.on_circles call."""
    calls, original = [], cls.on_circles

    def spy(self, circles, extra_breakpoints=None):
        calls.append(len(circles))
        return original(self, circles, extra_breakpoints)

    monkeypatch.setattr(cls, "on_circles", spy)
    return calls


def _same_report(a, b):
    return (a.sup_value.hex() == b.sup_value.hex() and a.per_circle == b.per_circle
            and np.array_equal(a.attaining_weights.phi.values, b.attaining_weights.phi.values)
            and np.array_equal(a.attaining_weights.psi.values, b.attaining_weights.psi.values))


OFF_CENTRE = SweepConfig(circles=tuple(CircleSpec(0.1 * np.exp(2j * k), 0.5, resolution=128)
                                       for k in range(3)), weight_pieces=4)


@pytest.mark.parametrize("cfg", [CFG, OFF_CENTRE], ids=["origin", "off-centre"])
def test_corollary_after_beta_restricts_nothing(monkeypatch, cfg):
    # corollary_bound reads the last beta_estimate's report for the same
    # objects; every beta_estimate restricts, and a fresh corollary_bound
    # is the corollary of a fresh sweep, bit for bit
    calls = _spy_on_circles(monkeypatch)
    pair = random_angular_pair(np.random.default_rng(41))
    report = beta_estimate(pair, cfg)
    corollary = corollary_bound(pair, cfg)
    assert calls == [len(cfg.circles)]
    assert corollary.hex() == report.corollary.hex()
    assert _same_report(beta_estimate(pair, cfg), report)
    assert len(calls) == 2
    fresh = random_angular_pair(np.random.default_rng(41))
    assert corollary_bound(fresh, cfg).hex() == report.corollary.hex()
    assert len(calls) == 3


def test_corollary_reuses_the_sweeps_unit_values(monkeypatch):
    # right after beta_estimate, corollary_bound reads the report's
    # corollary: no objective evaluation at all
    pair = random_angular_pair(np.random.default_rng(43))
    report = beta_estimate(pair, CFG)
    scored, original = [], estimator._arc_value

    def spy(data, phi, psi):
        scored.append(np.shape(phi))
        return original(data, phi, psi)

    monkeypatch.setattr(estimator, "_arc_value", spy)
    assert corollary_bound(pair, CFG).hex() == report.corollary.hex()
    assert scored == []
    assert corollary_bound(pair, replace(CFG)).hex() == report.corollary.hex()
    # another config sweeps: the unit pair and a window, scored in one call
    assert scored == [(2, 1, report.per_circle[0]["arcs"])]


def test_shared_reduction_is_keyed_on_the_source_and_sweep(monkeypatch):
    # corollary_bound reuses a report only for the same objects: an equal
    # pair is another source, and an equal config, another weight_pieces or
    # another resolution is another sweep: each restricts again
    calls = _spy_on_circles(monkeypatch)
    pair = BeltramiPair.from_callables(lambda z: (0.3 * z, 0.2 * np.abs(z) + 0j))
    twin = BeltramiPair.from_callables(lambda z: (0.3 * z, 0.2 * np.abs(z) + 0j))
    circle = CircleSpec(0.1 + 0.2j, 0.5, resolution=256)
    cfg = SweepConfig(circles=(circle,), weight_pieces=4)
    base = beta_estimate(pair, cfg)
    assert corollary_bound(pair, cfg) == base.corollary and len(calls) == 1
    others = (replace(cfg, weight_pieces=3), replace(cfg, circles=(replace(circle, resolution=512),)))
    values = []
    for source, other in ((twin, cfg), (pair, replace(cfg)), *((pair, o) for o in others)):
        beta_estimate(pair, cfg)
        values.append(corollary_bound(source, other))
    assert len(calls) == 9
    assert values[:2] == [base.corollary] * 2
    assert values[2:] == [beta_estimate(pair, other).corollary for other in others]


def _own_arrays(pair):
    grid = pair.k.grid
    return grid.nodes, grid.breakpoints, grid.segment_starts, pair.k.k1.values, pair.k.k2.values


def test_passes_read_the_pairs_grid_or_a_read_only_one():
    # a piecewise origin pass reads the pair's own grid and values as they
    # are, and they stay writeable; a smooth pair's origin pass is on a
    # fresh grid that holds the weight arcs too, and only the off-centre
    # passes, whose geometry is cached, are on a read-only grid
    piecewise = random_angular_pair(np.random.default_rng(43))
    smooth = smooth_angular_pair(np.random.default_rng(43), 512)
    lattice = SweepConfig.disk_lattice(radius_count=1, resolution=128, weight_pieces=2)
    for pair in (piecewise, smooth):
        for cfg, passes in ((CFG, 1), (lattice, 2)):
            batches = [data for _, data in _reduced(pair, cfg)]
            assert len(batches) == passes
            for data in batches:
                grid = data.integrand.grid
                origin = data.circles[0].origin_centered
                assert (grid is pair.k.grid) == (pair is piecewise and origin)
                for a in (grid.nodes, grid.breakpoints, grid.segment_starts):
                    assert a.flags.writeable == origin
            assert all(a.flags.writeable for a in _own_arrays(pair))


def test_estimate_restricts_each_pass_once(monkeypatch):
    # with 256-point passes: two passes of 128-point circles, one pass of a
    # 512-point circle, three passes, or origin circles at resolution 16 on
    # a 128-node pair's own grid, two to a pass; each pass is restricted once
    # by beta and gamma estimates alike; corollary_bound after beta
    # restricts nothing
    monkeypatch.setattr(estimator, "_PASS_POINTS", 256)
    pair = random_angular_pair(np.random.default_rng(44))
    small = random_angular_pair(np.random.default_rng(44), node_count=128)
    assert small.k.grid.node_count == 128
    three = SweepConfig(circles=OFF_CENTRE.circles + OFF_CENTRE.circles[:2], weight_pieces=4)
    origins = SweepConfig(circles=tuple(CircleSpec(0.0, r, resolution=16) for r in (0.2, 0.4, 0.6)))
    for source, cfg, passes in ((pair, OFF_CENTRE, [2, 1]),
                              (pair, SweepConfig.origin(resolution=512), [1]),
                              (pair, three, [2, 2, 1]), (small, origins, [2, 1])):
        matrix = beltrami_to_matrices(source).B
        calls = _spy_on_circles(monkeypatch)
        report = beta_estimate(source, cfg)
        assert calls == passes
        assert corollary_bound(source, cfg).hex() == report.corollary.hex()
        assert calls == passes
        calls = _spy_on_circles(monkeypatch, CoefficientMatrixField)
        first = gamma_estimate(matrix, cfg)
        assert _same_report(gamma_estimate(matrix, cfg), first)
        assert calls == passes * 2
        assert first.mu_zero is first.nu_zero is None


def _count_resampling(monkeypatch):
    """Record every AngularGrid.with_breakpoints and PeriodicField.eval_wrapped
    call by name."""
    calls = []
    builds, lookups = AngularGrid.with_breakpoints.__func__, PeriodicField.eval_wrapped

    def build(cls, *args):
        calls.append("with_breakpoints")
        return builds(cls, *args)

    def lookup(self, t):
        calls.append("eval_wrapped")
        return lookups(self, t)

    monkeypatch.setattr(AngularGrid, "with_breakpoints", classmethod(build))
    monkeypatch.setattr(PeriodicField, "eval_wrapped", lookup)
    return calls


def test_origin_sweep_reads_the_pairs_own_grid(monkeypatch):
    # at any resolution an origin sweep of piecewise data builds no grid and
    # resamples nothing: it reads k's grid and node values as they are, also
    # for a pair whose node count is not the one it was built for, and it
    # leaves the pair's own arrays writeable
    off_count = BeltramiPair.from_profiles([0.0, 1.0, 2.5, 4.0], [0.1, 0.3, -0.2, 0.0],
                                           [0.2, 0.0, 0.1, -0.3], node_count=512)
    assert off_count.k.grid.node_count == 511
    for pair in (criterion_6_pair(np.random.default_rng(45)), off_count):
        assert all(a.flags.writeable for a in _own_arrays(pair))
        for resolution in (pair.k.grid.node_count, 256, 512, 1000):
            cfg = SweepConfig.origin(resolution=resolution)
            calls = _count_resampling(monkeypatch)
            report = beta_estimate(pair, cfg)
            (_, data), = _reduced(pair, cfg)
            monkeypatch.undo()
            assert calls == [] and data.integrand.grid is pair.k.grid
            assert report.per_circle[0]["nodes"] == pair.k.grid.node_count
            assert report.per_circle[0]["arcs"] == pair.k.grid.breakpoints.size
            assert all(a.flags.writeable for a in _own_arrays(pair))


def test_origin_row_off_the_pairs_node_count_is_the_rebuilt_pairs_row():
    # at another resolution the origin circle still reads the pair's own
    # grid and reports its node count; I and D are constant on each
    # coefficient arc, so the row is that of the same pieces built at that
    # resolution, to rounding.  Arcs of whole 64ths of the circle split any
    # multiple of 64 nodes exactly
    rng = np.random.default_rng(46)
    for resolution in (256, 1024, 2048):
        pieces = int(rng.integers(2, 9))
        bks = TWO_PI * np.concatenate([[0], np.sort(rng.choice(np.arange(1, 64), pieces - 1,
                                                                replace=False))]) / 64
        mu0, nu0 = rng.uniform(-0.45, 0.45, (2, pieces))
        pair = BeltramiPair.from_profiles(bks, mu0, nu0, node_count=512)
        rebuilt = BeltramiPair.from_profiles(bks, mu0, nu0, node_count=resolution)
        cfg = SweepConfig.origin(resolution=resolution)
        assert rebuilt.k.grid.node_count == resolution != pair.k.grid.node_count
        (row,), (expected,) = (beta_estimate(p, cfg).per_circle for p in (pair, rebuilt))
        (_, data), = _reduced(pair, cfg)
        assert data.integrand.grid is pair.k.grid
        assert row["nodes"] == pair.k.grid.node_count
        for key in ("family", "arcs", "evaluations"):
            assert row[key] == expected[key]
        for key in ("value", "constant_value", "remark_value"):
            assert row[key] == pytest.approx(expected[key], rel=1e-12, abs=0.0)


_NU_ZERO_POINTWISE = BeltramiPair.from_callables(lambda z: (0.3 * z * np.abs(z), 0.0 * z))
_MU_ZERO_ANGULAR = BeltramiPair.from_profiles([0.0, 1.0, 2.5, 4.0], [0.0] * 4,
                                              [0.5, -0.3, 0.1, -0.6], node_count=128)
_LATTICE_2 = SweepConfig.disk_lattice(radius_count=2, resolution=128, weight_pieces=2)


@pytest.mark.parametrize("pair, key, cfg, passes", [
    (BeltramiPair.radial_stretch(0.5, node_count=128), "nu_zero", CFG, [1]),
    (_MU_ZERO_ANGULAR, "mu_zero", CFG, [1]),
    (BeltramiPair.radial_stretch(0.5, node_count=128), "nu_zero", _LATTICE_2, [1, 16]),
    (_MU_ZERO_ANGULAR, "mu_zero", _LATTICE_2, [1, 16]),
    (_NU_ZERO_POINTWISE, "nu_zero", _LATTICE_2, [17]),
], ids=["origin-nu0", "origin-mu0", "angular-lattice-nu0", "angular-lattice-mu0",
        "pointwise-lattice-nu0"])
def test_bounds_after_beta_restrict_nothing(monkeypatch, pair, key, cfg, passes):
    # one estimate restricts each pass once and reports the mu = 0 or nu = 0
    # bound, which is its corollary; corollary_bound after it reads the
    # report.  A pointwise lattice is one grid, so one pass
    calls = _spy_on_circles(monkeypatch)
    report = beta_estimate(pair, cfg)
    assert calls == passes
    assert getattr(report, key).hex() == report.corollary.hex()
    assert corollary_bound(pair, cfg).hex() == report.corollary.hex()
    assert calls == passes


@settings(max_examples=40, deadline=None)
@given(pair=criterion_6_pairs(), scale=st.floats(1e-2, 1e2),
       distance=st.floats(0.1, 0.8), angle=st.floats(0.0, TWO_PI),
       ratio=st.sampled_from([0.3, 0.6, 0.9, 1.2, 1.6]))
def test_circle_value_is_scale_invariant(pair, scale, distance, angle, ratio):
    # mu and nu depend on arg z alone, so the circle (lambda c, lambda r) sees
    # what (c, r) sees; ratio r/|c| != 1 keeps it off the origin
    center = distance * np.exp(1j * angle)
    circles = [CircleSpec(s * center, s * ratio * distance, resolution=256) for s in (1.0, scale)]
    values = [beta_estimate(pair, SweepConfig(circles=(c,), weight_pieces=4)).sup_value
              for c in circles]
    assert values[1] == pytest.approx(values[0], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# the source-free circle geometry a lattice sweep keeps


def _count_circle_points(monkeypatch):
    calls, original = [], reduction.circle_points

    def spy(circles, grid):
        calls.append(len(circles))
        return original(circles, grid)

    monkeypatch.setattr(reduction, "circle_points", spy)
    return calls


def test_lattice_geometry_is_built_once(monkeypatch):
    # the off-centre circles of a lattice are placed once for every pair;
    # the origin circle of angular data is on each pair's own grid
    reduction._circle_geometry.cache_clear()
    calls = _count_circle_points(monkeypatch)
    lattice = SweepConfig.disk_lattice(radius_count=1, resolution=128, weight_pieces=2)
    rng = np.random.default_rng(45)
    for _ in range(2):
        beta_estimate(random_angular_pair(rng, node_count=128), lattice)
        assert lattice is SweepConfig.disk_lattice(radius_count=1, resolution=128,
                                                   weight_pieces=2)
    assert calls == [8]


def test_cached_geometry_is_read_only():
    circles = SweepConfig.disk_lattice(radius_count=1, resolution=128).circles[1:]
    for angular in (True, False):
        grid, geometry = reduction._circle_geometry(circles, (0.0, np.pi), angular)
        for a in (*geometry, grid.nodes, grid.breakpoints, grid.segment_starts):
            with pytest.raises(ValueError):
                a[..., 0] = 1.0


@pytest.mark.parametrize("pair", [
    random_angular_pair(np.random.default_rng(46), node_count=128),
    BeltramiPair.from_callables(lambda z: (0.3 * z * np.abs(z), 0.2 * np.real(z) + 0j)),
], ids=["angular", "pointwise"])
def test_reports_equal_with_geometry_cleared_and_warm(pair):
    lattice = SweepConfig.disk_lattice(radius_count=1, resolution=128, weight_pieces=2)
    reduction._circle_geometry.cache_clear()
    cold = beta_estimate(pair, lattice)
    assert reduction._circle_geometry.cache_info().currsize > 0
    warm = beta_estimate(pair, lattice)
    assert reduction._circle_geometry.cache_info().hits > 0
    assert _same_report(warm, cold)


def test_origin_batches_of_angular_data_bypass_the_geometry_cache():
    # their grid holds the pair's breakpoints, so they would evict the
    # off-centre entry every job
    pair = random_angular_pair(np.random.default_rng(47), node_count=128)
    reduction._circle_geometry.cache_clear()
    beta_estimate(pair, SweepConfig.origin(resolution=128, weight_pieces=2))
    info = reduction._circle_geometry.cache_info()
    assert info.hits == info.misses == 0
    beta_estimate(pair, SweepConfig.disk_lattice(radius_count=1, resolution=128,
                                                 weight_pieces=2))
    assert reduction._circle_geometry.cache_info().currsize == 1
