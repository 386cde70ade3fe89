"""Weighted circle functionals and the exponent bounds they certify."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltbound.estimator import (
    SweepConfig,
    beta_estimate,
    circle_integrand,
    classical_bound,
    corollary_bound,
    gamma_estimate,
    mu_zero_bound,
    nu_zero_bound,
    remark_weights,
    weighted_objective,
)
from beltbound.periodic_fields import (
    SMOOTH,
    TWO_PI,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    field_extrema,
)
from beltbound.reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    beltrami_to_matrices,
    normalize_matrix,
)
from beltbound.sharp_family import build_family
from beltbound.stretching import KProfile, k_from_munu

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
    pair = BeltramiPair.from_constant(0.0, 0.0)
    assert beta_estimate(pair, CFG).bound == 1.0
    assert corollary_bound(pair, CFG) == 1.0
    assert classical_bound(pair) == 1.0
    assert nu_zero_bound(pair, CFG) == 1.0


def test_radial_stretch_equalities():
    for alpha in (0.25, 0.5, 0.75):
        pair = BeltramiPair.radial_stretch(alpha, node_count=512)
        assert abs(classical_bound(pair) - alpha) < 1e-12
        assert abs(corollary_bound(pair, CFG) - alpha) < 1e-12
        assert abs(beta_estimate(pair, CFG).bound - alpha) < 1e-12
        assert abs(nu_zero_bound(pair, CFG) - alpha) < 1e-12


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
    assert abs(nu_zero_bound(pair, CFG) - 0.7036519950033066) < 1e-12


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
        assert abs(nu_zero_bound(pair, CFG) - expected) < 1e-10


def test_nu_zero_rejects_nonzero_nu():
    pair = BeltramiPair.from_constant(0.0, 0.2)
    with pytest.raises(ValueError):
        nu_zero_bound(pair, CFG)


def test_mu_zero_constant_nu_is_one():
    pair = BeltramiPair.from_constant(0.0, 0.35)
    assert abs(mu_zero_bound(pair, CFG) - 1.0) < 1e-12


def test_mu_zero_two_valued_nu_gives_arctan_value():
    for M, d in [(2.0, D_M2), (4.0, D_M4)]:
        fam = build_family(M, 0.0, node_count=512)
        pair = fam.pair()
        assert abs(mu_zero_bound(pair, CFG) - d) < 1e-12


def test_mu_zero_rejects_nonzero_mu():
    pair = BeltramiPair.from_constant(0.2, 0.0)
    with pytest.raises(ValueError):
        mu_zero_bound(pair, CFG)


def test_classical_bound_value():
    pair = BeltramiPair.from_constant(1.0 / 3.0, 0.0)
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
        on = pair.on_circle(CircleSpec(0.0, 0.5, resolution=512))
        w = remark_weights(on)
        (phi_lo, phi_hi), (psi_lo, psi_hi) = field_extrema(w.phi), field_extrema(w.psi)
        assert phi_lo > 0 and psi_lo > 0
        K = pair.distortion_bound()
        assert phi_hi / psi_lo <= K**2 + 1e-10
        # the remark integrand is identically one: quadrature-free value
        integ = circle_integrand(on, w)
        assert np.max(np.abs(integ.values - 1.0)) < 1e-12


def test_objective_equal_for_normalized_matrix():
    rng = np.random.default_rng(41)
    for _ in range(20):
        pair = random_angular_pair(rng)
        m = CoefficientMatrixField.from_angular_k(k_from_munu(pair.mu0, pair.nu0))
        mh = normalize_matrix(m)
        circle = CircleSpec(0.0, 0.6, resolution=512)
        on_a = m.on_circle(circle)
        on_h = mh.on_circle(circle)
        rngw = np.random.default_rng(17)
        g = on_a.nAn.grid
        w = np.exp(rngw.normal(0.0, 0.3, (2, g.node_count)))
        from beltbound.estimator import WeightPair

        wp = WeightPair(
            PeriodicField(g, w[0], on_a.nAn.kind),
            PeriodicField(g, w[1], on_a.nAn.kind),
        )
        wp_swapped = WeightPair(
            PeriodicField(g, 1.0 / w[1], on_a.nAn.kind),
            PeriodicField(g, 1.0 / w[0], on_a.nAn.kind),
        )
        v1 = weighted_objective(on_a, wp)
        v2 = weighted_objective(on_h, wp_swapped)
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


def test_beta_equals_gamma_of_reduction_matrix():
    rng = np.random.default_rng(43)
    for _ in range(5):
        pair = random_angular_pair(rng)
        m = beltrami_to_matrices(pair).B
        b = beta_estimate(pair, CFG).bound
        gm = gamma_estimate(m, CFG).bound
        assert abs(b - gm) < 1e-10


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


def test_corollary_equals_nu_zero_when_nu_vanishes():
    rng = np.random.default_rng(59)
    for _ in range(10):
        bks = np.concatenate([[0.0], np.sort(rng.uniform(0.4, 6.0, 2))])
        g = AngularGrid.with_breakpoints(512, bks)
        pair = BeltramiPair.from_angular(
            PeriodicField.piecewise(g, rng.uniform(-0.5, 0.5, 3)),
            PeriodicField.piecewise(g, np.zeros(3)),
        )
        assert abs(corollary_bound(pair, CFG) - nu_zero_bound(pair, CFG)) < 1e-12


def test_corollary_equals_mu_zero_for_origin_sweep():
    fam = build_family(3.0, 0.0, node_count=512)
    pair = fam.pair()
    assert abs(corollary_bound(pair, CFG) - mu_zero_bound(pair, CFG)) < 1e-12


def test_mu_zero_takes_the_worst_circle():
    # a small circle inside the constant-nu arc [1, 2.5) contributes 1; the
    # origin circle sees every value of nu and sets the bound, as it sets the
    # corollary bound (with mu = 0 the integrand is 1, circle by circle)
    pair = BeltramiPair.from_profiles([0.0, 1.0, 2.5, 4.0], [0.0] * 4,
                                      [0.5, -0.3, 0.1, -0.6], node_count=512)
    small = CircleSpec(0.5 * np.exp(1.75j), 0.05, resolution=512)
    on = pair.on_circle(small)
    assert np.ptp(on.nu.values.real) == 0.0
    cfg = SweepConfig(circles=CFG.circles + (small,), weight_pieces=8)
    assert mu_zero_bound(pair, SweepConfig(circles=(small,))) == 1.0
    assert mu_zero_bound(pair, cfg) < 0.5
    assert abs(mu_zero_bound(pair, cfg) - corollary_bound(pair, cfg)) < 1e-12
    assert abs(mu_zero_bound(pair, cfg) - mu_zero_bound(pair, CFG)) < 1e-12


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
    pair = BeltramiPair.from_callables(
        lambda z: 0.1 * np.ones_like(z), lambda z: 0.1j * np.ones_like(z)
    )
    with pytest.raises(ValueError):
        beta_estimate(pair, CFG)


def test_gamma_requires_symmetric_field():
    from beltbound.reduction import CoefficientMatrixField

    m = CoefficientMatrixField.constant(2.0, 0.3, -0.3, 1.0)
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
        return CoefficientMatrixField.from_angular_k(KProfile.piecewise(bks, k1, k2, 128))
    if kind == "constant":
        a11, a22 = rng.uniform(0.3, 3.0, 2)
        a12 = rng.uniform(-0.9, 0.9) * np.sqrt(a11 * a22)
        return CoefficientMatrixField.constant(a11, a12, a12, a22)
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
