"""Acceptance gate: every release criterion, one printed line each.

Run with plain pytest; the pass/fail lines bypass capture so they show up
in any mode.  Each criterion carries its runtime budget in the assertion.
"""

import math
import time

import numpy as np

from beltbound.estimator import (
    SweepConfig,
    WeightPair,
    beta_estimate,
    classical_bound,
    corollary_bound,
    mu_zero_bound,
)
from beltbound.periodic_fields import TWO_PI, CircleSpec, PeriodicField
from beltbound.reduction import (
    BeltramiPair,
    beltrami_to_matrices,
    matrix_to_beltrami,
    normalize_matrix,
)
from beltbound.sharp_family import build_family, build_maps, cd_params
from beltbound.stretching import (
    AngularStretching,
    KProfile,
    differential_quantities,
    distortion_from_k,
    eval_system_solution,
    find_periodic_alpha,
    sl_weak_residuals,
    solve_system,
)
from beltbound.verify import (
    PolarGrid,
    beltrami_residual,
    empirical_holder,
    weak_form_residual,
)


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_angular_pair(rng, node_count=512):
    pieces = int(rng.integers(2, 6))
    bks = np.concatenate([[0.0], np.sort(rng.uniform(0.3, TWO_PI - 0.3, pieces - 1))])
    mu0 = rng.uniform(-0.6, 0.6, pieces)
    nu0 = rng.uniform(-0.6, 0.6, pieces)
    total = np.abs(mu0) + np.abs(nu0)
    cap = rng.uniform(0.3, 0.85, pieces)
    shrink = np.where(total > 0, np.minimum(1.0, cap / np.maximum(total, 1e-9)), 1.0)
    return BeltramiPair.from_profiles(bks, mu0 * shrink, nu0 * shrink, node_count=node_count)


def test_criterion_1_radial_sharpness(capsys):
    cfg = SweepConfig.origin(resolution=512, weight_pieces=8)
    worst = 0.0
    slowest = 0.0
    for alpha in (0.25, 0.5, 0.75):
        t0 = time.perf_counter()
        pair = BeltramiPair.radial_stretch(alpha)
        vals = (
            classical_bound(pair),
            corollary_bound(pair, cfg),
            beta_estimate(pair, cfg).bound,
        )
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, *(abs(v - alpha) for v in vals))
    ok = worst < 1e-6 and slowest < 1.0
    announce(capsys, 1, ok,
             f"radial bounds match alpha, max dev {worst:.2e}, slowest {slowest:.2f}s")


def test_criterion_2_sharp_exponent_tau_zero(capsys):
    t0 = time.perf_counter()
    cfg = SweepConfig.origin(resolution=512, weight_pieces=8)
    worst_rel = 0.0
    worst_mu = 0.0
    for M in (2.0, 4.0):
        fam = build_family(M, 0.0, node_count=1024)
        d = fam.d
        beta = beta_estimate(fam.pair(), cfg).bound
        worst_rel = max(worst_rel, abs(beta - d) / d)
        worst_mu = max(worst_mu, abs(mu_zero_bound(fam.pair(), cfg) - d))
    dt = time.perf_counter() - t0
    ok = worst_rel < 0.02 and worst_mu < 1e-10 and dt < 30.0
    announce(capsys, 2, ok,
             f"tau=0 beta rel dev {worst_rel:.2e}, mu-zero dev {worst_mu:.2e}, {dt:.1f}s")


def test_criterion_3_sharp_exponent_tau_one(capsys):
    t0 = time.perf_counter()
    cfg = SweepConfig.origin(resolution=512, weight_pieces=8)
    fam = build_family(1.5, 1.0, node_count=1024)
    target = (1.0 + 1.0 / 1.5) / 2.0
    beta = beta_estimate(fam.pair(), cfg).bound
    rel = abs(beta - target) / target
    dt = time.perf_counter() - t0
    ok = rel < 0.02 and dt < 30.0
    announce(capsys, 3, ok, f"tau=1 beta rel dev {rel:.2e}, {dt:.1f}s")


def test_criterion_4_mixed_case(capsys):
    t0 = time.perf_counter()
    cfg = SweepConfig.origin(resolution=512, weight_pieces=8)
    fam = build_family(1.5, 0.5, node_count=1024)
    mu_live = np.max(np.abs(fam.mu0.values)) > 1e-3
    nu_live = np.max(np.abs(fam.nu0.values)) > 1e-3
    beta = beta_estimate(fam.pair(), cfg).bound
    classical = classical_bound(fam.pair())
    stretch, _ = build_maps(fam)
    res = beltrami_residual(stretch, fam.pair()).max_residual
    dt = time.perf_counter() - t0
    ok = mu_live and nu_live and beta > classical and res < 1e-8 and dt < 30.0
    announce(capsys, 4, ok,
             f"mixed family live coefficients, beta {beta:.4f} > classical "
             f"{classical:.4f}, residual {res:.2e}, {dt:.1f}s")


def test_criterion_5_reduction_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    circle = CircleSpec(0.0, 0.5, resolution=128)
    worst_rt = worst_tilde = worst_gamma = 0.0
    z = np.array([0.3 + 0.4j])
    for _ in range(1000):
        r_mu = rng.uniform(0.0, 0.75)
        mu = r_mu * np.exp(1j * rng.uniform(0.0, TWO_PI))
        nu = rng.uniform(-0.9, 0.9) * (0.97 - r_mu)
        pair = BeltramiPair.from_constant(mu, nu)
        red = beltrami_to_matrices(pair)
        bmu, bnu = matrix_to_beltrami(red.B).constants
        worst_rt = max(worst_rt, abs(bmu - mu), abs(bnu - nu))
        b = np.array(red.B.entries(z)).reshape(2, 2)
        bt = np.array(red.B_tilde.entries(z)).reshape(2, 2)
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        worst_tilde = max(worst_tilde, float(np.max(np.abs(bt - b / det))))
        on_a = red.B.on_circle(circle)
        on_h = normalize_matrix(red.B).on_circle(circle)
        g = on_a.nAn.grid
        w = np.exp(rng.normal(0.0, 0.3, (2, g.node_count)))
        from beltbound.estimator import weighted_objective

        v1 = weighted_objective(
            on_a,
            WeightPair(PeriodicField(g, w[0], on_a.nAn.kind),
                       PeriodicField(g, w[1], on_a.nAn.kind)),
        )
        v2 = weighted_objective(
            on_h,
            WeightPair(PeriodicField(g, 1.0 / w[1], on_a.nAn.kind),
                       PeriodicField(g, 1.0 / w[0], on_a.nAn.kind)),
        )
        worst_gamma = max(worst_gamma, abs(v1 - v2) / max(1.0, abs(v1)))
    dt = time.perf_counter() - t0
    ok = worst_rt < 1e-12 and worst_tilde < 1e-12 and worst_gamma < 1e-12 and dt < 5.0
    announce(capsys, 5, ok,
             f"1000 pairs: round-trip {worst_rt:.2e}, tilde {worst_tilde:.2e}, "
             f"gamma identity {worst_gamma:.2e}, {dt:.1f}s")


def test_criterion_6_ordering(capsys):
    t0 = time.perf_counter()
    cfg = SweepConfig.origin(resolution=256, weight_pieces=8)
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(200):
        pair = random_angular_pair(rng)
        beta = beta_estimate(pair, cfg).bound
        if beta < corollary_bound(pair, cfg) - 1e-12:
            violations += 1
        if beta < classical_bound(pair) - 1e-12:
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 60.0
    announce(capsys, 6, ok, f"200 pairs, {violations} ordering violations, {dt:.1f}s")


def test_criterion_7_ode_machinery(capsys):
    t0 = time.perf_counter()
    worst_const = 0.0
    for k_val in (1.7, 0.6):
        prof = KProfile.constant(k_val, 1.0 / k_val)
        for n in (1, 2):
            got = find_periodic_alpha(prof, branch=n)
            worst_const = max(worst_const, abs(got - n / k_val))
    worst_sharp = worst_nodes = worst_sl = 0.0
    for M, tau in [(2.0, 0.0), (1.5, 1.0), (1.5, 0.5)]:
        fam = build_family(M, tau, node_count=512)
        worst_sharp = max(worst_sharp, abs(find_periodic_alpha(fam.k) - fam.alpha))
        v0 = (fam.theta1.values[0], fam.theta2.values[0])
        e1, e2, _, _ = eval_system_solution(fam.k, fam.alpha, v0, fam.grid.nodes)
        worst_nodes = max(
            worst_nodes,
            float(np.max(np.abs(e1 - fam.theta1.values))),
            float(np.max(np.abs(e2 - fam.theta2.values))),
        )
        s = solve_system(fam.k, fam.alpha)
        for comp in (1, 2):
            _, rel = sl_weak_residuals(fam.k, s, component=comp)
            worst_sl = max(worst_sl, float(np.max(np.abs(rel))))
    dt = time.perf_counter() - t0
    ok = (worst_const < 1e-9 and worst_sharp < 1e-9
          and worst_nodes < 1e-10 and worst_sl < 1e-8 and dt < 5.0)
    announce(capsys, 7, ok,
             f"const-k alpha {worst_const:.2e}, family alpha {worst_sharp:.2e}, "
             f"node dev {worst_nodes:.2e}, SL residual {worst_sl:.2e}, {dt:.1f}s")


def test_criterion_8_verification_suite(capsys):
    t0 = time.perf_counter()
    worst_slope = math.inf
    for M, tau in [(2.0, 0.0), (1.5, 0.5)]:
        fam = build_family(M, tau, node_count=512)
        red = beltrami_to_matrices(fam.pair())
        grid = PolarGrid.annulus(radius_count=10, node_count=128,
                                 breakpoints=fam.breakpoints)
        rep = weak_form_residual(lambda z: np.real(fam.map_at(z)), red.B,
                                 grid, refinements=2)
        worst_slope = min(worst_slope, rep.slope)
    worst_exp = 0.0
    for f, alpha in [
        (AngularStretching.identity(256), 1.0),
        (AngularStretching.radial(0.5, 256), 0.5),
        (build_family(4.0, 0.0, node_count=512).map_at, cd_params(4.0, 0.0)[1]),
    ]:
        slope, _ = empirical_holder(f)
        worst_exp = max(worst_exp, abs(slope - alpha))
    dt = time.perf_counter() - t0
    ok = worst_slope >= 1.0 and worst_exp < 0.01 and dt < 60.0
    announce(capsys, 8, ok,
             f"weak-form slope {worst_slope:.2f}, exponent dev {worst_exp:.2e}, {dt:.1f}s")


def test_criterion_9_distortion_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_eig = 0.0
    for _ in range(5):
        pieces = int(rng.integers(2, 5))
        bks = np.concatenate([[0.0], np.sort(rng.uniform(0.5, TWO_PI - 0.5, pieces - 1))])
        k1 = rng.uniform(0.5, 2.0, pieces)
        k2 = rng.uniform(0.5, 2.0, pieces)
        prof = KProfile.piecewise(bks, k1, k2, node_count=512)
        s = solve_system(prof, find_periodic_alpha(prof))
        _, _, dist = differential_quantities(s)
        closed = distortion_from_k(prof, s.eta1.values, s.eta2.values)
        worst_eig = max(worst_eig, float(np.max(np.abs(dist - closed))))
    worst_radial_ulp = 0.0
    for alpha in (0.25, 0.5, 0.7):
        _, _, dist = differential_quantities(AngularStretching.radial(alpha, 256))
        target = max(alpha, 1.0 / alpha)
        worst_radial_ulp = max(
            worst_radial_ulp,
            abs(float(np.max(dist)) - target) / np.spacing(target),
        )
    dt = time.perf_counter() - t0
    # "exactly" read as machine exact: the eigen route rounds a few times
    ok = worst_eig < 1e-10 and worst_radial_ulp <= 4.0 and dt < 1.0
    announce(capsys, 9, ok,
             f"eigen vs closed {worst_eig:.2e}, radial within "
             f"{worst_radial_ulp:.0f} ulp, {dt:.2f}s")
