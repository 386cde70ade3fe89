"""The four-arc piecewise family and its closed-form profiles."""

import math
import re

import numpy as np
import pytest
from helpers import differential_quantities, matrix_det, profiles_at

from beltbound.periodic_fields import TWO_PI, wrap_angle
from beltbound.reduction import CoefficientMatrixField
from beltbound.sharp_family import (
    _profile_samples,
    build_family,
    build_maps,
    cd_params,
)
from beltbound.stretching import eval_stretching, injectivity_check

# frozen targets: d = (4/pi) arctan M^{-(1-tau)/2} evaluated independently
D_TAU0 = {1.5: 0.8718115663020503, 2.0: 0.7836531040612146, 4.0: 0.590334470601733}


def test_cd_params_frozen_values():
    for M, d in D_TAU0.items():
        c, dv = cd_params(M, 0.0)
        assert c == 1.0
        assert abs(dv - d) < 1e-15
    c, d = cd_params(3.0, 1.0)
    assert d == 1.0
    assert abs(d / c - 2.0 / 3.0) < 1e-15
    c, d = cd_params(1.5, 1.0)
    assert abs(d / c - 5.0 / 6.0) < 1e-15


def test_cd_params_validation():
    with pytest.raises(ValueError):
        cd_params(1.0, 0.5)
    with pytest.raises(ValueError):
        cd_params(2.0, -0.1)
    with pytest.raises(ValueError):
        cd_params(2.0, 1.1)


def test_build_family_rejects_m_beyond_float_range():
    # at tau = 1 the weighted arcs shrink like pi/M; at tau = 0 |mu|+|nu|
    # = (M - 1)/(M + 1) rounds to 1, and M^2 overflows at 1e300
    for M, tau in ((1e12, 1.0), (1e20, 0.0), (1e300, 0.0)):
        with pytest.raises(ValueError, match=re.escape(f"M={M:g}, tau={tau:g}")):
            build_family(M, tau, node_count=256)
    build_family(1e8, 1.0, node_count=256)
    build_family(1e9, 0.0, node_count=256)


def test_junction_identity():
    # tan(d pi / 4) = M^{-(1-tau)/2} ties the two arc solutions together
    for M in (1.2, 2.0, 5.0):
        for tau in (0.0, 0.3, 0.7, 1.0):
            _, d = cd_params(M, tau)
            assert abs(math.tan(d * math.pi / 4.0) - M ** (-(1.0 - tau) / 2.0)) < 1e-14


def test_profiles_continuous_at_breakpoints():
    fam = build_family(2.0, 0.4, node_count=1024)
    for b in fam.breakpoints:
        left = profiles_at(fam, b - 1e-11)
        right = profiles_at(fam, b + 1e-11)
        # values are continuous; derivatives jump with the coefficients
        assert abs(left[0] - right[0]) < 1e-9
        assert abs(left[1] - right[1]) < 1e-9


def test_profiles_satisfy_coupled_system():
    for M, tau in [(2.0, 0.0), (4.0, 0.0), (1.5, 1.0), (1.5, 0.5), (3.0, 0.8)]:
        fam = build_family(M, tau, node_count=512)
        a = fam.alpha
        th1, th2 = fam.stretch.eta1.values, fam.stretch.eta2.values
        k1 = fam.k.k1.values
        k2 = fam.k.k2.values
        assert np.max(np.abs(fam.stretch.deta1 + a / k2 * th2)) < 1e-13
        assert np.max(np.abs(fam.stretch.deta2 - a * k1 * th1)) < 1e-13


def test_half_turn_antisymmetry():
    fam = build_family(2.5, 0.6, node_count=512)
    t = np.linspace(0.0, math.pi, 200, endpoint=False)
    th1, th2, _, _ = profiles_at(fam, t)
    sh1, sh2, _, _ = profiles_at(fam, t + math.pi)
    assert np.max(np.abs(sh1 + th1)) < 1e-13
    assert np.max(np.abs(sh2 + th2)) < 1e-13


def test_coefficients_vanish_per_parameter():
    for M in (1.5, 3.0):
        fam = build_family(M, 0.0, node_count=256)
        assert np.max(np.abs(fam.mu0.values)) == 0.0
        assert np.max(np.abs(fam.nu0.values)) > 0.1
        fam = build_family(M, 1.0, node_count=256)
        assert np.max(np.abs(fam.nu0.values)) == 0.0
        assert np.max(np.abs(fam.mu0.values)) > 0.1
        fam = build_family(M, 0.5, node_count=256)
        assert np.max(np.abs(fam.mu0.values)) > 0.0
        assert np.max(np.abs(fam.nu0.values)) > 0.0


def test_tau_one_constants_frozen():
    # M = 3, tau = 1: second-arc mu0 = (3 - 1/3)/(1 + 3 + 1/3 + 1) = 1/2
    fam = build_family(3.0, 1.0, node_count=256)
    hi = np.max(np.abs(fam.mu0.values))
    assert abs(hi - 0.5) < 1e-14


def test_arc_lengths():
    M, tau = 2.0, 0.3
    fam = build_family(M, tau, node_count=512)
    c = fam.c
    b = fam.breakpoints
    assert abs(b[1] - c * math.pi / 2.0) < 1e-15
    assert abs(b[2] - math.pi) < 1e-15
    # second arc shrinks like M^{-tau} relative to c pi / 2 scaling
    assert abs((math.pi - b[1]) - (1.0 - c / 2.0) * math.pi) < 1e-12


def test_degenerate_limit_m_to_one():
    fam = build_family(1.0 + 1e-9, 0.5, node_count=256)
    assert abs(fam.alpha - 1.0) < 1e-8
    assert np.max(np.abs(fam.mu0.values)) < 1e-9
    assert np.max(np.abs(fam.nu0.values)) < 1e-9


def test_pair_and_matrix_consistency():
    fam = build_family(2.0, 0.5, node_count=512)
    pair = fam.pair()
    assert pair.is_angular
    assert pair.distortion_bound() < np.inf
    m = CoefficientMatrixField.from_angular_k(fam.k)
    z = 0.5 * np.exp(1j * np.linspace(0.1, 6.2, 30))
    det = matrix_det(m, z)
    k1 = fam.k.k1.eval_at(np.angle(z) % TWO_PI)
    k2 = fam.k.k2.eval_at(np.angle(z) % TWO_PI)
    assert np.max(np.abs(det - k1 * k2)) < 1e-12


def test_maps_agree_with_exact_evaluation():
    fam = build_family(4.0, 0.0, node_count=1024)
    stretch, scalar = build_maps(fam)
    rng = np.random.default_rng(23)
    z = rng.uniform(0.2, 0.9, 40) * np.exp(1j * rng.uniform(0.0, TWO_PI, 40))
    exact = fam.map_at(z)
    interp = eval_stretching(stretch, z)
    assert np.max(np.abs(exact - interp)) < 1e-5  # linear interp between nodes
    assert np.max(np.abs(scalar(z) - np.real(exact))) < 1e-5
    assert scalar(np.array([0.0]))[0] == 0.0


def two_pair_profile_samples(M, tau, c, d, theta):
    """The profiles with sin and cos taken of both arc arguments at every point."""
    t = wrap_angle(np.asarray(theta, dtype=float))
    half = t >= math.pi
    base = np.where(half, t - math.pi, t)
    sign = np.where(half, -1.0, 1.0)
    amp = M ** ((1.0 - tau) / 2.0)
    rate1, rate2, cut = d / c, d * M**tau / c, c * math.pi / 2.0
    on1 = t < np.where(half, math.pi + cut, cut)
    arg1 = rate1 * base - d * math.pi / 4.0
    arg2 = rate2 * (base - cut) - d * math.pi / 4.0
    sin1, cos1, sin2, cos2 = np.sin(arg1), np.cos(arg1), np.sin(arg2), np.cos(arg2)
    th1 = np.where(on1, sin1, cos2 / amp)
    th2 = np.where(on1, -cos1, amp * sin2)
    dth1 = np.where(on1, rate1 * cos1, -rate2 * sin2 / amp)
    dth2 = np.where(on1, rate1 * sin1, rate2 * amp * cos2)
    return sign * th1, sign * th2, sign * dth1, sign * dth2


def test_profile_samples_bitwise_equal_to_two_pair_form():
    rng = np.random.default_rng(7)
    for M, tau in [(2.0, 0.0), (1.5, 1.0), (3.0, 0.5), (40.0, 0.3)]:
        fam = build_family(M, tau, node_count=256)
        bks = np.array(fam.breakpoints)
        angles = np.concatenate([
            rng.uniform(-TWO_PI, 2 * TWO_PI, 2000),
            fam.grid.nodes,
            bks, np.nextafter(bks, -np.inf), np.nextafter(bks, np.inf),
        ])
        got = _profile_samples(M, tau, fam.c, fam.d, angles)
        want = two_pair_profile_samples(M, tau, fam.c, fam.d, angles)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def profiles_map_at(fam, z):
    """map_at from all four closed-form profiles, the derivatives unused."""
    z = np.asarray(z, dtype=complex)
    th1, th2, _, _ = profiles_at(fam, np.angle(z))
    out = np.abs(z) ** fam.alpha * (th1 + 1j * th2)
    return np.where(z == 0, 0.0, out)


def test_map_at_bitwise_equal_to_profiles_form():
    rng = np.random.default_rng(11)
    for M, tau in [(2.0, 0.0), (1.5, 1.0), (3.0, 0.5), (40.0, 0.3)]:
        fam = build_family(M, tau, node_count=256)
        bks = np.array(fam.breakpoints)
        angles = np.concatenate([
            rng.uniform(-math.pi, math.pi, 2000), fam.grid.nodes,
            bks, np.nextafter(bks, -np.inf), np.nextafter(bks, np.inf),
        ])
        radii = rng.uniform(1e-3, 3.0, angles.size)
        z = np.concatenate([radii * np.exp(1j * angles), radii[:4] * np.cos(angles[:4]),
                            [0j, complex(-0.0, -0.0), -1.0 + 0j, complex(-1.0, -0.0),
                             complex(1.0, -1e-300)]])
        for pts in (z, z.reshape(-1, 3)):
            got, want = fam.map_at(pts), profiles_map_at(fam, pts)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_family_map_is_injective_and_orientation_preserving():
    for M, tau in [(2.0, 0.0), (1.5, 1.0), (3.0, 0.5)]:
        fam = build_family(M, tau, node_count=512)
        stretch, _ = build_maps(fam)
        ok, cert = injectivity_check(stretch)
        assert ok, cert
        jac, _, _ = differential_quantities(stretch)
        assert np.min(jac) > 0.0


def test_distortion_piecewise_two_values():
    # tau = 0: k1 jumps between 1 and M while k2 = 1/k1, distortion
    # max(k1, 1/k2) takes the two values 1 and M... in the tau=0 family
    # k2 = M on the second arc, so the pointwise distortion stays bounded
    # by M; check the sup matches the distortion bound of the pair
    fam = build_family(4.0, 0.0, node_count=512)
    stretch, _ = build_maps(fam)
    _, _, dist = differential_quantities(stretch)
    assert np.max(dist) <= fam.pair().distortion_bound() + 1e-9
