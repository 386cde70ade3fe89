"""Coefficient pairs, divergence-form matrices, and their conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltbound.periodic_fields import PIECEWISE, SMOOTH, AngularGrid, CircleSpec, PeriodicField, TWO_PI
from beltbound.reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    EllipticityError,
    beltrami_to_matrices,
    matrix_to_beltrami,
    normalize_matrix,
)
from beltbound.sharp_family import build_family
from beltbound.stretching import KProfile, k_from_munu


def random_constant_pair(rng):
    while True:
        mu = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        nu = rng.uniform(-0.6, 0.6)
        if abs(mu) + abs(nu) < 0.95:
            return complex(mu), float(nu)


def test_ellipticity_guard():
    with pytest.raises(EllipticityError):
        BeltramiPair.from_constant(0.8, 0.3)
    with pytest.raises(EllipticityError):
        BeltramiPair.from_constant(1.0 + 0j, 0.0)
    # the error message names the violation
    with pytest.raises(EllipticityError, match="ellipticity"):
        BeltramiPair.from_constant(0.7, 0.4)


def test_trivial_pair_gives_identity_matrices():
    red = beltrami_to_matrices(BeltramiPair.from_constant(0.0, 0.0))
    z = np.array([0.3 + 0.1j, -0.2j])
    for m in (red.B, red.B_tilde):
        a11, a12, a21, a22 = m.entries(z)
        assert np.allclose([a11, a22], 1.0) and np.allclose([a12, a21], 0.0)


def test_constant_round_trip():
    # a pointwise pair: its (mu, nu) read at a point
    rng = np.random.default_rng(12)
    z = np.array([0.2 - 0.3j])
    for _ in range(200):
        mu, nu = random_constant_pair(rng)
        red = beltrami_to_matrices(BeltramiPair.from_constant(mu, nu))
        back = matrix_to_beltrami(red.B)
        bmu, bnu = (v[0] for v in back.munu(z))
        assert abs(bmu - mu) < 1e-12
        assert abs(bnu - nu) < 1e-12


def test_tilde_is_b_over_det_for_real_nu():
    rng = np.random.default_rng(13)
    z = np.array([0.4 + 0.2j])
    for _ in range(200):
        mu, nu = random_constant_pair(rng)
        red = beltrami_to_matrices(BeltramiPair.from_constant(mu, nu))
        b = np.array(red.B.entries(z)).reshape(2, 2)
        bt = np.array(red.B_tilde.entries(z)).reshape(2, 2)
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        assert np.max(np.abs(bt - b / det)) < 1e-12


def test_matrices_are_spd_with_unit_interval_eigs():
    rng = np.random.default_rng(14)
    z = np.array([0.1 + 0.5j])
    for _ in range(100):
        mu, nu = random_constant_pair(rng)
        red = beltrami_to_matrices(BeltramiPair.from_constant(mu, nu))
        b = np.array(red.B.entries(z)).reshape(2, 2)
        assert abs(b[0, 1] - b[1, 0]) < 1e-14
        w = np.linalg.eigvalsh(b)
        K = BeltramiPair.from_constant(mu, nu).distortion_bound()
        assert w[0] > 1.0 / K - 1e-10
        assert w[1] < K + 1e-10


def test_divergence_coupling_oracle():
    """Independent check of the matrix entries.

    If f = u + iv solves the first-order system, the reduction matrices must
    couple the gradients through a quarter rotation J: B grad u = -J grad v
    and B~ grad v = +J grad u.  Gradients come from the closed-form family,
    so this exercises the entries without reusing their construction.
    """
    rng = np.random.default_rng(15)
    for M, tau in [(1.5, 0.5), (2.0, 0.3), (4.0, 0.0), (1.5, 1.0)]:
        fam = build_family(M, tau, node_count=512)
        red = beltrami_to_matrices(fam.pair())
        t = rng.uniform(0.0, TWO_PI, 64)
        r = rng.uniform(0.2, 0.95, 64)
        th1, th2, dth1, dth2 = fam.profiles_at(t)
        a = fam.alpha
        u_r, u_t = a * r ** (a - 1) * th1, r**a * dth1
        v_r, v_t = a * r ** (a - 1) * th2, r**a * dth2
        ct, st = np.cos(t), np.sin(t)
        gu = np.array([u_r * ct - u_t / r * st, u_r * st + u_t / r * ct])
        gv = np.array([v_r * ct - v_t / r * st, v_r * st + v_t / r * ct])
        z = r * np.exp(1j * t)
        b11, b12, b21, b22 = red.B.entries(z)
        lhs = np.array([b11 * gu[0] + b12 * gu[1], b21 * gu[0] + b22 * gu[1]])
        assert np.max(np.abs(lhs - np.array([-gv[1], gv[0]]) * -1.0)) < 1e-12
        t11, t12, t21, t22 = red.B_tilde.entries(z)
        lhs = np.array([t11 * gv[0] + t12 * gv[1], t21 * gv[0] + t22 * gv[1]])
        assert np.max(np.abs(lhs - np.array([-gu[1], gu[0]]))) < 1e-12


def test_angular_matrix_diagonalizes_along_normals():
    # rotation frame: <n, A n> = k1 and det A = k1 k2 on origin circles
    fam = build_family(2.0, 0.4, node_count=512)
    k = k_from_munu(fam.mu0, fam.nu0)
    m = CoefficientMatrixField.from_angular_k(k)
    t = np.linspace(0.1, 6.2, 40)
    z = 0.5 * np.exp(1j * t)
    a11, a12, a21, a22 = m.entries(z)
    n = np.stack([np.cos(t), np.sin(t)])
    nAn = a11 * n[0] ** 2 + (a12 + a21) * n[0] * n[1] + a22 * n[1] ** 2
    assert np.max(np.abs(nAn - k.k1.eval_at(t))) < 1e-12
    det = a11 * a22 - a12 * a21
    assert np.max(np.abs(det - k.k1.eval_at(t) * k.k2.eval_at(t))) < 1e-12


def test_matrix_round_trip_through_pair():
    rng = np.random.default_rng(16)
    z = np.array([0.3 - 0.4j])
    for _ in range(100):
        mu, nu = random_constant_pair(rng)
        red = beltrami_to_matrices(BeltramiPair.from_constant(mu, nu))
        again = beltrami_to_matrices(matrix_to_beltrami(red.B))
        e1 = np.array(red.B.entries(z))
        e2 = np.array(again.B.entries(z))
        assert np.max(np.abs(e1 - e2)) < 1e-12


def test_normalize_matrix_det_inverse():
    fam = build_family(1.5, 0.5, node_count=256)
    m = CoefficientMatrixField.from_angular_k(k_from_munu(fam.mu0, fam.nu0))
    mh = normalize_matrix(m)
    z = 0.4 * np.exp(1j * np.linspace(0.0, 6.0, 25))
    det = m.det(z)
    det_h = mh.det(z)
    assert np.max(np.abs(det_h - 1.0 / det)) < 1e-12
    a11, a12, a21, a22 = m.entries(z)
    h11, h12, h21, h22 = mh.entries(z)
    assert np.max(np.abs(h11 - a11 / det)) < 1e-12
    assert np.max(np.abs(h22 - a22 / det)) < 1e-12


def test_on_circle_kinds():
    fam = build_family(2.0, 0.5, node_count=512)
    pair = fam.pair()
    on = pair.on_circle(CircleSpec(0.0, 0.5, resolution=512))
    assert on.nAn.kind == PIECEWISE
    assert on.det.kind == PIECEWISE
    # off-center circles see smoothly rotating normals
    on = pair.on_circle(CircleSpec(0.2 + 0.1j, 0.3, resolution=512))
    assert on.nAn.kind == SMOOTH
    with pytest.raises(ValueError):
        pair.on_circle(CircleSpec(0.25, 0.25, resolution=512))


def test_angular_pair_requires_real_profiles():
    g = AngularGrid.uniform(64)
    complex_profile = PeriodicField(g, 0.1j * np.ones(64), PIECEWISE)
    real_profile = PeriodicField.constant(g, 0.1)
    with pytest.raises(TypeError):
        BeltramiPair.from_angular(complex_profile, real_profile)


def test_from_callables_detects_real_nu():
    pair = BeltramiPair.from_callables(lambda z: (0.2 * np.ones_like(z), 0.1 * np.ones_like(z)))
    assert pair.real_nu
    pair = BeltramiPair.from_callables(lambda z: (0.2 * np.ones_like(z), 0.1j * np.ones_like(z)))
    assert not pair.real_nu


def test_radial_stretch_constants():
    pair = BeltramiPair.radial_stretch(0.5)
    assert pair.is_angular
    # mu0 = (1-alpha)/(1+alpha), nu0 = 0
    assert np.max(np.abs(pair.mu0.values - 1.0 / 3.0)) < 1e-15
    assert np.max(np.abs(pair.nu0.values)) == 0.0
    assert abs(pair.distortion_bound() - 2.0) < 1e-12
    with pytest.raises(ValueError):
        BeltramiPair.radial_stretch(1.5)


def test_matrix_field_rejects_nonpositive():
    with pytest.raises(ValueError):
        CoefficientMatrixField.constant(1.0, 2.0, 2.0, 1.0)  # eigenvalues -1, 3


# ---------------------------------------------------------------------------
# one evaluation of the shared work per entries call


class Counted:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, z):
        self.calls += 1
        return self.fn(z)


def test_callable_pair_reduction_evaluates_pair_once():
    munu_fn = Counted(lambda z: (0.2 * z + 0.1j, 0.1 * np.conj(z) + 0.05))
    red = beltrami_to_matrices(BeltramiPair.from_callables(munu_fn))
    z = np.array([0.3 + 0.1j, -0.2j, 0.5])
    for m in (red.B, red.B_tilde):
        munu_fn.calls = 0
        m.entries(z)
        assert munu_fn.calls == 1


def test_matrix_pair_restriction_evaluates_matrix_once_per_use():
    # one entries call samples the pair's B on the 12 x 96 lattice, one more
    # restricts it to the circle
    entries_fn = Counted(
        lambda z: (2.0 + np.real(z), np.full(z.shape, 0.3), np.full(z.shape, 0.3), 1.5 + np.imag(z))
    )
    pair = matrix_to_beltrami(CoefficientMatrixField.from_callables(entries_fn))
    entries_fn.calls = 0
    pair.on_circle(CircleSpec(0.1 + 0.2j, 0.5, resolution=64))
    assert entries_fn.calls == 2


def _edge_points(breakpoints):
    """Points at angles 0, -0.0, -1e-20, 2pi and on every breakpoint."""
    t = np.concatenate([[0.0, -0.0, -1e-20, TWO_PI], breakpoints])
    z = 0.7 * (np.cos(t) + 1j * np.sin(t))
    return np.concatenate([z, [0.7 + 0.0j, 0.7 - 0.0j, 0.7 - 1e-20j]])


def test_angular_evaluators_wrap_once_bitwise():
    # the evaluators wrap arg z once and read the profiles without wrapping
    # again; outputs equal the wrap-then-eval_at reference bit for bit,
    # including at -1e-20, which np.mod rounds up to 2pi
    rng = np.random.default_rng(11)
    smooth_grid = AngularGrid.uniform(64)
    smooth = KProfile(PeriodicField(smooth_grid, 1.2 + np.sin(smooth_grid.nodes)),
                      PeriodicField(smooth_grid, 1.5 + np.cos(2 * smooth_grid.nodes)))
    for k in (KProfile.piecewise([0.0, 1.0, 2.5, 4.0], rng.uniform(0.3, 3.0, 4),
                                 rng.uniform(0.3, 3.0, 4), 256), smooth):
        z = np.concatenate([_edge_points(k.grid.breakpoints),
                            rng.normal(size=64) + 1j * rng.normal(size=64)])
        theta = np.mod(np.angle(z), TWO_PI)
        k1, k2 = k.k1.eval_at(theta), k.k2.eval_at(theta)
        c, s = np.cos(theta), np.sin(theta)
        off = (k1 - k2) * c * s
        ref = (k1 * c * c + k2 * s * s, off, off, k1 * s * s + k2 * c * c)
        got = CoefficientMatrixField.from_angular_k(k).entries(z)
        for e, e_ref in zip(got, ref):
            assert np.array_equal(e, e_ref)
    fam = build_family(2.0, 0.5, node_count=256)
    pair = fam.pair()
    z = _edge_points(fam.breakpoints)
    theta = np.mod(np.angle(z), TWO_PI)
    mu, nu = pair.munu(z)
    assert np.array_equal(mu, -pair.mu0.eval_at(theta) * np.exp(2j * theta))
    assert np.array_equal(nu, -pair.nu0.eval_at(theta) + 0j)
    # -1e-20 reads the first arc, as 0 does
    assert pair.munu(0.7 - 1e-20j)[1] == pair.munu(0.7)[1]


def test_normalize_matrix_evaluates_parent_once():
    entries_fn = Counted(
        lambda z: (2.0 + np.real(z), np.full(z.shape, 0.3), np.full(z.shape, 0.1), 1.5 + np.imag(z))
    )
    m = CoefficientMatrixField.from_callables(entries_fn)
    mh = normalize_matrix(m)
    entries_fn.calls = 0
    mh.entries(np.array([0.2 + 0.3j, -0.4]))
    assert entries_fn.calls == 1


# ---------------------------------------------------------------------------
# properties over random callable fields and pairs

sample_points = 0.95 * np.exp(1j * np.linspace(0.0, 5.0, 11)) * np.linspace(0.1, 1.0, 11)


def random_matrix_field(c):
    """Positive definite (possibly nonsymmetric) field on the unit disk."""
    return CoefficientMatrixField.from_callables(
        lambda z: (1.5 + c[0] * np.real(z), c[1] + c[2] * np.imag(z),
                   c[1] + c[3] * np.real(z), 1.2 + c[4] * np.abs(z) ** 2 + c[5] * np.imag(z))
    )


@settings(max_examples=40, deadline=None)
@given(c=st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6))
def test_normalize_matrix_callable_field_properties(c):
    m = random_matrix_field(c)
    mh = normalize_matrix(m)
    det = m.det(sample_points)
    assert np.max(np.abs(mh.det(sample_points) * det - 1.0)) < 1e-12
    for e, eh in zip(m.entries(sample_points), mh.entries(sample_points)):
        assert np.max(np.abs(eh - e / det)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(c=st.lists(st.floats(-0.1, 0.1), min_size=6, max_size=6))
def test_callable_pair_round_trip(c):
    # |mu| + |nu| < 0.6 on the unit disk
    mu0, mu1, nu0 = complex(c[0], c[1]), complex(c[2], c[3]), complex(c[4], c[5])
    pair = BeltramiPair.from_callables(lambda z: (mu0 + mu1 * z, nu0 + 0.1 * np.conj(z)))
    back = matrix_to_beltrami(beltrami_to_matrices(pair).B)
    for got, want in zip(back.munu(sample_points), pair.munu(sample_points)):
        assert np.max(np.abs(got - want)) < 1e-12
