"""Equation residuals, weak-form assembly, and exponent measurement."""

import numpy as np
import pytest

from beltbound.periodic_fields import TWO_PI
from beltbound.reduction import BeltramiPair, CoefficientMatrixField, beltrami_to_matrices
from beltbound.sharp_family import build_family, build_maps
from beltbound.stretching import AngularStretching
from beltbound.verify import (
    PolarGrid,
    beltrami_residual,
    empirical_holder,
    weak_form_residual,
    weak_residual_vector,
)


def test_identity_map_zero_residual():
    pair = BeltramiPair.from_constant(0.0, 0.0)
    rep = beltrami_residual(AngularStretching.radial(1.0, 512), pair)
    assert rep.max_residual < 1e-12


def test_radial_stretch_closed_form_residual():
    pair = BeltramiPair.radial_stretch(0.5)
    rep = beltrami_residual(AngularStretching.radial(0.5, 512), pair)
    assert rep.max_residual < 1e-8


def test_sharp_family_closed_form_residual():
    for M, tau in [(2.0, 0.0), (1.5, 1.0), (1.5, 0.5)]:
        fam = build_family(M, tau, node_count=512)
        stretch, _ = build_maps(fam)
        rep = beltrami_residual(stretch, fam.pair())
        assert rep.max_residual < 1e-8, (M, tau, rep.max_residual)


def test_fd_route_second_order():
    pair = BeltramiPair.radial_stretch(0.5)
    residuals = []
    for n in (128, 256, 512):
        g = PolarGrid.annulus(radius_count=n // 8, node_count=n)
        rep = beltrami_residual(lambda z: np.abs(z) ** -0.5 * z, pair, g)
        residuals.append(rep.max_residual)
    assert residuals[0] / residuals[2] > 10.0  # ~16 for clean h^2


def test_fd_route_piecewise_pair_excludes_jumps():
    fam = build_family(1.5, 0.5, node_count=1024)
    pair = fam.pair()
    residuals = []
    for n in (128, 256, 512):
        g = PolarGrid.annulus(radius_count=n // 8, node_count=n, breakpoints=fam.breakpoints)
        rep = beltrami_residual(fam.map_at, pair, g)
        residuals.append(rep.max_residual)
    assert residuals[0] / residuals[2] > 10.0


def test_residual_scale_invariance():
    # the equation is linear, the report normalizes by derivative size
    pair = BeltramiPair.radial_stretch(0.5)
    g = PolarGrid.annulus(radius_count=12, node_count=128)
    r1 = beltrami_residual(lambda z: np.abs(z) ** -0.5 * z, pair, g)
    c = 3.7 - 1.2j
    r2 = beltrami_residual(lambda z: c * np.abs(z) ** -0.5 * z, pair, g)
    assert abs(r1.max_residual - r2.max_residual) < 1e-13


def test_too_coarse_grid_raises():
    # M large makes one smooth arc much shorter than the rest
    fam = build_family(16.0, 0.5, node_count=512)
    g = PolarGrid.annulus(radius_count=8, node_count=16, breakpoints=fam.breakpoints)
    with pytest.raises(ValueError, match="coarse"):
        beltrami_residual(fam.map_at, fam.pair(), g)


def test_weak_form_linear_function_roundoff():
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    rep = weak_form_residual(lambda z: np.real(z), CoefficientMatrixField.identity(), g)
    assert rep.max_residual < 1e-12


def test_weak_form_harmonic_converges():
    # Re(1/z) and log|z| are discrete eigenfunctions of this self-similar
    # mesh and sit at roundoff already; exp gives a generic harmonic.
    g = PolarGrid.annulus(radius_count=10, node_count=64)
    rep = weak_form_residual(
        lambda z: np.real(np.exp(z)), CoefficientMatrixField.identity(), g, refinements=2
    )
    assert rep.slope is not None and rep.slope >= 1.0


def test_weak_form_self_similar_mode_roundoff():
    g = PolarGrid.annulus(radius_count=10, node_count=64)
    rep = weak_form_residual(
        lambda z: np.log(np.abs(z)), CoefficientMatrixField.identity(), g
    )
    assert rep.max_residual < 1e-12


def test_weak_form_family_solution_converges():
    for M, tau in [(2.0, 0.0), (1.5, 0.5)]:
        fam = build_family(M, tau, node_count=512)
        red = beltrami_to_matrices(fam.pair())
        g = PolarGrid.annulus(radius_count=10, node_count=128, breakpoints=fam.breakpoints)
        u = lambda z: np.real(fam.map_at(z))
        rep = weak_form_residual(u, red.B, g, refinements=2)
        assert rep.slope >= 1.0, (M, tau, rep.slope)
        # imaginary part couples to the tilde matrix
        v = lambda z: np.imag(fam.map_at(z))
        rep = weak_form_residual(v, red.B_tilde, g, refinements=2)
        assert rep.slope >= 1.0, (M, tau, rep.slope)


def test_weak_vector_homogeneity():
    fam = build_family(1.5, 0.5, node_count=256)
    red = beltrami_to_matrices(fam.pair())
    g = PolarGrid.annulus(radius_count=8, node_count=64, breakpoints=fam.breakpoints)
    z = g.radii[:, None] * np.exp(1j * g.angles.nodes)[None, :]
    vals = np.real(fam.map_at(z))
    r1, _ = weak_residual_vector(vals, red.B, g)
    e = red.B.entries
    scaled = CoefficientMatrixField.from_callables(
        lambda zz: 3.0 * e(zz)[0],
        lambda zz: 3.0 * e(zz)[1],
        lambda zz: 3.0 * e(zz)[2],
        lambda zz: 3.0 * e(zz)[3],
    )
    r3, _ = weak_residual_vector(vals, scaled, g)
    assert np.max(np.abs(r3 - 3.0 * r1)) < 1e-12


def test_weak_form_rejects_indefinite_matrix():
    # construct directly so the sampled bounds cannot veto it first;
    # a11 = Re z changes sign on the annulus
    g = PolarGrid.annulus(radius_count=8, node_count=64)
    bad = CoefficientMatrixField(
        lambda z: np.real(z),
        lambda z: np.zeros(np.shape(z)),
        lambda z: np.zeros(np.shape(z)),
        lambda z: np.ones(np.shape(z)),
        symmetric=True,
        eig_bounds=(0.5, 2.0),
    )
    with pytest.raises(ValueError, match="positive definite"):
        weak_form_residual(lambda z: np.real(z), bad, g)


def test_weak_form_warns_on_misaligned_breakpoints():
    fam = build_family(2.0, 0.5, node_count=256)
    red = beltrami_to_matrices(fam.pair())
    g = PolarGrid.annulus(radius_count=8, node_count=64)  # no breakpoints
    with pytest.warns(UserWarning, match="aligned"):
        weak_form_residual(lambda z: np.real(fam.map_at(z)), red.B, g)


def test_empirical_exponent_identity():
    slope, diag = empirical_holder(AngularStretching.radial(1.0, 256))
    assert abs(slope - 1.0) < 0.01
    assert diag["r_squared"] > 0.9999


def test_empirical_exponent_radial_half():
    slope, _ = empirical_holder(AngularStretching.radial(0.5, 256))
    assert abs(slope - 0.5) < 0.01


def test_empirical_exponent_sharp_family():
    fam = build_family(4.0, 0.0, node_count=512)
    slope, diag = empirical_holder(fam.map_at)
    assert abs(slope - fam.alpha) < 0.01
    assert diag["r_squared"] > 0.999


def test_empirical_exponent_scaling_invariance():
    fam = build_family(2.0, 0.5, node_count=256)
    s1, _ = empirical_holder(fam.map_at)
    s2, _ = empirical_holder(lambda z: 11.0 * fam.map_at(z))
    assert abs(s1 - s2) < 1e-12


def test_empirical_exponent_needs_four_scales():
    with pytest.raises(ValueError):
        empirical_holder(AngularStretching.radial(1.0, 64), scales=3)


def test_polar_grid_validation_and_mask():
    with pytest.raises(ValueError):
        PolarGrid(np.array([0.5, 0.4, 0.9]), PolarGrid.annulus().angles)
    g = PolarGrid.annulus(radius_count=6, node_count=64, breakpoints=[1.0])
    keep = g.angle_mask(np.array([1.0, 1.5, 1.0 + 2e-2]))
    assert not keep[0] and keep[1]
    refined = g.refined()
    assert refined.angles.node_count == 2 * g.angles.node_count
    assert refined.radii[0] == g.radii[0] and refined.radii[-1] == g.radii[-1]
