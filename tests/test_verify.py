"""Equation residuals, weak-form assembly, and exponent measurement."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from helpers import identity_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from beltbound import verify
from beltbound.periodic_fields import TWO_PI, AngularGrid, PeriodicField
from beltbound.reduction import (
    BeltramiPair,
    CoefficientMatrixField,
    EllipticityError,
    beltrami_to_matrices,
)
from beltbound.sharp_family import build_family, build_maps
from beltbound.stretching import AngularStretching, KProfile, eval_stretching
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


def test_residual_reads_angular_pair_on_one_ring():
    # mu and nu of an angular pair depend on arg z alone: one call on one
    # ring of the annulus, broadcast over the radii, whichever route gives
    # the derivatives
    fam = build_family(1.5, 0.5, node_count=512)
    stretch, _ = build_maps(fam)
    pair = fam.pair()
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return pair.munu_fn(z)

    spy = dataclasses.replace(pair, munu_fn=counted)
    g = PolarGrid.annulus(radius_count=12, node_count=256, breakpoints=fam.breakpoints)
    # the closed-form route samples at the stretching's own 512 nodes
    for f, na, tol in ((stretch, 512, 1e-8), (fam.map_at, 256, 1e-3)):
        calls.clear()
        assert beltrami_residual(f, spy, g).max_residual < tol
        assert calls == [(1, na)]


def mesh_beltrami_residual(s, pair, grid):
    """(max, mean) residual of an AngularStretching against an angular pair,
    evaluated on every ring of the annulus: the form before the one-ring
    closed form."""
    z, dbar, dplus, t = verify._closed_form_derivatives(s, grid.radii)
    mu, nu = pair.munu(z[:1])
    res = dbar - mu * dplus - nu * np.conj(dplus)
    keep = grid.angle_mask(t)
    scale = np.max(np.abs(dplus[:, keep])) + np.max(np.abs(dbar[:, keep]))
    r_abs = np.abs(res[:, keep])
    return np.max(r_abs) / scale, np.mean(r_abs) / scale


def test_one_ring_residual_matches_mesh_reference():
    # each stretching against every family's equation: its own gives
    # rounding noise, the others O(1) residuals; alpha = 1.7 puts the
    # largest r^(alpha-1) on the outer ring
    fams = [build_family(M, tau, node_count=512)
            for M, tau in ((2.0, 0.5), (3.0, 1.0), (1.5, 0.0))]
    stretches = [build_maps(fam)[0] for fam in fams]
    stretches += [AngularStretching.radial(a, node_count=512) for a in (0.5, 1.7)]
    for i, s in enumerate(stretches):
        for j, fam in enumerate(fams):
            for grid in (PolarGrid.annulus(breakpoints=fam.breakpoints),
                         PolarGrid.annulus(0.3, 2.5, 9, 256, fam.breakpoints)):
                rep = beltrami_residual(s, fam.pair(), grid)
                mx, mean = mesh_beltrami_residual(s, fam.pair(), grid)
                if i == j:
                    assert rep.max_residual < 1e-14 and mx < 1e-14
                else:
                    assert mx > 1e-2
                    assert abs(rep.max_residual - mx) <= 1e-14 * mx
                    assert abs(rep.mean_residual - mean) <= 1e-14 * mean


def test_too_coarse_grid_raises():
    # M large makes one smooth arc much shorter than the rest
    fam = build_family(16.0, 0.5, node_count=512)
    g = PolarGrid.annulus(radius_count=8, node_count=16, breakpoints=fam.breakpoints)
    with pytest.raises(ValueError, match="coarse"):
        beltrami_residual(fam.map_at, fam.pair(), g)


def test_weak_form_linear_function_roundoff():
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    rep = weak_form_residual(lambda z: np.real(z), identity_matrix(), g)
    assert rep.max_residual < 1e-12


def test_weak_form_harmonic_converges():
    # Re(1/z) and log|z| are discrete eigenfunctions of this self-similar
    # mesh and sit at roundoff already; exp gives a generic harmonic.
    g = PolarGrid.annulus(radius_count=10, node_count=64)
    rep = weak_form_residual(
        lambda z: np.real(np.exp(z)), identity_matrix(), g, refinements=2
    )
    assert rep.slope is not None and rep.slope >= 1.0


def test_weak_form_self_similar_mode_roundoff():
    g = PolarGrid.annulus(radius_count=10, node_count=64)
    rep = weak_form_residual(
        lambda z: np.log(np.abs(z)), identity_matrix(), g
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
    scaled = CoefficientMatrixField.from_callables(
        lambda zz: tuple(3.0 * v for v in red.B.entries(zz))
    )
    r3, _ = weak_residual_vector(vals, scaled, g)
    assert np.max(np.abs(r3 - 3.0 * r1)) < 1e-12


def test_weak_form_rejects_indefinite_matrix():
    # construct directly so the sampled bounds cannot veto it first;
    # a11 = Re z changes sign on the annulus
    g = PolarGrid.annulus(radius_count=8, node_count=64)
    bad = CoefficientMatrixField(
        lambda z: (np.real(z), np.zeros(np.shape(z)), np.zeros(np.shape(z)), np.ones(np.shape(z))),
        symmetric=True,
        eig_bounds=(0.5, 2.0),
    )
    with pytest.raises(ValueError, match="positive definite"):
        weak_form_residual(lambda z: np.real(z), bad, g)


def inf_last_row(z):
    return np.where(np.abs(z) > 0.9999, np.inf, np.real(z ** 3))


def nan_last_row(z):
    return np.where(np.abs(z) > 0.9999, np.nan, np.real(z ** 3))


@pytest.mark.parametrize("u", [inf_last_row, nan_last_row], ids=["inf", "nan"])
def test_weak_form_refuses_non_finite_samples(u):
    # inf or NaN on the outer ring used to come back as NaN maxima and slope
    red = beltrami_to_matrices(BeltramiPair.radial_stretch(0.5, node_count=256))
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    with pytest.raises(ValueError, match=r"not finite at vertex rows \[11\]"):
        weak_form_residual(u, red.B, g, refinements=1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_weak_residual_vector_refuses_non_finite_samples(bad):
    # it used to return NaN rows of R and S for such samples
    red = beltrami_to_matrices(BeltramiPair.radial_stretch(0.5, node_count=256))
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    U = np.real(mesh_vertices(g).reshape(g.radii.size, -1) ** 3)
    U[[0, 4, 11], 7] = bad
    with pytest.raises(ValueError, match=r"not finite at vertex rows \[0\]"):
        weak_residual_vector(U, red.B, g)
    U[0, 7] = 0.0
    with pytest.raises(ValueError, match=r"not finite at vertex rows \[4, 11\]"):
        weak_residual_vector(U, red.B, g)


def test_weak_form_refuses_non_finite_matrix():
    # constructed directly, as its sampled bounds would veto it; NaN passed
    # the positivity test (NaN <= 0 is False) and gave a NaN report
    g = PolarGrid.annulus(radius_count=12, node_count=96)

    def entries(z):
        far = np.abs(z) > 0.9
        return (np.where(far, np.nan, 1.0), np.zeros(np.shape(z)), np.zeros(np.shape(z)),
                np.ones(np.shape(z)))

    bad = CoefficientMatrixField(entries, symmetric=True, eig_bounds=(1.0, 1.0))
    with pytest.raises(EllipticityError, match="not finite"):
        weak_form_residual(np.real, bad, g, refinements=1)


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


def looped_empirical_holder(f, scales=10):
    """empirical_holder with one evaluation of f per circle."""
    radii = 2.0 ** -np.arange(1, scales + 1)
    t = TWO_PI * np.arange(512) / 512
    osc = np.empty(radii.size)
    for i, r in enumerate(radii):
        z = r * np.exp(1j * t)
        vals = eval_stretching(f, z) if isinstance(f, AngularStretching) else f(z)
        osc[i] = np.max(np.abs(vals))
    x, y = np.log(radii), np.log(osc)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res, ss_tot = float(np.sum((y - fitted) ** 2)), float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), {"r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
                          "radii": radii, "oscillation": osc, "intercept": float(intercept)}


def test_empirical_exponent_bitwise_equal_to_per_circle_loop():
    fam = build_family(3.0, 0.5, node_count=512)
    stretch, _ = build_maps(fam)
    for f, scales in [(stretch, 10), (fam.map_at, 10), (AngularStretching.radial(0.5, 256), 6),
                      (lambda z: np.abs(z) ** 0.7 * np.cos(3 * np.angle(z)), 12)]:
        slope, diag = empirical_holder(f, scales)
        ref_slope, ref = looped_empirical_holder(f, scales)
        assert slope.hex() == ref_slope.hex()
        assert diag["r_squared"].hex() == ref["r_squared"].hex()
        assert diag["intercept"].hex() == ref["intercept"].hex()
        assert np.array_equal(diag["oscillation"], ref["oscillation"])
        assert np.array_equal(diag["radii"], ref["radii"])


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


def test_polar_grid_rejects_non_geometric_radii():
    angles = PolarGrid.annulus().angles
    with pytest.raises(ValueError, match="geometric"):
        PolarGrid(np.array([0.3, 0.5, 0.9]), angles)
    with pytest.raises(ValueError, match="geometric"):
        PolarGrid(np.geomspace(0.25, 1.0, 12) * (1.0 + 1e-9 * np.arange(12) ** 2), angles)
    PolarGrid(np.geomspace(0.25, 1.0, 12), angles)
    PolarGrid(np.array([0.3, 0.6, 1.2]), angles)


# ---------------------------------------------------------------------------
# the slice assembly against the scatter assembly it replaced


def add_at_assembly(u_vals, a, grid):
    """Weak residual assembly by fancy-index corner gathers, one coefficient
    evaluation per triangle family and np.add.at scatters."""
    r = grid.radii
    t = grid.angles.nodes
    nr, na = r.size, t.size
    U = np.asarray(u_vals, dtype=float)
    x = r[:, None] * np.cos(t)[None, :]
    y = r[:, None] * np.sin(t)[None, :]
    rows = np.arange(nr - 1)[:, None] * np.ones(na, dtype=int)[None, :]
    cols = np.ones(nr - 1, dtype=int)[:, None] * np.arange(na)[None, :]
    cols1 = (cols + 1) % na
    quad = [(rows, cols), (rows + 1, cols), (rows, cols1), (rows + 1, cols1)]
    R = np.zeros((nr, na))
    S = np.zeros((nr, na))
    for tri in ((0, 1, 3), (0, 3, 2)):
        idx = [quad[k] for k in tri]
        xs = [x[i] for i in idx]
        ys = [y[i] for i in idx]
        us = [U[i] for i in idx]
        two_area = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (ys[1] - ys[0]) * (xs[2] - xs[0])
        gx = [(ys[1] - ys[2]) / two_area, (ys[2] - ys[0]) / two_area, (ys[0] - ys[1]) / two_area]
        gy = [(xs[2] - xs[1]) / two_area, (xs[0] - xs[2]) / two_area, (xs[1] - xs[0]) / two_area]
        gux = sum(u * g for u, g in zip(us, gx))
        guy = sum(u * g for u, g in zip(us, gy))
        zc = (xs[0] + xs[1] + xs[2] + 1j * (ys[0] + ys[1] + ys[2])) / 3.0
        a11, a12, a21, a22 = a.entries(zc)
        fx = a11 * gux + a12 * guy
        fy = a21 * gux + a22 * guy
        area = 0.5 * two_area
        flux_mag = np.hypot(fx, fy)
        for k in range(3):
            np.add.at(R, idx[k], area * (fx * gx[k] + fy * gy[k]))
            np.add.at(S, idx[k], area * flux_mag * np.hypot(gx[k], gy[k]))
    return R, S


def assert_matches_reference(u, a, grid):
    z = grid.radii[:, None] * np.exp(1j * grid.angles.nodes)[None, :]
    vals = u(z)
    R, S = weak_residual_vector(vals, a, grid)
    R_ref, S_ref = add_at_assembly(vals, a, grid)
    scale = np.max(S_ref)
    assert np.max(np.abs(R - R_ref)) <= 1e-13 * scale
    assert np.max(np.abs(S - S_ref)) <= 1e-13 * scale


@pytest.mark.parametrize("M, tau", [(2.0, 0.0), (1.5, 0.5), (3.0, 1.0)])
def test_weak_vector_matches_reference_on_sharp_family(M, tau):
    fam = build_family(M, tau, node_count=512)
    red = beltrami_to_matrices(fam.pair())
    g = PolarGrid.annulus(radius_count=8, node_count=64, breakpoints=fam.breakpoints)
    for _ in range(3):
        assert_matches_reference(lambda z: np.real(fam.map_at(z)), red.B, g)
        assert_matches_reference(lambda z: np.imag(fam.map_at(z)), red.B_tilde, g)
        g = g.refined()


def test_weak_vector_matches_reference_on_plain_fields():
    # no breakpoints: a uniform angular grid
    g = PolarGrid.annulus(r_min=0.3, r_max=0.9, radius_count=9, node_count=80)
    harmonic = lambda z: np.real(np.exp(z))
    assert_matches_reference(harmonic, identity_matrix(), g)
    field = CoefficientMatrixField.from_callables(
        lambda z: (2.0 + np.real(z), 0.3 * np.imag(z), 0.3 * np.imag(z) - 0.1, 1.5 + np.abs(z) ** 2)
    )
    assert_matches_reference(harmonic, field, g)


def test_weak_vector_matches_reference_across_ring_blocks():
    # 39 rings of 512 cells are three blocks of the assembly: two shared rows
    g = PolarGrid.annulus(radius_count=40, node_count=512)
    assert (g.radii.size - 1) * g.angles.node_count > 2 * verify._BLOCK
    fam = build_family(2.0, 0.5, node_count=512)
    fg = PolarGrid.annulus(radius_count=40, node_count=512, breakpoints=fam.breakpoints)
    B = beltrami_to_matrices(fam.pair()).B
    assert_matches_reference(lambda z: np.real(fam.map_at(z)), B, fg)
    field = CoefficientMatrixField.from_callables(
        lambda z: (2.0 + np.real(z), 0.3 * np.imag(z), 0.3 * np.imag(z) - 0.1, 1.5 + np.abs(z) ** 2)
    )
    assert field.k is None
    assert_matches_reference(lambda z: np.real(np.exp(z)) + np.imag(z) ** 3, field, g)


def test_weak_vector_evaluates_field_once():
    calls = []
    identity = identity_matrix()

    def entries_fn(z):
        calls.append(np.shape(z))
        return identity.entries(z)

    field = CoefficientMatrixField(entries_fn, symmetric=True, eig_bounds=(1.0, 1.0))
    g = PolarGrid.annulus(radius_count=6, node_count=32, breakpoints=[1.0, 3.0])
    weak_residual_vector(np.ones((6, 32)), field, g)
    assert calls == [(2, 5, 32)]


def test_weak_vector_evaluates_angular_field_once_per_column():
    # an arg-z-only field is read on one ring of centroids, whatever nr is
    fam = build_family(1.5, 0.5, node_count=256)
    B = beltrami_to_matrices(fam.pair()).B
    assert B.k is not None
    calls = []

    def entries_fn(z):
        calls.append(np.shape(z))
        return B.entries_fn(z)

    field = dataclasses.replace(B, entries_fn=entries_fn)
    shapes = []
    for nr in (4, 9, 17):
        g = PolarGrid.annulus(radius_count=nr, node_count=32, breakpoints=fam.breakpoints)
        weak_residual_vector(np.ones((nr, g.angles.node_count)), field, g)
        shapes.append((2, 1, g.angles.node_count))
    assert calls == shapes


# ---------------------------------------------------------------------------
# streaming through ring blocks


def test_weak_form_memory_is_set_by_the_block():
    # refinements=2 ends on a 61 x 1024 mesh, the finest the maps benchmark
    # and the CLI verify.  Sampling u on whole meshes (its z and every
    # complex temporary of map_at) peaked at 5.6 MB; sampling in blocks but
    # holding whole-mesh U, R and S on the refined meshes at 2.7 MB
    fam = build_family(2.0, 0.5, node_count=1024)
    B = beltrami_to_matrices(fam.pair()).B
    _, u = build_maps(fam)
    g = PolarGrid.annulus(radius_count=16, node_count=256, breakpoints=fam.breakpoints)
    weak_form_residual(u, B, g)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        rep = weak_form_residual(u, B, g, refinements=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.slope >= 1.0
    assert peak < 2.2e6, peak


@pytest.mark.parametrize("case", ["pointwise", "exp"])
def test_whole_walk_memory_is_set_by_the_block(case):
    # the whole streamed walk, which a pointwise A or a non-homogeneous u
    # takes: its peak is the same on 16 rings as on 256 (1024 nodes, four
    # rings a block), so it is set by the block, not the mesh
    fam = build_family(2.0, 0.5, node_count=1024)
    a = beltrami_to_matrices(fam.pair()).B
    u = lambda z: np.real(fam.map_at(z))  # noqa: E731
    if case == "pointwise":
        a = CoefficientMatrixField.from_callables(a.entries)
    else:
        u = lambda z: np.real(np.exp(z))  # noqa: E731
    peaks = []
    for nr in (16, 256):
        g = PolarGrid.annulus(radius_count=nr, node_count=1024, breakpoints=fam.breakpoints)

        def walk():
            return verify._streamed_max(verify._weak_blocks(verify._sampler(u, g), a, g), nr)

        walk()  # warm caches outside the measurement
        tracemalloc.start()
        try:
            walk()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
    assert max(peaks) < 2.2e6, peaks


def mesh_vertices(g, first=0):
    """The vertices of rows first.. of g, row by row."""
    return (g.radii[first:, None] * np.exp(1j * g.angles.nodes)[None, :]).ravel()


def sampled(u):
    """u, and the list of the points it is called on."""
    seen = []

    def counted(z):
        seen.append(np.asarray(z).ravel())
        return u(z)

    return counted, seen


def test_weak_form_samples_each_vertex_once_in_blocks():
    # a homogeneous u with an angular A: the base mesh in one call, each
    # refined mesh in blocks of rows from ring nr-4 on, since its maxima lie
    # on row nr-2; each of those vertices once, in row order
    fam = build_family(1.5, 0.5, node_count=512)
    B = beltrami_to_matrices(fam.pair()).B
    _, u = build_maps(fam)
    counted, seen = sampled(u)
    g = PolarGrid.annulus(radius_count=9, node_count=128, breakpoints=fam.breakpoints)
    weak_form_residual(counted, B, g, refinements=2)
    assert len(seen) > 3 and all(0 < v.size <= verify._BLOCK for v in seen[1:])
    vertices = [mesh_vertices(g)]
    for _ in range(2):
        g = g.refined()
        vertices.append(mesh_vertices(g, g.radii.size - 4))
    assert vertices[-1].size == 4 * g.angles.node_count
    assert np.array_equal(np.concatenate(seen), np.concatenate(vertices))


@pytest.mark.parametrize("case", ["exp", "pointwise", "noise"])
def test_weak_form_samples_every_row_unless_homogeneous(case):
    # u not homogeneous, A read pointwise, or R at rounding level (where the
    # rows do not grow by q^alpha): every vertex of the three meshes once,
    # row by row, as the whole streamed walk samples them
    fam = build_family(1.5, 0.5, node_count=512)
    B = beltrami_to_matrices(fam.pair()).B
    u = build_maps(fam)[1]
    g = PolarGrid.annulus(radius_count=9, node_count=128, breakpoints=fam.breakpoints)
    if case == "exp":
        u = lambda z: np.real(np.exp(z))  # noqa: E731
    elif case == "pointwise":
        B = CoefficientMatrixField.from_callables(B.entries)
        assert B.k is None
    else:
        B = beltrami_to_matrices(BeltramiPair.radial_stretch(1.0, node_count=256)).B
        u = np.real
        g = PolarGrid.annulus(radius_count=12, node_count=96)
    counted, seen = sampled(u)
    weak_form_residual(counted, B, g, refinements=2)
    vertices = [mesh_vertices(g), mesh_vertices(g.refined()), mesh_vertices(g.refined().refined())]
    assert np.array_equal(np.concatenate(seen), np.concatenate(vertices))


def test_weak_form_assembles_its_base_mesh_through_the_vector(monkeypatch):
    # the reported max and mean come from weak_residual_vector on the given
    # mesh, once per report; the refined meshes keep running maxima only
    fam = build_family(2.0, 0.5, node_count=512)
    B = beltrami_to_matrices(fam.pair()).B
    _, u = build_maps(fam)
    g = PolarGrid.annulus(radius_count=9, node_count=128, breakpoints=fam.breakpoints)
    grids, original = [], verify.weak_residual_vector

    def spy(u_vals, a, grid):
        grids.append(grid)
        return original(u_vals, a, grid)

    monkeypatch.setattr(verify, "weak_residual_vector", spy)
    weak_form_residual(u, B, g, refinements=2)
    assert grids == [g]


def test_streamed_maxima_equal_whole_mesh_maxima(monkeypatch):
    # the refined meshes keep running maxima of |R| and S over interior
    # rows; the slope must be the one of whole-mesh max(|R| / max S), bitwise
    monkeypatch.setattr(verify, "_BLOCK", 200)  # several blocks on every mesh
    fam = build_family(3.0, 0.25, node_count=512)
    B = beltrami_to_matrices(fam.pair()).B
    _, u = build_maps(fam)
    base = PolarGrid.annulus(radius_count=7, node_count=64, breakpoints=fam.breakpoints)
    g, sizes, values = base, [], []
    for k in range(3):
        g = g.refined() if k else g
        R, S = weak_residual_vector(u(g.radii[:, None] * np.exp(1j * g.angles.nodes)), B, g)
        sizes.append(g.angles.node_count)
        values.append(float(np.max(np.abs(R[1:-1]) / np.max(S[1:-1]))))
    slope = float(-np.polyfit(np.log(np.asarray(sizes, float)), np.log(values), 1)[0])
    rep = weak_form_residual(u, B, base, refinements=2)
    assert rep.max_residual.hex() == values[0].hex()
    assert rep.slope.hex() == slope.hex()


def full_walk_report(u, a, grid, refinements):
    """(max, mean, slope) of weak_form_residual with every refined mesh
    walked whole by _streamed_max, as float.hex strings."""
    R, S = weak_residual_vector(u(mesh_vertices(grid).reshape(grid.radii.size, -1)), a, grid)
    rel = np.abs(R[1:-1]) / np.max(S[1:-1])
    g, sizes, values = grid, [grid.angles.node_count], [float(np.max(rel))]
    for _ in range(refinements):
        g = g.refined()
        sizes.append(g.angles.node_count)
        values.append(verify._streamed_max(verify._weak_blocks(verify._sampler(u, g), a, g),
                                           g.radii.size))
    slope = float(-np.polyfit(np.log(np.asarray(sizes, float)), np.log(values), 1)[0])
    return values[0].hex(), float(np.mean(rel)).hex(), slope.hex()


def report_hex(rep):
    return rep.max_residual.hex(), rep.mean_residual.hex(), rep.slope.hex()


def outer_row_results(monkeypatch):
    """The list of _outer_row_max's results during the test."""
    results, original = [], verify._outer_row_max

    def spy(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(verify, "_outer_row_max", spy)
    return results


def least_divisor(n):
    return next(d for d in range(2, n + 1) if n % d == 0)


@settings(max_examples=50, deadline=None)
@given(M=st.floats(1.2, 5.0), tau=st.floats(0.0, 1.0), nr=st.integers(5, 16),
       na=st.sampled_from([32, 64, 128]), refinements=st.integers(1, 3),
       imag=st.booleans(),
       block=st.sampled_from(["default", "200", "boundary", "boundary-3"]))
def test_outer_row_maxima_equal_the_full_walk(M, tau, nr, na, refinements, imag, block):
    # on the sharp family's homogeneous Re u (with B) and Im u (with B tilde)
    # every refined mesh takes its maxima from its outer rows, bitwise those
    # of the whole walk; "boundary" starts a block on row nr-2 of the first
    # refined mesh (its rings per block are the least divisor of nr-2),
    # "boundary-3" on row nr-3, so that the walk's first block is one ring
    fam = build_family(M, tau, node_count=512)
    red = beltrami_to_matrices(fam.pair())
    a, part = (red.B_tilde, np.imag) if imag else (red.B, np.real)
    u = lambda z: part(fam.map_at(z))  # noqa: E731
    g = PolarGrid.annulus(radius_count=nr, node_count=na, breakpoints=fam.breakpoints)
    with pytest.MonkeyPatch.context() as mp:
        if block == "200":
            mp.setattr(verify, "_BLOCK", 200)
        elif block != "default":
            r1 = g.refined()
            row = r1.radii.size - (3 if block == "boundary-3" else 2)
            mp.setattr(verify, "_BLOCK", least_divisor(row) * r1.angles.node_count)
        results = outer_row_results(mp)
        rep = weak_form_residual(u, a, g, refinements=refinements)
        assert len(results) == refinements and None not in results
        assert report_hex(rep) == full_walk_report(u, a, g, refinements)


def r_half_cos(z):
    return np.abs(z) ** -0.5 * np.cos(np.angle(z))


def zero_first_row(z):
    return np.where(np.abs(z) < 0.2501, 0.0, np.real(z ** 3))


@pytest.mark.parametrize("u, tilde", [(np.real, False), (np.imag, True), (r_half_cos, False),
                                      (zero_first_row, False)],
                         ids=["re-z", "im-z", "negative-degree", "zero-row"])
def test_outer_rows_fall_back_to_the_full_walk(monkeypatch, u, tilde):
    # R at rounding level (u = Re z, Im z solve the radial stretch of degree
    # 1 exactly), a degree alpha <= 0 or a zero first row: the probe refuses
    # and the report is the whole walk's (NaN samples are refused before the
    # probe: test_weak_form_refuses_non_finite_samples)
    red = beltrami_to_matrices(BeltramiPair.radial_stretch(1.0, node_count=256))
    a = red.B_tilde if tilde else red.B
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    results = outer_row_results(monkeypatch)
    rep = weak_form_residual(u, a, g, refinements=2)
    assert results == []
    assert report_hex(rep) == full_walk_report(u, a, g, 2)


def test_outer_rows_refuse_rounding_level_growth():
    # without the probe's check on the given mesh, the growth guard on rows
    # nr-3 -> nr-2 alone refuses Re z and Im z on every refined mesh; taking
    # row nr-2 there moved the slope from -1.2357 to -1.1218
    red = beltrami_to_matrices(BeltramiPair.radial_stretch(1.0, node_count=256))
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    for _ in range(2):
        g = g.refined()
        for u, a in ((np.real, red.B), (np.imag, red.B_tilde)):
            assert verify._outer_row_max(verify._sampler(u, g), a, g, 1.0) is None
    assert weak_form_residual(np.real, red.B, PolarGrid.annulus(radius_count=12, node_count=96),
                              refinements=2).slope == pytest.approx(-1.2357, abs=1e-4)


def test_homogeneity_probe_refuses_inf_without_warnings():
    # the assembly refuses inf samples, so (R, S) come from finite ones and
    # only the probe sees the inf samples; it must refuse them and warn nothing
    red = beltrami_to_matrices(BeltramiPair.radial_stretch(1.0, node_count=256))
    g = PolarGrid.annulus(radius_count=12, node_count=96)
    z = mesh_vertices(g).reshape(g.radii.size, -1)
    U = np.real(z ** 3)
    R, S = weak_residual_vector(U, red.B, g)
    for bad in (np.where(np.abs(z) > 0.9999, np.inf, U), np.where(np.abs(z) < 0.2501, np.inf, U)):
        assert verify._homogeneous_degree(bad, R, S, red.B, g) is None
    zeros = np.zeros(z.shape)
    assert verify._homogeneous_degree(zeros, *weak_residual_vector(zeros, red.B, g), red.B,
                                      g) is None
    assert verify._homogeneous_degree(U, R, S, red.B, g) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("angular", [True, False], ids=["angular", "pointwise"])
def test_weak_vector_does_not_depend_on_the_block(monkeypatch, angular):
    fam = build_family(2.0, 0.5, node_count=512)
    g = PolarGrid.annulus(radius_count=12, node_count=128, breakpoints=fam.breakpoints)
    z = g.radii[:, None] * np.exp(1j * g.angles.nodes)[None, :]
    if angular:
        a, vals = beltrami_to_matrices(fam.pair()).B, build_maps(fam)[1](z)
    else:
        a = CoefficientMatrixField.from_callables(
            lambda z: (2.0 + np.real(z), 0.3 * np.imag(z), 0.3 * np.imag(z) - 0.1,
                       1.5 + np.abs(z) ** 2))
        vals = np.real(np.exp(z)) + np.imag(z) ** 3
    assert (a.k is not None) == angular
    monkeypatch.setattr(verify, "_BLOCK", 1 << 30)
    R, S = weak_residual_vector(vals, a, g)  # one block
    monkeypatch.setattr(verify, "_BLOCK", 1)
    R1, S1 = weak_residual_vector(vals, a, g)  # one ring per block
    scale = np.max(S)
    assert np.max(np.abs(R1 - R)) <= 1e-13 * scale
    assert np.max(np.abs(S1 - S)) <= 1e-13 * scale


@st.composite
def meshes(draw):
    r_min = draw(st.floats(0.1, 0.6))
    nr = draw(st.integers(3, 12))
    na = draw(st.integers(4, 24)) * 4
    bks = draw(st.lists(st.floats(0.0, TWO_PI - 1e-3), max_size=3))
    return PolarGrid.annulus(r_min=r_min, r_max=1.0, radius_count=nr, node_count=na,
                             breakpoints=bks or None)


@settings(max_examples=25, deadline=None)
@given(grid=meshes(), seed=st.integers(0, 2**32 - 1), c=st.floats(0.1, 10.0),
       scale=st.floats(0.1, 10.0))
def test_weak_vector_linear_in_u_and_homogeneous_in_a(grid, seed, c, scale):
    rng = np.random.default_rng(seed)
    shape = (grid.radii.size, grid.angles.node_count)
    u, v = rng.normal(size=shape), rng.normal(size=shape)
    coef = rng.uniform(-0.3, 0.3, 4)
    a = CoefficientMatrixField.from_callables(
        lambda z: (1.5 + coef[0] * np.real(z), coef[1] + coef[2] * np.imag(z),
                   coef[1] - coef[2] * np.imag(z), 1.2 + coef[3] * np.abs(z) ** 2)
    )
    scaled = CoefficientMatrixField.from_callables(lambda z: tuple(scale * e for e in a.entries(z)))
    ru, su = weak_residual_vector(u, a, grid)
    rv, sv = weak_residual_vector(v, a, grid)
    rw, _ = weak_residual_vector(u + c * v, a, grid)
    assert np.max(np.abs(rw - (ru + c * rv))) <= 1e-12 * (np.max(su) + c * np.max(sv))
    rs, ss = weak_residual_vector(u, scaled, grid)
    assert np.max(np.abs(rs - scale * ru)) <= 1e-12 * scale * np.max(su)
    assert np.max(np.abs(ss - scale * su)) <= 1e-12 * scale * np.max(su)


@settings(max_examples=25, deadline=None)
@given(r_min=st.floats(0.05, 0.8), nr=st.integers(3, 12), na=st.integers(4, 24),
       lam=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1), smooth=st.booleans())
def test_weak_vector_scale_free_for_angular_fields(r_min, nr, na, lam, seed, smooth):
    # (R, S) of a field of arg z alone do not change when the annulus is scaled
    rng = np.random.default_rng(seed)
    bks = [0.0, 1.0, 2.5, 4.0]
    if smooth:
        grid = AngularGrid.uniform(64)
        log_k = rng.normal(size=(2, 2)) @ np.stack([np.cos(grid.nodes), np.sin(grid.nodes)])
        k = KProfile(PeriodicField(grid, np.exp(0.3 * log_k[0])),
                     PeriodicField(grid, np.exp(0.3 * log_k[1])))
    else:
        k = KProfile.piecewise(bks, rng.uniform(0.3, 3.0, 4), rng.uniform(0.3, 3.0, 4), 64)
    a = CoefficientMatrixField.from_angular_k(k)
    base = PolarGrid.annulus(r_min=r_min, r_max=1.0, radius_count=nr, node_count=4 * na,
                             breakpoints=bks)
    scaled = PolarGrid.annulus(r_min=lam * r_min, r_max=lam, radius_count=nr,
                               node_count=4 * na, breakpoints=bks)
    U = rng.normal(size=(nr, base.angles.node_count))
    R, S = weak_residual_vector(U, a, base)
    R_lam, S_lam = weak_residual_vector(U, a, scaled)
    assert np.max(np.abs(R_lam - R)) <= 1e-13 * np.max(S)
    assert np.max(np.abs(S_lam - S)) <= 1e-13 * np.max(S)


# ---------------------------------------------------------------------------
# the assembly against an extended-precision one


def longdouble_assembly(u_vals, a, grid):
    """The weak residual assembly in np.longdouble, by corner gathers as in
    add_at_assembly: vertex coordinates, edges, fluxes and the sums onto the
    vertices carry extended precision; u and the coefficient are the same
    double samples."""
    ld = np.longdouble
    r, t = grid.radii.astype(ld), grid.angles.nodes.astype(ld)
    nr, na = r.size, t.size
    U = np.asarray(u_vals, dtype=float).astype(ld)
    x, y = r[:, None] * np.cos(t)[None, :], r[:, None] * np.sin(t)[None, :]
    rows = np.arange(nr - 1)[:, None] * np.ones(na, dtype=int)[None, :]
    cols = np.ones(nr - 1, dtype=int)[:, None] * np.arange(na)[None, :]
    quad = [(rows, cols), (rows + 1, cols), (rows, (cols + 1) % na), (rows + 1, (cols + 1) % na)]
    R, S = np.zeros((nr, na), ld), np.zeros((nr, na), ld)
    for tri in ((0, 1, 3), (0, 3, 2)):
        idx = [quad[k] for k in tri]
        xs, ys, us = ([v[i] for i in idx] for v in (x, y, U))
        two_area = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (ys[1] - ys[0]) * (xs[2] - xs[0])
        gx = [(ys[1] - ys[2]) / two_area, (ys[2] - ys[0]) / two_area, (ys[0] - ys[1]) / two_area]
        gy = [(xs[2] - xs[1]) / two_area, (xs[0] - xs[2]) / two_area, (xs[1] - xs[0]) / two_area]
        gux, guy = sum(u * g for u, g in zip(us, gx)), sum(u * g for u, g in zip(us, gy))
        zc = (sum(xs) / 3).astype(float) + 1j * (sum(ys) / 3).astype(float)
        a11, a12, a21, a22 = (np.asarray(e, dtype=float).astype(ld) for e in a.entries(zc))
        fx, fy = a11 * gux + a12 * guy, a21 * gux + a22 * guy
        area = two_area / 2
        for k in range(3):
            np.add.at(R, idx[k], area * (fx * gx[k] + fy * gy[k]))
            np.add.at(S, idx[k], area * np.sqrt(fx * fx + fy * fy) * np.sqrt(gx[k] ** 2 + gy[k] ** 2))
    return R, S


def longdouble_slope(u, a, grid, refinements):
    """weak_form_residual's refinement slope, from longdouble_assembly."""
    sizes, values = [], []
    for k in range(refinements + 1):
        grid = grid.refined() if k else grid
        z = grid.radii[:, None] * np.exp(1j * grid.angles.nodes)[None, :]
        R, S = longdouble_assembly(np.asarray(u(z), dtype=float), a, grid)
        interior = slice(1, grid.radii.size - 1)
        values.append(float(np.max(np.abs(R[interior])) / np.max(S[interior])))
        sizes.append(grid.angles.node_count)
    return float(-np.polyfit(np.log(np.asarray(sizes, float)), np.log(values), 1)[0])


def test_weak_form_matches_longdouble_reference():
    # the weak residual of an exact solution is 1e-8 to 1e-5 of max S, so its
    # refinement slope magnifies rounding in (R, S); closed-form edges and
    # fluxes from differences of u keep (R, S) within a few ulps of max S
    fam = build_family(2.0, 0.0, node_count=512)
    B = beltrami_to_matrices(fam.pair()).B
    u = lambda z: np.real(fam.map_at(z))  # noqa: E731
    g = PolarGrid.annulus(radius_count=6, node_count=64, breakpoints=fam.breakpoints)
    assert abs(weak_form_residual(u, B, g, refinements=2).slope - longdouble_slope(u, B, g, 2)) <= 1e-9
    # the maps workload's mesh, where the finest residual is 4e-8 of max S
    g = PolarGrid.annulus(radius_count=16, node_count=256, breakpoints=fam.breakpoints)
    vals = u(g.radii[:, None] * np.exp(1j * g.angles.nodes)[None, :])
    R, S = weak_residual_vector(vals, B, g)
    R_ref, S_ref = longdouble_assembly(vals, B, g)
    scale = float(np.max(S_ref))
    assert float(np.max(np.abs(R - R_ref))) <= 4e-15 * scale
    assert float(np.max(np.abs(S - S_ref))) <= 2e-15 * scale
