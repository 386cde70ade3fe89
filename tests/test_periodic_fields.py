"""Grid layout, sampling, quadrature, and circle geometry."""

import numpy as np
import pytest
from helpers import field_from_callable
from hypothesis import given, settings
from hypothesis import strategies as st

from beltbound.periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    AngularGrid,
    CircleSpec,
    PeriodicField,
    arg_of,
    circle_points,
    field_extrema,
    merge_breakpoints,
    periodic_mean,
    periodic_quadrature,
    wrap_angle,
)


def test_wrap_angle_range():
    t = np.array([-0.1, 0.0, TWO_PI, TWO_PI + 0.3, -7.0, 13.0])
    w = wrap_angle(t)
    assert np.all((0.0 <= w) & (w < TWO_PI))
    assert np.allclose(np.exp(1j * w), np.exp(1j * t))


def test_wrapped_lookups_read_two_pi_as_zero():
    # np.mod rounds -1e-20 up to exactly 2pi; the lookups read that as 0
    assert wrap_angle(-1e-20) == TWO_PI
    g = AngularGrid.with_breakpoints(64, [1.0, 2.5, 4.0])
    pw = PeriodicField.piecewise(g, [1.0, 2.0, 3.0, 4.0])
    sm = PeriodicField(g, 2.0 + np.cos(g.nodes))
    angles = np.concatenate([[0.0, -0.0, -1e-20, TWO_PI, 3 * TWO_PI], g.breakpoints])
    t = wrap_angle(angles)
    assert np.array_equal(g.segment_of_wrapped(t), [0, 0, 0, 0, 0, 0, 1, 2, 3])
    assert np.array_equal(g.segment_of(angles), g.segment_of_wrapped(t))
    for f in (pw, sm):
        assert np.array_equal(f.eval_wrapped(t), f.eval_at(angles))
        assert np.array_equal(f.eval_wrapped(t), f.eval_at(t))
        assert f.eval_wrapped(wrap_angle(-1e-20)) == f.eval_at(0.0)


ARG_EDGE_CASES = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                  complex(1.0, -1e-300), complex(1.0, -5e-324), complex(2.0, -1e-15),
                  -1 + 0j, complex(-1.0, -0.0), complex(np.nan, 0.0), complex(0.0, np.nan),
                  complex(-np.nan, 1.0), complex(np.inf, -np.inf), complex(-np.inf, -0.0)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=40))
def test_arg_of_is_bitwise_wrapped_angle(zs):
    z = np.array(zs + ARG_EDGE_CASES, dtype=complex)
    want = wrap_angle(np.angle(z))
    assert np.array_equal(arg_of(z).view(np.uint64), want.view(np.uint64))
    assert arg_of(complex(1.0, -1e-300)) == TWO_PI  # the one angle wrapped to 2pi


def test_merge_breakpoints_dedup_and_anchor():
    out = merge_breakpoints([1.0, 2.0], [2.0 + 1e-14, 5.0])
    assert out[0] == 0.0
    assert np.allclose(out, [0.0, 1.0, 2.0, 5.0])
    # a breakpoint at 2pi - eps collides with the anchor
    out = merge_breakpoints([TWO_PI - 1e-13])
    assert out.size == 1


def test_uniform_grid_layout():
    g = AngularGrid.uniform(16)
    assert g.node_count == 16
    assert np.allclose(np.diff(g.nodes), TWO_PI / 16)
    assert np.allclose(g.spacings().sum(), TWO_PI)


def test_breakpoint_grid_contains_breakpoints():
    bks = [0.7, 2.0, 4.4]
    g = AngularGrid.with_breakpoints(64, bks)
    for b in bks:
        assert np.min(np.abs(g.nodes - b)) == 0.0
    assert np.allclose(g.spacings().sum(), TWO_PI)
    # segment lookup is right-continuous at the breakpoints
    assert g.segment_of(0.7) == 1
    assert g.segment_of(0.7 - 1e-6) == 0
    assert g.segment_of(6.2) == 3


def test_grid_node_count_guard():
    with pytest.raises(ValueError):
        AngularGrid.uniform(3)
    with pytest.raises(ValueError):
        AngularGrid.with_breakpoints(8, [1.0, 2.0, 3.0])


def test_piecewise_field_values_and_eval():
    g = AngularGrid.with_breakpoints(32, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    f = PeriodicField.piecewise(g, [1.0, 2.0, 3.0, 4.0])
    assert f.kind == PIECEWISE
    assert np.allclose(f.piece_values(), [1.0, 2.0, 3.0, 4.0])
    assert f.eval_at(0.1) == 1.0
    assert f.eval_at(np.pi / 2) == 2.0  # right limit at the jump
    assert f.eval_at(TWO_PI - 1e-9) == 4.0


@settings(max_examples=60, deadline=None)
@given(node_count=st.integers(4, 2048),
       breakpoints=st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), max_size=24),
       seed=st.integers(0, 2**32 - 1))
def test_piecewise_expansion_equals_segment_lookup(node_count, breakpoints, seed):
    # repeating each piece over its segment's nodes is the segment lookup of
    # every node, bitwise, on uniform and breakpoint grids alike
    try:
        g = AngularGrid.with_breakpoints(node_count, breakpoints)
    except ValueError:  # too few nodes for the breakpoints
        g = AngularGrid.uniform(node_count)
    pieces = np.random.default_rng(seed).normal(size=g.breakpoints.size)
    f = PeriodicField.piecewise(g, pieces)
    assert np.array_equal(f.values, pieces[g.segment_of(g.nodes)])


def test_piecewise_wrong_count_raises():
    g = AngularGrid.with_breakpoints(32, [0.0, np.pi])
    with pytest.raises(ValueError):
        PeriodicField.piecewise(g, [1.0, 2.0, 3.0])


def test_smooth_field_eval_interpolates():
    g = AngularGrid.uniform(512)
    f = field_from_callable(g, np.cos)
    t = np.linspace(0.0, TWO_PI, 101)
    assert np.max(np.abs(f.eval_at(t) - np.cos(t))) < 2e-5


def test_quadrature_smooth_trig_identity():
    # trapezoid on uniform nodes is spectrally exact for low harmonics
    g = AngularGrid.uniform(64)
    f = field_from_callable(g, lambda t: 2.0 + np.cos(3 * t) ** 2)
    total = periodic_quadrature(f)
    assert abs(total - TWO_PI * 2.5) < 1e-12


def test_quadrature_piecewise_exact():
    g = AngularGrid.with_breakpoints(48, [0.0, 1.0, 4.0])
    f = PeriodicField.piecewise(g, [2.0, 5.0, 1.0])
    expected = 2.0 * 1.0 + 5.0 * 3.0 + 1.0 * (TWO_PI - 4.0)
    assert abs(periodic_quadrature(f) - expected) < 1e-13
    assert abs(periodic_mean(f) - expected / TWO_PI) < 1e-14


def test_field_extrema_piecewise():
    g = AngularGrid.with_breakpoints(32, [0.0, 2.0])
    f = PeriodicField.piecewise(g, [0.5, 3.0])
    lo, hi = field_extrema(f)
    assert lo == 0.5 and hi == 3.0


def test_circle_spec_geometry():
    c = CircleSpec(0.0, 0.5, resolution=256)
    assert c.origin_centered and not c.through_origin()
    z, normals = circle_points((c,), c.grid())
    assert np.allclose(np.abs(z), 0.5)
    assert np.allclose(np.abs(normals), 1.0)
    off = CircleSpec(0.3 + 0.1j, 0.2, resolution=256)
    assert not off.origin_centered
    assert CircleSpec(0.25, 0.25, resolution=256).through_origin()


def test_circle_spec_validation():
    with pytest.raises(ValueError):
        CircleSpec(0.0, -1.0)
    with pytest.raises(ValueError):
        CircleSpec(0.0, 0.5, resolution=4)


def test_seeded_eval_matches_callable_on_nodes():
    rng = np.random.default_rng(3)
    g = AngularGrid.with_breakpoints(128, [0.3, 1.9, 5.1])
    vals = rng.normal(size=g.node_count)
    f = PeriodicField(g, vals, SMOOTH)
    assert np.array_equal(f.eval_at(g.nodes), vals)
