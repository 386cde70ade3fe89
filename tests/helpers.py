"""Constructors and reductions that only the tests need."""

import numpy as np

from beltbound.estimator import _arc_reduce, _matrix_fields
from beltbound.periodic_fields import SMOOTH, AngularGrid, PeriodicField
from beltbound.reduction import CoefficientMatrixField


def field_from_callable(grid, fn, kind=SMOOTH):
    """The samples of fn at the grid's nodes."""
    return PeriodicField(grid, np.asarray(fn(grid.nodes)), kind)


def identity_matrix():
    """The constant identity matrix field."""
    return CoefficientMatrixField.constant(1.0, 0.0, 0.0, 1.0)


def node_gap_batch(on):
    """The arc reduction of a matrix restriction with one arc per node gap:
    per-gap integrals of I and extrema of D, so that per-gap weights can be
    scored with _arc_value."""
    I, D = _matrix_fields(on)
    nodes = on.grid.nodes
    grid = AngularGrid(nodes, nodes, np.arange(nodes.size))
    return _arc_reduce(on.circles, *(PeriodicField(grid, f.values, f.kind) for f in (I, D)))
