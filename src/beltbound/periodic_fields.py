"""Angular grids on [0, 2pi), sampled periodic fields, and circle geometry.

Everything downstream (coefficient restriction, circle averages, weight
optimization) runs on samples over an AngularGrid.  The grid is a union of
uniform subgrids between breakpoints, so discontinuous integrands whose jumps
sit on breakpoints are integrated piecewise-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TWO_PI",
    "SMOOTH",
    "PIECEWISE",
    "wrap_angle",
    "arg_of",
    "merge_breakpoints",
    "AngularGrid",
    "PeriodicField",
    "gap_right_values",
    "gap_integrals",
    "field_extrema",
    "CircleSpec",
    "circle_points",
]

TWO_PI = 2.0 * np.pi

# field kinds
SMOOTH = "smooth"
PIECEWISE = "piecewise-constant"

_MERGE_TOL = 1e-12
_DUPLICATE_TOL = 1e-10  # breakpoints closer than this are one


def wrap_angle(theta):
    """Map angles into [0, 2pi], and into [0, 2pi) but for one case: np.mod
    rounds a negative angle closer to 0 than half an ulp of 2pi (-1e-20,
    say) up to exactly 2pi.  The lookups below read 2pi as 0.
    """
    return np.mod(theta, TWO_PI)


def arg_of(z):
    """wrap_angle(np.angle(z)), bitwise, without the division in np.mod:
    np.angle lies in [-pi, pi], where adding 2pi or 0.0 rounds as np.mod
    does (adding 0.0 also turns np.angle's -0.0 into np.mod's +0.0)."""
    a = np.angle(z)
    return a + TWO_PI * (a < 0)


def merge_breakpoints(breakpoints) -> np.ndarray:
    """Sorted, wrapped breakpoints (None for none) with near-duplicates
    removed; a caller with several sets passes their concatenation.

    0 is always a member: grids anchor their first node there, which costs
    nothing (an extra segment boundary inside a smooth piece) and keeps node
    arrays sorted without wrap-around bookkeeping.
    """
    given = [] if breakpoints is None else np.asarray(breakpoints, dtype=float)
    merged = np.sort(np.concatenate([np.zeros(1), wrap_angle(np.ravel(given))]))
    keep = np.concatenate([[True], np.diff(merged) > _DUPLICATE_TOL])
    out = merged[keep]
    # a breakpoint that close to 2pi collides with 0
    if out.size > 1 and TWO_PI - out[-1] <= _DUPLICATE_TOL:
        out = out[:-1]
    return out


@dataclass(frozen=True, eq=False)
class AngularGrid:
    """Nodes in [0, 2pi), uniform between consecutive breakpoints.

    Invariants: nodes sorted, every breakpoint is a node, node 0 exists.
    """

    nodes: np.ndarray
    breakpoints: np.ndarray
    segment_starts: np.ndarray  # node index of each breakpoint

    @classmethod
    def uniform(cls, node_count: int) -> "AngularGrid":
        if node_count < 4:
            raise ValueError(f"node_count must be >= 4, got {node_count}")
        nodes = TWO_PI * np.arange(node_count) / node_count
        return cls(nodes, np.zeros(1), np.zeros(1, dtype=int))

    @classmethod
    def with_breakpoints(cls, node_count: int, breakpoints) -> "AngularGrid":
        bks = merge_breakpoints(breakpoints)
        if bks.size == 1:
            return cls.uniform(node_count)
        if node_count < 4 * bks.size:
            raise ValueError(
                f"node_count {node_count} too small for {bks.size} breakpoints"
            )
        rights = np.concatenate([bks[1:], [TWO_PI]])
        lengths = rights - bks
        counts = np.maximum(1, np.rint(node_count * lengths / TWO_PI).astype(int))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        seg = np.repeat(np.arange(bks.size), counts)
        nodes = bks[seg] + lengths[seg] * (np.arange(seg.size) - starts[seg]) / counts[seg]
        return cls(nodes, bks, starts)

    @property
    def node_count(self) -> int:
        return self.nodes.size

    def spacings(self) -> np.ndarray:
        """Node-to-node gaps, cyclically closed."""
        return np.diff(np.concatenate([self.nodes, [self.nodes[0] + TWO_PI]]))

    def segment_of_wrapped(self, t) -> np.ndarray:
        """Index of the breakpoint segment containing each angle, for angles
        already wrapped by wrap_angle; 2pi, which np.mod returns for angles
        just below 0, lies in segment 0."""
        seg = np.maximum(np.searchsorted(self.breakpoints, t + _MERGE_TOL, side="right") - 1, 0)
        return np.where(t == TWO_PI, 0, seg)

    def same_layout(self, other: "AngularGrid") -> bool:
        return self.nodes.size == other.nodes.size and np.array_equal(
            self.nodes, other.nodes
        )


@dataclass(frozen=True, eq=False)
class PeriodicField:
    """Samples of a 2pi-periodic function on an AngularGrid.

    kind is SMOOTH (continuous between and across breakpoints) or PIECEWISE
    (constant between consecutive breakpoints; node values within a segment
    all agree and jumps sit exactly on breakpoints).  Samples run along the
    last axis; a leading axis stacks restrictions to circles of one grid.
    """

    grid: AngularGrid
    values: np.ndarray
    kind: str = SMOOTH

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape[-1:] != (self.grid.node_count,):
            raise ValueError(
                f"expected {self.grid.node_count} samples, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():  # the mask only to name the bad node
            idx = int(np.flatnonzero(~np.isfinite(vals))[0]) % self.grid.node_count
            raise ValueError(f"non-finite sample at node {idx} (theta={self.grid.nodes[idx]:.6f})")
        if self.kind not in (SMOOTH, PIECEWISE):
            raise ValueError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: AngularGrid, value) -> "PeriodicField":
        return cls(grid, np.full(grid.node_count, value), PIECEWISE)

    @classmethod
    def piecewise(cls, grid: AngularGrid, piece_values) -> "PeriodicField":
        """One constant per breakpoint segment, expanded to node samples."""
        piece_values = np.asarray(piece_values)
        if piece_values.shape != (grid.breakpoints.size,):
            raise ValueError(
                f"expected {grid.breakpoints.size} piece values, got {piece_values.shape}"
            )
        counts = np.diff(grid.segment_starts, append=grid.node_count)
        return cls(grid, np.repeat(piece_values, counts), PIECEWISE)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def piece_values(self) -> np.ndarray:
        """Per-segment constants (valid for PIECEWISE fields)."""
        return self.values[self.grid.segment_starts]

    # benchmark/tracer.py times it (periodic_fields.eval_at.*); goes with ROADMAP item 17
    def eval_at(self, theta) -> np.ndarray:
        """Evaluate off-node: step lookup (piecewise) or periodic linear interp."""
        return self.eval_wrapped(wrap_angle(np.asarray(theta, dtype=float)))

    def eval_wrapped(self, t) -> np.ndarray:
        """eval_at for angles already wrapped by wrap_angle, so that a caller
        which needs the wrapped angle itself wraps it only once."""
        if self.kind == PIECEWISE:
            return self.piece_values()[self.grid.segment_of_wrapped(t)]
        xp = np.concatenate([self.grid.nodes, [self.grid.nodes[0] + TWO_PI]])
        fp = np.concatenate([self.values, [self.values[0]]])
        if np.iscomplexobj(fp):
            return np.interp(t, xp, fp.real) + 1j * np.interp(t, xp, fp.imag)
        return np.interp(t, xp, fp)


def gap_right_values(field: PeriodicField) -> np.ndarray:
    """The field's value at the right end of each node gap, the last gap
    closing at 2pi: the node's own value for piecewise-constant fields, which
    are constant on every gap, and the next node's for smooth fields.  This is
    the only place where per-gap integrals and extrema tell the kinds apart.
    Smooth values are shifted by one node with two slices: the bytes of
    np.roll(values, -1, axis=-1), without its general index handling.
    """
    v = field.values
    return v if field.kind == PIECEWISE else np.concatenate((v[..., 1:], v[..., :1]), axis=-1)


def gap_integrals(field: PeriodicField) -> np.ndarray:
    """Trapezoid integral over each node gap (exact for piecewise fields);
    their sum over the last axis is the integral over one period."""
    return field.grid.spacings() * 0.5 * (field.values + gap_right_values(field))


def field_extrema(field: PeriodicField) -> tuple[float, float]:
    """(min, max) over samples; refuses complex data."""
    if not field.is_real:
        raise TypeError("extrema of a complex-valued field are undefined")
    return float(np.min(field.values)), float(np.max(field.values))


@dataclass(frozen=True)
class CircleSpec:
    """A circle |z - center| = radius with a sampling resolution."""

    center: complex
    radius: float
    resolution: int = 2048

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.resolution < 16:
            raise ValueError(f"resolution must be >= 16, got {self.resolution}")

    @property
    def origin_centered(self) -> bool:
        return abs(self.center) < 1e-14 * max(1.0, self.radius)

    def through_origin(self) -> bool:
        return abs(abs(self.center) - self.radius) <= 1e-9 * self.radius

    def grid(self, breakpoints=None) -> AngularGrid:
        return AngularGrid.with_breakpoints(self.resolution, breakpoints)


def circle_points(circles, grid: AngularGrid) -> tuple[np.ndarray, np.ndarray]:
    """(points z, row c on circles[c], and outward normals e^{it}) at grid nodes."""
    n = np.exp(1j * grid.nodes)
    centers = np.array([c.center for c in circles])[:, None]
    radii = np.array([float(c.radius) for c in circles])[:, None]
    return centers + radii * n, n
