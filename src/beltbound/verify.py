"""Independent numerical checks: first-order equation residuals, weak-form
residuals for the divergence reduction, and empirical exponent measurement.

Everything here works on annuli; the maps under test are merely Holder at the
origin, so behavior near 0 is measured by the oscillation fit instead of by
derivatives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .periodic_fields import TWO_PI, AngularGrid, wrap_angle
from .reduction import BeltramiPair, CoefficientMatrixField, EllipticityError
from .stretching import AngularStretching, eval_stretching

__all__ = [
    "PolarGrid",
    "ResidualReport",
    "beltrami_residual",
    "weak_residual_vector",
    "weak_form_residual",
    "empirical_holder",
]


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Annulus mesh: geometric radii, angular nodes, and arcs to skip when
    derivatives are evaluated pointwise (coefficient jump neighborhoods).

    The radii must be geometric (consecutive ratios equal to 1e-12
    relative), as annulus and refined build them: each ring of the mesh is
    then a scaled copy of the first, which the weak-form assembly relies on.
    For u homogeneous of degree alpha > 0 and an angular A, the weak
    residuals of each vertex row are then q^alpha times those of the row
    below (q the ring ratio), so weak_form_residual reads a refined mesh's
    maxima off its outer rows.
    """

    radii: np.ndarray
    angles: AngularGrid
    excluded_arcs: tuple = ()

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or r.size < 3:
            raise ValueError("need at least 3 radii")
        if r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise ValueError("radii must be positive and increasing")
        ratios = r[1:] / r[:-1]
        if np.max(np.abs(ratios - ratios[0])) > 1e-12 * ratios[0]:
            raise ValueError("radii must be geometric (equal consecutive ratios)")
        object.__setattr__(self, "radii", r)

    @classmethod
    def annulus(
        cls,
        r_min: float = 0.25,
        r_max: float = 1.0,
        radius_count: int = 24,
        node_count: int = 512,
        breakpoints=None,
    ) -> "PolarGrid":
        radii = np.geomspace(r_min, r_max, radius_count)
        if breakpoints is None:
            angles = AngularGrid.uniform(node_count)
            arcs = ()
        else:
            angles = AngularGrid.with_breakpoints(node_count, breakpoints)
            h = 1.5 * TWO_PI / node_count  # the arcs skipped around each breakpoint
            arcs = tuple((b - h, b + h) for b in angles.breakpoints)
        return cls(radii, angles, arcs)

    def refined(self) -> "PolarGrid":
        """Double both resolutions, keeping extent and excluded arcs."""
        radii = np.geomspace(self.radii[0], self.radii[-1], 2 * self.radii.size - 1)
        angles = AngularGrid.with_breakpoints(2 * self.angles.node_count, self.angles.breakpoints)
        return PolarGrid(radii, angles, self.excluded_arcs)

    def angle_mask(self, thetas) -> np.ndarray:
        """True where an angle is clear of every excluded arc."""
        t = wrap_angle(np.asarray(thetas, dtype=float))
        keep = np.ones(t.shape, dtype=bool)
        for lo, hi in self.excluded_arcs:
            d = wrap_angle(t - lo)
            keep &= ~(d < (hi - lo) % TWO_PI + 1e-15)
        return keep


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    mean_residual: float
    resolution: tuple[int, int]
    slope: float | None = None


# ---------------------------------------------------------------------------
# first-order equation residual


def _closed_form_derivatives(s: AngularStretching, radii):
    """(z, dbar f, d f) on the tensor grid radii x native profile nodes."""
    t = s.grid.nodes
    P = s.eta1.values + 1j * s.eta2.values
    dP = s.deta1 + 1j * s.deta2
    r = np.asarray(radii, dtype=float)[:, None]
    pref = r ** (s.alpha - 1.0)
    e_pos = np.exp(1j * t)[None, :]
    dbar = 0.5 * e_pos * pref * (s.alpha * P + 1j * dP)[None, :]
    dplus = 0.5 * np.conj(e_pos) * pref * (s.alpha * P - 1j * dP)[None, :]
    return r * e_pos, dbar, dplus, t


def _fd_derivatives(f, grid: PolarGrid):
    t = grid.angles.nodes
    r = grid.radii
    z = r[:, None] * np.exp(1j * t)[None, :]
    F = np.asarray(f(z), dtype=complex)
    f_r = np.gradient(F, r, axis=0, edge_order=2)
    t_ext = np.concatenate([[t[-1] - TWO_PI], t, [t[0] + TWO_PI]])
    F_ext = np.concatenate([F[:, -1:], F, F[:, :1]], axis=1)
    f_t = np.gradient(F_ext, t_ext, axis=1, edge_order=2)[:, 1:-1]
    e_pos = np.exp(1j * t)[None, :]
    dbar = 0.5 * e_pos * (f_r + 1j * f_t / r[:, None])
    dplus = 0.5 * np.conj(e_pos) * (f_r - 1j * f_t / r[:, None])
    return z, dbar, dplus, t


def beltrami_residual(f, pair: BeltramiPair, grid: PolarGrid | None = None) -> ResidualReport:
    """Normalized residual of the first-order equation on an annulus.

    Angular stretchings use exact polar derivatives at their native nodes, on
    the unit ring for an angular pair (machine-accurate, including at jumps,
    by the shared right-limit convention).  Plain callables fall back to
    second-order finite differences, with jump neighborhoods excluded.
    """
    if grid is None:
        bks = pair.k.grid.breakpoints if pair.is_angular else None
        grid = PolarGrid.annulus(breakpoints=bks)
    one_ring = isinstance(f, AngularStretching) and pair.is_angular
    if isinstance(f, AngularStretching):
        # with an angular pair, dbar, dplus and the residual are r^(alpha-1)
        # times a column factor, so the unit ring gives every maximum
        z, dbar, dplus, t = _closed_form_derivatives(f, [1.0] if one_ring else grid.radii)
    elif callable(f):
        if pair.is_angular:
            counts = np.bincount(
                pair.k.grid.segment_of(grid.angles.nodes),
                minlength=pair.k.grid.breakpoints.size,
            )
            if np.min(counts) < 3:
                raise ValueError("grid too coarse: fewer than 3 nodes in a smooth piece")
        z, dbar, dplus, t = _fd_derivatives(f, grid)
    else:
        raise TypeError("f must be an AngularStretching or a callable z -> f(z)")
    zc = z[:1] if pair.is_angular else z  # angular coefficients: one ring, broadcast
    mu, nu = pair.munu(zc)
    res = dbar - mu * dplus - nu * np.conj(dplus)
    keep = grid.angle_mask(t)
    scale = np.max(np.abs(dplus[:, keep])) + np.max(np.abs(dbar[:, keep]))
    r_abs = np.abs(res[:, keep])
    pw = grid.radii ** (f.alpha - 1.0) if one_ring else np.ones(1)  # per-ring factor
    return ResidualReport(
        max_residual=float(np.max(r_abs) / scale),
        mean_residual=float(np.mean(pw) / np.max(pw) * np.mean(r_abs) / scale),
        resolution=(grid.radii.size, grid.angles.node_count),
    )


# ---------------------------------------------------------------------------
# weak form on the annulus

_BLOCK = 1 << 12  # mesh cells per ring block of the weak-form assembly


def _triangle_vertices(V):
    """Per-vertex values (v0, v1, v2) of both triangle families of the mesh
    whose vertex values V have shape (..., rows, na).

    The quad with corners q0 = (i, j), q1 = (i+1, j), q2 = (i, j+1) and
    q3 = (i+1, j+1) splits along its outward diagonal into the
    counterclockwise triangles (q0, q1, q3) and (q0, q3, q2); the families
    are stacked on the third axis from the end, so v1 and v2 have shape
    (..., 2, rows-1, na) and v0, shared, (..., 1, rows-1, na).
    """
    V = np.concatenate([V, V[..., :1]], axis=-1)  # column na repeats column 0
    q0, q1, q2, q3 = V[..., :-1, :-1], V[..., 1:, :-1], V[..., :-1, 1:], V[..., 1:, 1:]
    W = np.stack([q1, q3, q2], axis=-3)  # vertices 1, 2: (q1, q3) and (q3, q2)
    return q0[..., None, :, :], W[..., :2, :, :], W[..., 1:, :, :]


def _unit_ring(grid: PolarGrid):
    """(centroid, hat gradients (gx, gy) per vertex, and the same times the
    triangle's area) of the triangles between radii 1 and q = r1/r0, as
    arrays of shape (2, 1, na).

    On a geometric mesh the triangles between r_i and r_{i+1} are r_i times
    these: centroids scale by r_i, areas by r_i^2, hat gradients by 1/r_i.
    Edges are closed-form, radial (q - 1) e_j and angular 2 sin(h_j/2) times
    the mid-angle tangent (vertex differences lose about two digits).
    """
    q = grid.radii[1] / grid.radii[0]
    t, h = grid.angles.nodes, grid.angles.spacings()
    c, s = np.cos(t), np.sin(t)
    (x0, y0), (x1, y1), (x2, y2) = _triangle_vertices(np.stack([[c, c * q], [s, s * q]]))
    chord, mid = 2.0 * np.sin(0.5 * h), t + 0.5 * h
    ang = np.array([-chord * np.sin(mid), chord * np.cos(mid)])  # e_{j+1} - e_j
    rad = (q - 1.0) * np.array([c, s])  # q e_j - e_j
    diag = rad + q * ang  # q e_{j+1} - e_j
    # (x, y) of the edges P1 - P0, P2 - P0, P2 - P1 of (q0, q1, q3) and (q0, q3, q2)
    e01, e02 = np.stack([rad, diag], 1)[:, :, None], np.stack([diag, ang], 1)[:, :, None]
    e12 = np.stack([q * ang, -np.roll(rad, -1, axis=-1)], 1)[:, :, None]
    area = 0.5 * (e01[0] * e02[1] - e01[1] * e02[0])
    hx = (-0.5 * e12[1], 0.5 * e02[1], -0.5 * e01[1])  # area times the hat gradients
    hy = (0.5 * e12[0], -0.5 * e02[0], 0.5 * e01[0])
    centroid = (x0 + x1 + x2 + 1j * (y0 + y1 + y2)) / 3.0
    return centroid, ([v / area for v in hx], [v / area for v in hy]), (hx, hy)


def _to_vertices(v0, v1, v2):
    """Per-triangle vertex values summed onto the (nr, na) mesh vertices."""
    _, m, na = v0.shape
    out = np.zeros((m + 1, na + 1))  # column na is column 0 again
    out[:-1, :-1] += v0[0] + v0[1]
    out[1:, :-1] += v1[0]
    out[:-1, 1:] += v2[1]
    out[1:, 1:] += v2[0] + v1[1]
    out[:, 0] += out[:, na]
    return out[:, :na]


def _flux_factors(a: CoefficientMatrixField, centroid, gx, gy):
    """r_i times the flux A grad(u_h) per difference of u (g0 = -g1 - g2),
    as (x, y) lists over u1 - u0 and u2 - u0, with A read at the centroids.
    Raises EllipticityError unless A is finite and positive definite there:
    it can lose positivity in floating point even when its field is
    elliptic, and a callable field can return NaN or inf."""
    a11, a12, a21, a22 = entries = a.entries(centroid)
    if not all(np.isfinite(v).all() for v in entries):
        raise EllipticityError("coefficient matrix is not finite on the mesh")
    if not (np.min(a11) > 0 and np.min(a11 * a22 - a12 * a21) > 0):
        raise EllipticityError("coefficient matrix is not positive definite on the mesh")
    agx = [a11 * gx[m] + a12 * gy[m] for m in (1, 2)]
    agy = [a21 * gx[m] + a22 * gy[m] for m in (1, 2)]
    return agx, agy


def _weak_blocks(sample, a: CoefficientMatrixField, grid: PolarGrid, start: int = 0):
    """The assembled (R, S) of weak_residual_vector, streamed: yields
    (first row, R rows, S rows) for consecutive runs of finished vertex rows.

    The mesh is walked in blocks of whole rings, at most _BLOCK cells each
    (one ring where a ring is longer).  sample(i, j) gives the u values of
    vertex rows i..j-1; it is called on the first row, then on the rows each
    block adds, so every vertex is sampled once and the row a block shares
    with the next is carried over.  A field of arg z alone is read once, on
    the unit ring; any other field at each block's centroids.  The shared
    row's partial sums are held back and added to the next block's, so a row
    is yielded only when it is finished.  With start > 0 the walk begins at
    ring start itself and ends each block on the whole walk's next block
    boundary: its first row lacks the ring below and is partial, every later
    row is summed in the whole walk's order, so it is bitwise that walk's.
    Samples that are not finite raise ValueError naming their vertex rows,
    before any arithmetic on them.
    """
    nr, na = grid.radii.size, grid.angles.node_count
    centroid, (gx, gy), (hx, hy) = _unit_ring(grid)
    angular = _flux_factors(a, centroid, gx, gy) if a.k is not None else None
    hnorm = [np.hypot(hx[k], hy[k]) for k in range(3)]
    step = max(1, _BLOCK // na)

    def finite(i, j):
        vals = sample(i, j)
        bad = (i + np.flatnonzero(~np.isfinite(vals).all(axis=1))).tolist()
        if bad:
            raise ValueError(f"u is not finite at vertex rows {bad}")
        return vals

    U, r_held, s_held = finite(start, start + 1), 0.0, 0.0
    edges = [start, *range((start // step + 1) * step, nr - 1, step), nr - 1]
    for i0, i1 in zip(edges[:-1], edges[1:]):
        U = np.concatenate([U[-1:], finite(i0 + 1, i1 + 1)])
        agx, agy = angular or _flux_factors(a, grid.radii[i0:i1, None] * centroid, gx, gy)
        u0, u1, u2 = _triangle_vertices(U)
        d1, d2 = u1 - u0, u2 - u0
        fx = d1 * agx[0] + d2 * agx[1]
        fy = d1 * agy[0] + d2 * agy[1]
        flux_mag = np.sqrt(fx * fx + fy * fy)
        R = _to_vertices(*(fx * hx[k] + fy * hy[k] for k in range(3)))
        S = _to_vertices(*(flux_mag * hnorm[k] for k in range(3)))
        R[0] += r_held
        S[0] += s_held
        r_held, s_held = R[-1], S[-1]
        yield i0, R[:-1], S[:-1]
    yield nr - 1, r_held[None], s_held[None]


def weak_residual_vector(u_vals, a: CoefficientMatrixField, grid: PolarGrid):
    """Assembled weak residuals int A grad(u_h) . grad(hat) per mesh vertex.

    The annulus is triangulated with straight triangles on the polar vertices
    and u is interpolated linearly per triangle, so planar affine functions
    are reproduced exactly.  Returns (residual, normalizer) arrays over all
    vertices; the normalizer accumulates absolute per-triangle contributions
    and measures how much cancellation the residual represents.  The
    residual array is linear in u and homogeneous of degree one in A.
    Samples that are not finite raise ValueError naming their vertex rows.

    The assembly is scale-free and needs the geometric radii PolarGrid
    enforces: on the ring between r_i and r_{i+1} the triangle area scales by
    r_i^2 and each hat gradient by 1/r_i, so area g_k . A g_l and
    area |g_k| |A grad u_h| do not depend on r_i.  The geometry is therefore
    computed once, on the unit ring of _unit_ring, and so is A when it
    depends on arg z only (angular fields).  The rest is streamed through
    blocks of whole rings of at most _BLOCK cells (_weak_blocks): any other
    field is evaluated at one block's centroids at a time, and each block
    adds into its vertex rows by one slice-add per quad corner, so the
    temporaries are set by the block, not the mesh.  This function copies
    the finished rows into whole-mesh arrays.
    """
    nr, na = grid.radii.size, grid.angles.node_count
    U = np.asarray(u_vals, dtype=float)
    if U.shape != (nr, na):
        raise ValueError(f"samples must have shape {(nr, na)}, got {U.shape}")
    R, S = np.empty((nr, na)), np.empty((nr, na))
    for i, r, s in _weak_blocks(lambda i, j: U[i:j], a, grid):
        R[i:i + len(r)], S[i:i + len(s)] = r, s
    return R, S


def _streamed_max(blocks, nr: int) -> float:
    """max |R| / max S over the interior rows 1..nr-2 of _weak_blocks,
    keeping only running maxima.  It is max(|R| / max S) bitwise: correctly
    rounded division by a positive number is monotone."""
    r_max = s_max = -np.inf
    for i, r, s in blocks:
        lo, hi = max(0, 1 - i), min(len(r), nr - 1 - i)
        if lo < hi:
            r_max = np.maximum(r_max, np.max(np.abs(r[lo:hi])))
            s_max = np.maximum(s_max, np.max(s[lo:hi]))
    return float(r_max / s_max)


def _grows(R, S, factor) -> bool:
    """True when max |R| and max S both grew by factor, to (factor - 1) / 100,
    from the first of two vertex rows to the second; False on a zero, inf or
    NaN maximum."""
    (r0, r1), (s0, s1) = np.max(np.abs(R), axis=1), np.max(S, axis=1)
    tol = (factor - 1.0) / 100.0
    with np.errstate(all="ignore"):
        return bool(abs(r1 / r0 - factor) <= tol and abs(s1 / s0 - factor) <= tol)


def _homogeneous_degree(U, R, S, a: CoefficientMatrixField, grid: PolarGrid):
    """The degree alpha > 0 of u when the samples U of the given mesh show it
    homogeneous, U[i] = (r_i / r_0)^alpha U[0] to 1e-12 relative per row,
    A is angular and the assembled (R, S) grow by q^alpha from row nr-3 to
    nr-2; else None.  The refined meshes are then taken to scale the same
    way, ring by ring, so that their maxima lie on their last interior row
    (_outer_row_max checks the growth there again)."""
    if a.k is None:
        return None
    r = grid.radii
    with np.errstate(all="ignore"):
        alpha = np.log(np.max(np.abs(U[-1])) / np.max(np.abs(U[0]))) / np.log(r[-1] / r[0])
        if not (np.isfinite(alpha) and alpha > 0):
            return None
        scaled = (r / r[0])[:, None] ** alpha * U[0]
        if not np.all(np.abs(U - scaled) <= 1e-12 * np.max(np.abs(U), axis=1, keepdims=True)):
            return None
        factor = (r[1] / r[0]) ** alpha
    return float(alpha) if _grows(R[-3:-1], S[-3:-1], factor) else None


def _outer_row_max(sample, a: CoefficientMatrixField, grid: PolarGrid, alpha: float):
    """max |R| / max S of a mesh whose rings scale by q^alpha, from its last
    interior row, or None when rows nr-3 -> nr-2 did not grow by q^alpha.

    Only rows nr-4..nr-1 are sampled and rings nr-4..nr-2 assembled, walked
    from ring nr-4 on the whole walk's block boundaries, so rows nr-3 and
    nr-2 are bitwise those of _streamed_max's walk, and so is the maximum
    when it lies on the last interior row."""
    blocks = list(_weak_blocks(sample, a, grid, grid.radii.size - 4))
    R = np.concatenate([r for _, r, _ in blocks])[-3:-1]
    S = np.concatenate([s for _, _, s in blocks])[-3:-1]
    if not _grows(R, S, (grid.radii[1] / grid.radii[0]) ** alpha):
        return None
    return float(np.max(np.abs(R[1])) / np.max(S[1]))


def _sampler(u, grid: PolarGrid):
    """sample(i, j) for _weak_blocks: u at the vertices of rows i..j-1."""
    e_pos = np.exp(1j * grid.angles.nodes)[None, :]

    def sample(i, j):
        z = grid.radii[i:j, None] * e_pos
        vals = np.asarray(u(z), dtype=float)
        if vals.shape != z.shape:
            raise ValueError(f"u must return one value per point: shape {z.shape}, "
                             f"got {vals.shape}")
        return vals

    return sample


def weak_form_residual(
    u,
    a: CoefficientMatrixField,
    grid: PolarGrid,
    refinements: int = 0,
) -> ResidualReport:
    """Discrete weak residual of div(A grad u) = 0 against interior hats.

    u is a pointwise callable on complex points, sampled at the mesh
    vertices, each vertex once except as noted below: the given mesh in one
    call, the refined ones a block of rows at a time, so u(z) must not depend
    on which other points z holds.  Test functions vanish on the annulus
    boundary, so only interior radial nodes carry residuals; jumps in A are
    fine (the integral formulation sees them).  The maximum is max |R| / max S over interior
    vertices and the mean that of |R| / max S on the given mesh, assembled
    by weak_residual_vector.  With refinements > 0 the mesh is doubled that
    many times and the report carries the log-log slope of the maxima; the
    refined meshes are streamed through ring blocks (_weak_blocks) keeping
    only running maxima, so their memory is set by the block, not the mesh.

    When the given mesh shows u homogeneous (_homogeneous_degree: A angular,
    each sampled row (r_i / r_0)^alpha times the first to 1e-12 relative
    with alpha > 0, and max |R| and max S growing by q^alpha from row nr-3
    to nr-2), each refined mesh is sampled and assembled only from ring
    nr-4, and its maximum is read off row nr-2, bitwise the whole walk's
    (_outer_row_max).  That needs rows nr-3 -> nr-2 of the refined mesh to
    grow by q^alpha as well, to (q^alpha - 1) / 100 in both max |R| and
    max S; where they do not (R at rounding level), the refined mesh is
    walked whole, so its rows from ring nr-4 on are sampled twice.

    No report carries NaN: u that is not finite at a vertex raises
    ValueError naming such rows of the first ring block holding one, and A
    that is not finite and positive definite at a triangle's centroid
    raises EllipticityError.
    """
    if a.k is not None:
        bk = a.k.grid.breakpoints
        gbk = grid.angles.breakpoints
        if any(np.min(np.abs(wrap_angle(b - gbk + np.pi) - np.pi)) > 1e-9 for b in bk):
            warnings.warn("coefficient breakpoints not aligned with the angular mesh",
                          stacklevel=2)

    U = _sampler(u, grid)(0, grid.radii.size)
    R, S = weak_residual_vector(U, a, grid)
    rel = np.abs(R[1:-1]) / np.max(S[1:-1])
    mx, mean = float(np.max(rel)), float(np.mean(rel))
    slope = None
    if refinements > 0:
        alpha = _homogeneous_degree(U, R, S, a, grid)
        sizes = [grid.angles.node_count]
        values = [mx]
        g = grid
        for _ in range(refinements):
            g = g.refined()
            sample = _sampler(u, g)
            value = None if alpha is None else _outer_row_max(sample, a, g, alpha)
            if value is None:
                value = _streamed_max(_weak_blocks(sample, a, g), g.radii.size)
            sizes.append(g.angles.node_count)
            values.append(value)
        slope = float(
            -np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(values)), 1)[0]
        )
    return ResidualReport(
        max_residual=mx,
        mean_residual=mean,
        resolution=(grid.radii.size, grid.angles.node_count),
        slope=slope,
    )


# ---------------------------------------------------------------------------
# exponent from oscillation decay


def empirical_holder(f, scales: int = 10):
    """Fit of log max-oscillation over circles against log radius.

    Radii are dyadic, 2^{-1} .. 2^{-scales}, each circle sampled at 512
    equally spaced angles; f is evaluated once, on the (scales, 512) array
    of all those points.  Returns (slope, diagnostics) where diagnostics
    carries the fit quality and raw data.  For maps of the form
    r^alpha * profile the slope recovers alpha.
    """
    if scales < 4:
        raise ValueError(f"need at least 4 dyadic scales, got {scales}")
    radii = 2.0 ** -np.arange(1, scales + 1)
    t = TWO_PI * np.arange(512) / 512
    z = radii[:, None] * np.exp(1j * t)[None, :]
    vals = eval_stretching(f, z) if isinstance(f, AngularStretching) else f(z)
    osc = np.max(np.abs(vals), axis=1)
    if np.any(osc <= 0):
        raise ValueError("oscillation vanished on a circle; cannot fit an exponent")
    x, y = np.log(radii), np.log(osc)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    diagnostics = {
        "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        "radii": radii,
        "oscillation": osc,
        "intercept": float(intercept),
    }
    return float(slope), diagnostics
