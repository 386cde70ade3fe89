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
from .reduction import BeltramiPair, CoefficientMatrixField
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

    Angular stretchings use exact polar derivatives at their native nodes
    (machine-accurate, including at coefficient jumps, by the shared
    right-limit convention).  Plain callables fall back to second-order
    finite differences, with jump neighborhoods excluded.
    """
    if grid is None:
        bks = pair.mu0.grid.breakpoints if pair.is_angular else None
        grid = PolarGrid.annulus(breakpoints=bks)
    if isinstance(f, AngularStretching):
        z, dbar, dplus, t = _closed_form_derivatives(f, grid.radii)
    elif callable(f):
        if pair.is_angular:
            counts = np.bincount(
                pair.mu0.grid.segment_of(grid.angles.nodes),
                minlength=pair.mu0.grid.breakpoints.size,
            )
            if np.min(counts) < 3:
                raise ValueError("grid too coarse: fewer than 3 nodes in a smooth piece")
        z, dbar, dplus, t = _fd_derivatives(f, grid)
    else:
        raise TypeError("f must be an AngularStretching or a callable z -> f(z)")
    mu = np.asarray(pair.mu_fn(z), dtype=complex)
    nu = np.asarray(pair.nu_fn(z), dtype=complex)
    res = dbar - mu * dplus - nu * np.conj(dplus)
    keep = grid.angle_mask(t)
    scale = np.max(np.abs(dplus[:, keep])) + np.max(np.abs(dbar[:, keep]))
    r_abs = np.abs(res[:, keep])
    return ResidualReport(
        max_residual=float(np.max(r_abs) / scale),
        mean_residual=float(np.mean(r_abs) / scale),
        resolution=(grid.radii.size, grid.angles.node_count),
    )


# ---------------------------------------------------------------------------
# weak form on the annulus


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


def weak_residual_vector(u_vals, a: CoefficientMatrixField, grid: PolarGrid):
    """Assembled weak residuals int A grad(u_h) . grad(hat) per mesh vertex.

    The annulus is triangulated with straight triangles on the polar vertices
    and u is interpolated linearly per triangle, so planar affine functions
    are reproduced exactly.  Returns (residual, normalizer) arrays over all
    vertices; the normalizer accumulates absolute per-triangle contributions
    and measures how much cancellation the residual represents.  The
    residual array is linear in u and homogeneous of degree one in A.

    The assembly is scale-free and needs the geometric radii PolarGrid
    enforces: on the ring between r_i and r_{i+1} the triangle area scales by
    r_i^2 and each hat gradient by 1/r_i, so area g_k . A g_l and
    area |g_k| |A grad u_h| do not depend on r_i.  The geometry is therefore
    computed once, on the unit ring of _unit_ring, and so is A when it
    depends on arg z only (angular fields); any other field is
    evaluated at every ring's centroids.  Only the products with the samples
    of u run over the whole mesh, and contributions return to the vertices
    by one slice-add per quad corner.
    """
    nr, na = grid.radii.size, grid.angles.node_count
    U = np.asarray(u_vals, dtype=float)
    if U.shape != (nr, na):
        raise ValueError(f"samples must have shape {(nr, na)}, got {U.shape}")
    centroid, (gx, gy), (hx, hy) = _unit_ring(grid)
    a11, a12, a21, a22 = a.entries(centroid if a.k1 is not None else grid.radii[:-1, None] * centroid)
    if np.min(a11) <= 0 or np.min(a11 * a22 - a12 * a21) <= 0:
        raise ValueError("coefficient matrix is not positive definite on the mesh")
    # r_i times the flux A grad(u_h), from differences of u (g0 = -g1 - g2)
    agx = [a11 * gx[m] + a12 * gy[m] for m in (1, 2)]
    agy = [a21 * gx[m] + a22 * gy[m] for m in (1, 2)]
    u0, u1, u2 = _triangle_vertices(U)
    d1, d2 = u1 - u0, u2 - u0
    fx = d1 * agx[0] + d2 * agx[1]
    fy = d1 * agy[0] + d2 * agy[1]
    del d1, d2  # two mesh-sized arrays fewer at the peak
    flux_mag = np.hypot(fx, fy)
    R = _to_vertices(*(fx * hx[k] + fy * hy[k] for k in range(3)))
    S = _to_vertices(*(flux_mag * np.hypot(hx[k], hy[k]) for k in range(3)))
    return R, S


def weak_form_residual(
    u,
    a: CoefficientMatrixField,
    grid: PolarGrid,
    refinements: int = 0,
) -> ResidualReport:
    """Discrete weak residual of div(A grad u) = 0 against interior hats.

    u is either a callable on complex points or a samples array matching the
    grid.  Test functions vanish on the annulus boundary, so only interior
    radial nodes carry residuals; jumps in A are fine (the integral
    formulation sees them).  With refinements > 0 and callable u, the mesh is
    doubled that many times and the report carries the log-log slope.
    """
    if a.k1 is not None:
        bk = a.k1.grid.breakpoints
        gbk = grid.angles.breakpoints
        if any(np.min(np.abs(wrap_angle(b - gbk + np.pi) - np.pi)) > 1e-9 for b in bk):
            warnings.warn("coefficient breakpoints not aligned with the angular mesh",
                          stacklevel=2)

    def run(g: PolarGrid):
        if callable(u):
            z = g.radii[:, None] * np.exp(1j * g.angles.nodes)[None, :]
            vals = np.asarray(u(z), dtype=float)
        else:
            vals = u
        R, S = weak_residual_vector(vals, a, g)
        interior = slice(1, g.radii.size - 1)
        rel = np.abs(R[interior]) / np.max(S[interior])
        return float(np.max(rel)), float(np.mean(rel))

    mx, mean = run(grid)
    slope = None
    if refinements > 0:
        if not callable(u):
            raise ValueError("refinement study needs a callable to resample")
        sizes = [grid.angles.node_count]
        values = [mx]
        g = grid
        for _ in range(refinements):
            g = g.refined()
            m, _ = run(g)
            sizes.append(g.angles.node_count)
            values.append(m)
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
    equally spaced angles.  Returns (slope, diagnostics) where diagnostics
    carries the fit quality and raw data.  For maps of the form
    r^alpha * profile the slope recovers alpha.
    """
    if scales < 4:
        raise ValueError(f"need at least 4 dyadic scales, got {scales}")
    radii = 2.0 ** -np.arange(1, scales + 1)
    t = TWO_PI * np.arange(512) / 512
    osc = np.empty(radii.size)
    for i, r in enumerate(radii):
        z = r * np.exp(1j * t)
        vals = eval_stretching(f, z) if isinstance(f, AngularStretching) else f(z)
        osc[i] = np.max(np.abs(vals))
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
