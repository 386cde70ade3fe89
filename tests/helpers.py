"""Constructors, reductions, oracles and references that only the tests need."""

import math
import warnings

import numpy as np

from beltbound import verify
from beltbound.estimator import _arc_reduce, _matrix_fields
from beltbound.periodic_fields import (
    PIECEWISE,
    SMOOTH,
    TWO_PI,
    AngularGrid,
    PeriodicField,
    wrap_angle,
)
from beltbound.reduction import BeltramiPair, CoefficientMatrixField, EllipticityError
from beltbound.sharp_family import _profile_samples
from beltbound.stretching import (
    KProfile,
    _cells,
    _piece_propagator,
    _piece_rates,
    eval_system_solution,
    munu_values,
)


def field_from_callable(grid, fn, kind=SMOOTH):
    """The samples of fn at the grid's nodes."""
    return PeriodicField(grid, np.asarray(fn(grid.nodes)), kind)


def constant_pair(mu, nu):
    """The pointwise pair of constant coefficients (mu, nu)."""
    mu, nu = complex(mu), complex(nu)
    return BeltramiPair.from_callables(
        lambda z: (np.full(np.shape(z), mu), np.full(np.shape(z), nu)))


def constant_matrix(a11, a12, a21, a22):
    """The pointwise matrix field of constant entries."""
    vals = tuple(float(v) for v in (a11, a12, a21, a22))
    return CoefficientMatrixField.from_callables(
        lambda z: tuple(np.full(np.shape(z), v) for v in vals))


def identity_matrix():
    """The constant identity matrix field."""
    return constant_matrix(1.0, 0.0, 0.0, 1.0)


def matrix_det(m, z):
    """det A of a matrix field at the points z."""
    a11, a12, a21, a22 = m.entries(z)
    return a11 * a22 - a12 * a21


def piecewise_k(breakpoints, k1_pieces, k2_pieces, node_count=2048):
    """Piecewise-constant weights, one value per arc, on a grid that holds
    the breakpoints."""
    g = AngularGrid.with_breakpoints(node_count, breakpoints)
    return KProfile(PeriodicField.piecewise(g, k1_pieces), PeriodicField.piecewise(g, k2_pieces))


def munu_fields(k):
    """(mu0, nu0) of the weights k at their nodes, as fields on k's grid:
    munu_values, the inverse of k_from_munu."""
    kind = PIECEWISE if k.is_piecewise else SMOOTH
    return tuple(PeriodicField(k.grid, v, kind) for v in munu_values(k.k1.values, k.k2.values))


def profiles_at(fam, theta):
    """The sharp family's exact (theta1, theta2, theta1', theta2') at
    arbitrary angles."""
    return _profile_samples(fam.M, fam.tau, fam.c, fam.d, theta)


# ---------------------------------------------------------------------------
# oracles: the paper's inversion formula, and the distortion of a stretching


def _munu_of_entries(b11, b12, b21, b22):
    """(mu, nu) of matrix entries: the formulas of matrix_to_beltrami."""
    det = b11 * b22 - b12 * b21
    den = 1.0 + (b11 + b22) + det
    return -(b11 - b22 + 1j * (b12 + b21)) / den, (1.0 - det + 1j * (b12 - b21)) / den


def matrix_to_beltrami(m):
    """Recover (mu, nu) from a matrix field.

    mu = -(b11 - b22 + i(b12 + b21)) / (1 + tr + det),
    nu = (1 - det + i(b12 - b21)) / (1 + tr + det).
    """
    if m.k is not None:
        return BeltramiPair.from_angular_k(m.k)
    return BeltramiPair.from_callables(lambda z: _munu_of_entries(*m.entries(z)),
                                       real_nu=m.symmetric)


def _profile_arrays(s, theta):
    if theta is None:
        return s.eta1.values, s.eta2.values, s.deta1, s.deta2
    t = np.asarray(theta, dtype=float)
    g = s.grid
    d1 = PeriodicField(g, s.deta1, SMOOTH)
    d2 = PeriodicField(g, s.deta2, SMOOTH)
    return s.eta1.eval_at(t), s.eta2.eval_at(t), d1.eval_at(t), d2.eval_at(t)


def discriminants(s, theta=None):
    """Discriminant of the |Df|^2 quadratic, both algebraic forms.

    Returns (difference-of-squares form, four-square form); they agree
    identically, and the four-square form is the numerically stable one.
    """
    e1, e2, d1, d2 = _profile_arrays(s, theta)
    a2 = s.alpha**2
    trace = a2 * (e1**2 + e2**2) + d1**2 + d2**2
    cross = e1 * d2 - d1 * e2
    diff_form = trace**2 - 4.0 * a2 * cross**2
    four_form = (
        (a2 * e1**2 - d2**2) ** 2
        + (a2 * e2**2 - d1**2) ** 2
        + 2.0 * (a2 * e1 * e2 + d1 * d2) ** 2
        + 2.0 * a2 * (e1 * d1 + e2 * d2) ** 2
    )
    return diff_form, four_form


def differential_quantities(s, theta=None):
    """r-independent factors (jacobian, |Df|^2, distortion) at angles theta.

    jacobian factor: alpha (eta1 eta2' - eta1' eta2); |Df|^2 factor:
    (trace + sqrt(discriminant))/2; distortion: their quotient.  Warns when
    the jacobian factor is not strictly positive somewhere (orientation).
    """
    e1, e2, d1, d2 = _profile_arrays(s, theta)
    a = s.alpha
    jac = a * (e1 * d2 - d1 * e2)
    _, disc = discriminants(s, theta)
    grad_sq = 0.5 * (a**2 * (e1**2 + e2**2) + d1**2 + d2**2 + np.sqrt(disc))
    if np.any(jac <= 0):
        warnings.warn("jacobian factor <= 0: map is not sense-preserving there", stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = grad_sq / jac
    return jac, grad_sq, dist


def distortion_from_k(k, eta1, eta2):
    """Distortion of a system solution written in (k1, k2, eta) only.

    Valid on solutions of the coupled system, where the derivative terms
    reduce through eta1' = -alpha k2^{-1} eta2, eta2' = alpha k1 eta1.
    """
    k1, k2 = k.k1.values, 1.0 / k.k2.values
    e1s, e2s = np.asarray(eta1) ** 2, np.asarray(eta2) ** 2
    root = np.sqrt(
        (1.0 - k1**2) ** 2 * e1s**2
        + (1.0 - k2**2) ** 2 * e2s**2
        + 2.0 * ((1.0 - k1 * k2) ** 2 + (k1 - k2) ** 2) * e1s * e2s
    )
    return ((1.0 + k1**2) * e1s + (1.0 + k2**2) * e2s + root) / (2.0 * (k1 * e1s + k2 * e2s))


def non_json_types(obj) -> set:
    """The types in obj, at any depth, that are not exactly a JSON type
    (dict with string keys, list, str, int, float, bool, None)."""
    t = type(obj)
    if t is dict:
        return set().union({type(k) for k in obj if type(k) is not str},
                           *map(non_json_types, obj.values()))
    if t is list:
        return set().union(*map(non_json_types, obj))
    return set() if t in (str, int, float, bool, type(None)) else {t}


def node_gap_batch(on):
    """The arc reduction of a matrix restriction with one arc per node gap:
    per-gap integrals of I and extrema of D, so that per-gap weights can be
    scored with _arc_value."""
    I, D = _matrix_fields(on)
    nodes = on.grid.nodes
    grid = AngularGrid(nodes, nodes, np.arange(nodes.size))
    return _arc_reduce(on.circles, *(PeriodicField(grid, f.values, f.kind) for f in (I, D)))


# ---------------------------------------------------------------------------
# reference search step: the propagation as it was before each step became
# one pass (start states times the prefix products, the fundamental matrices
# as a product with the identity, the arg corrections at cell ends and
# starts taken separately), and the four functions built on it


def reference_propagate(a, b, h, starts):
    """States at every cell boundary, shape (cells + 1, 2, B), for the start
    columns starts (2, B); the last entry is Phi(2pi) starts.

    Cell j maps its left state to its right one by its propagator P_j; the
    prefix products P_j ... P_0 come by recursive doubling (log2(cells)
    rounds of batched 2x2 products).
    """
    _, c, p12, p21 = _piece_propagator(a, b, h)
    prefix = np.array([[c, p12], [p21, c]]).transpose(2, 0, 1).copy()
    step = 1
    while step < len(prefix):
        prefix[step:] = prefix[step:] @ prefix[:-step]
        step *= 2
    return np.concatenate([starts[None], prefix @ starts])


def reference_fundamental(cells, alpha: float):
    """Cell widths and rates (alpha/k2, alpha k1) for the cells of _cells,
    and the fundamental matrices at every cell boundary, shape
    (cells + 1, 2, 2); the last one is Phi(2pi)."""
    _, h, av, bv = _piece_rates(cells, alpha)
    return h, av, bv, reference_propagate(av, bv, h, np.eye(2))


def reference_advances(h, av, bv, fund, phis):
    """Phase advances from the start directions phis (1-d); see phase_advance."""
    states = fund @ np.stack([np.cos(phis), np.sin(phis)])
    sa, sb = np.sqrt(av)[:, None], np.sqrt(bv)[:, None]

    def correction(v):
        # |arg v - arg(scaled v)| < pi/2: same quadrant, wrap is safe
        c = np.arctan2(v[:, 1], v[:, 0]) - np.arctan2(sa * v[:, 1], sb * v[:, 0])
        return (c + np.pi) % TWO_PI - np.pi

    turns = np.sum(correction(states[1:]) - correction(states[:-1]), axis=0)
    return np.sqrt(av * bv) @ h + turns


def reference_monodromy(k, alpha):
    return reference_fundamental(_cells(k), alpha)[3][-1]


def reference_phase_advance(k, alpha, phi0):
    phi0 = np.asarray(phi0, dtype=float)
    total = reference_advances(*reference_fundamental(_cells(k), alpha), phi0.reshape(-1))
    return total.reshape(phi0.shape) if phi0.shape else float(total[0])


def reference_advance_extremum(cells, alpha):
    h, av, bv, fund = reference_fundamental(cells, alpha)
    evals, evecs = np.linalg.eigh(fund[-1].T @ fund[-1])
    lam0, lam1 = float(evals[0]), float(evals[1])
    if lam1 - 1.0 < 1e-13 or 1.0 - lam0 < 1e-13:
        phis = np.zeros(1)
    else:
        s2 = (1.0 - lam0) / (lam1 - lam0)
        c = math.sqrt(1.0 - s2)
        s = math.sqrt(s2)
        dirs = np.stack([c * evecs[:, 0] + s * evecs[:, 1],
                         c * evecs[:, 0] - s * evecs[:, 1]])
        phis = np.arctan2(dirs[:, 1], dirs[:, 0])
    vals = reference_advances(h, av, bv, fund, phis)
    return float(np.max(vals)), float(np.min(vals))


def reference_eval_system_solution(k, alpha, initial, thetas):
    lefts, h, av, bv = _piece_rates(_cells(k), alpha)
    v0 = np.asarray(initial, dtype=float).reshape(2, 1)
    anchors = reference_propagate(av, bv, h, v0)[:-1, :, 0]
    t = wrap_angle(np.asarray(thetas, dtype=float))
    cell = np.clip(np.searchsorted(lefts, t + 1e-12, side="right") - 1, 0, lefts.size - 1)
    _, c, p12, p21 = _piece_propagator(av[cell], bv[cell], t - lefts[cell])
    e1 = c * anchors[cell, 0] + p12 * anchors[cell, 1]
    e2 = p21 * anchors[cell, 0] + c * anchors[cell, 1]
    return e1, e2, -alpha / k.k2.eval_at(t) * e2, alpha * k.k1.eval_at(t) * e1


# ---------------------------------------------------------------------------
# the Sturm-Liouville form of the profile system, tested weakly


def gauss_rule(n=5):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def sl_weak_residuals(k, s, component=1):
    """Weak residual of the Sturm-Liouville form against nodal hat functions.

    component 1: d/dtheta(k2 eta1') + alpha^2 k1 eta1 = 0;
    component 2: d/dtheta(k1^{-1} eta2') + alpha^2 k2^{-1} eta2 = 0.
    Hats sit at the interior nodes only: profiles of non-periodic exponents
    jump at the cut angle, and closing up is monodromy's business anyway.
    The integrals take per-cell Gauss(5) on eval_system_solution from s's
    state at 0, for piecewise and smooth weights alike, with k read at the
    Gauss points by KProfile.eval_wrapped, as the solution's derivatives
    read it there.  For piecewise k the residual is rounding; for smooth k
    it gauges the cell rule of stretching._cells (k frozen at each cell
    midpoint) against the linear interpolant of k that the flux and load
    read.  Returns (residual vector, one entry per interior node, and
    normalized max residual).
    """
    nodes = s.grid.nodes
    n = nodes.size
    thetas_ext = np.concatenate([nodes, [nodes[0] + TWO_PI]])
    h = np.diff(thetas_ext)
    a2 = s.alpha**2
    gx, gw = gauss_rule(5)
    # all Gauss points, cell by cell
    pts = (thetas_ext[:-1, None] + h[:, None] * gx[None, :]).ravel()
    v0 = np.array([s.eta1.values[0], s.eta2.values[0]])
    e1, e2, d1, d2 = eval_system_solution(k, s.alpha, v0, pts)
    k1, k2 = k.eval_wrapped(wrap_angle(pts))
    if component == 1:
        flux = (k2 * d1).reshape(n, -1)
        load = (a2 * k1 * e1).reshape(n, -1)
    else:
        flux = (d2 / k1).reshape(n, -1)
        load = (a2 * e2 / k2).reshape(n, -1)
    wts = gw[None, :] * h[:, None]
    # hat_j rises on cell j-1, falls on cell j
    rise = np.sum(wts * gx[None, :] * load, axis=1)
    fall = np.sum(wts * (1.0 - gx[None, :]) * load, axis=1)
    int_flux = np.sum(wts * flux, axis=1)
    res = (np.roll(rise, 1) + fall - np.roll(int_flux, 1) / np.roll(h, 1) + int_flux / h)[1:]
    scale = np.max(np.abs(int_flux) / h) + np.max(np.abs(rise + fall))
    return res, float(np.max(np.abs(res)) / scale)


# ---------------------------------------------------------------------------
# reference weak-form blocks: the assembly as it was before each block's
# temporaries lived in buffers it reuses (every product and sum a fresh
# array, both gradient forms of the unit ring, all three per-vertex arrays
# of R and of S held at once)


def reference_unit_ring(grid):
    """(centroid, hat gradients (gx, gy) of all three vertices, and the same
    times the triangle's area (hx, hy)) of the unit ring's triangles."""
    q = grid.radii[1] / grid.radii[0]
    t, h = grid.angles.nodes, grid.angles.spacings()
    c, s = np.cos(t), np.sin(t)
    (x0, y0), (x1, y1), (x2, y2) = verify._triangle_vertices(np.stack([[c, c * q], [s, s * q]]))
    chord, mid = 2.0 * np.sin(0.5 * h), t + 0.5 * h
    ang = np.array([-chord * np.sin(mid), chord * np.cos(mid)])
    rad = (q - 1.0) * np.array([c, s])
    diag = rad + q * ang
    e01, e02 = np.stack([rad, diag], 1)[:, :, None], np.stack([diag, ang], 1)[:, :, None]
    e12 = np.stack([q * ang, -np.roll(rad, -1, axis=-1)], 1)[:, :, None]
    area = 0.5 * (e01[0] * e02[1] - e01[1] * e02[0])
    hx = (-0.5 * e12[1], 0.5 * e02[1], -0.5 * e01[1])
    hy = (0.5 * e12[0], -0.5 * e02[0], 0.5 * e01[0])
    centroid = (x0 + x1 + x2 + 1j * (y0 + y1 + y2)) / 3.0
    return centroid, ([v / area for v in hx], [v / area for v in hy]), (hx, hy)


def reference_to_vertices(v0, v1, v2):
    _, m, na = v0.shape
    out = np.zeros((m + 1, na + 1))
    out[:-1, :-1] += v0[0] + v0[1]
    out[1:, :-1] += v1[0]
    out[:-1, 1:] += v2[1]
    out[1:, 1:] += v2[0] + v1[1]
    out[:, 0] += out[:, na]
    return out[:, :na]


def reference_flux_factors(a, centroid, gx, gy):
    a11, a12, a21, a22 = entries = a.entries(centroid)
    if not all(np.isfinite(v).all() for v in entries):
        raise EllipticityError("coefficient matrix is not finite on the mesh")
    if not (np.min(a11) > 0 and np.min(a11 * a22 - a12 * a21) > 0):
        raise EllipticityError("coefficient matrix is not positive definite on the mesh")
    agx = [a11 * gx[m] + a12 * gy[m] for m in (1, 2)]
    agy = [a21 * gx[m] + a22 * gy[m] for m in (1, 2)]
    return agx, agy


def reference_weak_blocks(sample, a, grid, start=0):
    """verify._weak_blocks in expression form: the same (first row, R rows,
    S rows), block by block, with verify._BLOCK read at the call."""
    nr, na = grid.radii.size, grid.angles.node_count
    centroid, (gx, gy), (hx, hy) = reference_unit_ring(grid)
    angular = reference_flux_factors(a, centroid, gx, gy) if a.k is not None else None
    hnorm = [np.hypot(hx[k], hy[k]) for k in range(3)]
    step = max(1, verify._BLOCK // na)

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
        agx, agy = angular or reference_flux_factors(a, grid.radii[i0:i1, None] * centroid, gx, gy)
        u0, u1, u2 = verify._triangle_vertices(U)
        d1, d2 = u1 - u0, u2 - u0
        fx = d1 * agx[0] + d2 * agx[1]
        fy = d1 * agy[0] + d2 * agy[1]
        flux_mag = np.sqrt(fx * fx + fy * fy)
        R = reference_to_vertices(*(fx * hx[k] + fy * hy[k] for k in range(3)))
        S = reference_to_vertices(*(flux_mag * hnorm[k] for k in range(3)))
        R[0] += r_held
        S[0] += s_held
        r_held, s_held = R[-1], S[-1]
        yield i0, R[:-1], S[:-1]
    yield nr - 1, r_held[None], s_held[None]
