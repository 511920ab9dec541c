"""Incompressible Navier-Stokes on the background grid.

Equal-order bilinear velocity/pressure with residual-based stabilization
(streamline upwinding, pressure stabilization, grad-div least squares) plus
ghost-penalty operators on facets near the interface. Time discretization is
a one-step theta scheme written in terms of the end-of-step unknowns and the
previous velocity/acceleration pair; all spatial operators are evaluated at
the new time level.

Unknowns live on the full grid numbering; dof(node, comp) = 2*node + comp for
velocity and dof(node) = node for pressure. Restriction to the active subset
happens at solve time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutting import CutConfiguration, ElemStatus
from .linalg import LocalBlocks
from .meshes import StructuredGrid
from .quadrature import polygon_rule

__all__ = [
    "FluidParams",
    "basis_tables",
    "grid_basis",
    "volume_batches",
    "stabilization_times",
    "assemble_navier_stokes",
    "assemble_ghost_penalties",
    "facet_jump_grams",
]

# 3x3 Gauss rule on the unit square: local coordinates (s, t) and weights
_G3_X, _G3_WX = np.polynomial.legendre.leggauss(3)
_G3_S = np.repeat(0.5 * (_G3_X + 1.0), 3)
_G3_T = np.tile(0.5 * (_G3_X + 1.0), 3)
_G3_W = np.repeat(_G3_WX, 3) * np.tile(_G3_WX, 3)


@dataclass(frozen=True)
class FluidParams:
    """Fluid constants and ghost-penalty weights.

    `viscosity` is dynamic (mu); `gamma_*` scale the three ghost penalties.
    The inverse-inequality constant of the stabilization time scale is 36,
    and the interface/facet scaling function nu + |c| h + sigma h^2 weights
    its convective and reactive parts by one.
    """

    density: float
    viscosity: float
    gamma_conv: float = 0.05
    gamma_div: float = 0.05
    gamma_press: float = 0.05

    @property
    def kinematic_viscosity(self) -> float:
        return self.viscosity / self.density


def basis_tables(hx: float, hy: float, s: np.ndarray, t: np.ndarray):
    """Bilinear basis data at local coordinates (s, t) in [0, 1]^2.

    Returns (N, Dx, Dy, D2) with shapes (..., 4), (..., 4), (..., 4), (4,)
    for s and t of shape (...); node order is counterclockwise from the
    lower-left corner. D2 is the constant mixed second derivative d2N/dxdy.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    N = np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t], axis=-1)
    Dx = np.stack([-(1 - t), (1 - t), t, -t], axis=-1) / hx
    Dy = np.stack([-(1 - s), -s, s, (1 - s)], axis=-1) / hy
    D2 = np.array([1.0, -1.0, 1.0, -1.0]) / (hx * hy)
    return N, Dx, Dy, D2


# The tables N, Dx, Dy, D2 and 1 at the element corners for unit spacing,
# node k at corner k, and the products A_a B_b of the first three with all
# five at the corners c, d: (3, 5, 16, 16) over (A, B, cd, ab).
_N, _DX, _DY, _D2 = basis_tables(1.0, 1.0, [0, 1, 1, 0], [0, 0, 1, 1])
_CORNERS = np.stack([_N, _DX, _DY, np.broadcast_to(_D2, (4, 4)), np.ones((4, 4))])
_UNIT_PAIRS = np.einsum("Aca,Bdb->ABcdab", _CORNERS[:3], _CORNERS).reshape(3, 5, 16, 16)


def _corner_pairs(hx: float, hy: float) -> np.ndarray:
    """The corner products of `_UNIT_PAIRS` for the spacing (hx, hy): each
    table scales by its factor in (1, 1/hx, 1/hy, 1/(hx hy), 1)."""
    scale = np.array([1.0, 1.0 / hx, 1.0 / hy, 1.0 / (hx * hy), 1.0])
    return _UNIT_PAIRS * np.multiply.outer(scale[:3], scale)[..., None, None]


def stabilization_times(params: FluidParams, dt: float, hx: float, hy: float, c: np.ndarray):
    """Momentum and continuity stabilization time scales at points.

    `c` has shape (..., 2). Uses the metric of the affine map onto the
    rectangle, G = diag(4/hx^2, 4/hy^2).
    """
    rho, mu = params.density, params.viscosity
    c = np.asarray(c, dtype=float)
    gxx, gyy = 4.0 / hx**2, 4.0 / hy**2
    transient = (2.0 * rho / dt) ** 2
    convect = rho**2 * (c[..., 0] ** 2 * gxx + c[..., 1] ** 2 * gyy)
    viscous = 36.0 * mu**2 * (gxx**2 + gyy**2)
    tau_m = 1.0 / np.sqrt(transient + convect + viscous)
    tau_c = 1.0 / (tau_m * (gxx + gyy))
    return tau_m, tau_c


def _ns_kernel(params, sigma, hist_ratio, dt, hx, hy, N, Dx, Dy, D2, w, Ue, Pe, Oe, Ae, Ce, Fe):
    """Residual and Jacobian for a batch of elements.

    Shapes: N/Dx/Dy (E|1,Q,4) and w (E|1,Q), per element or shared by the
    whole batch; D2 (4,), Ue/Oe/Ae/Ce (E,4,2), Pe (E,4), Fe broadcasting to
    (E,Q,2). Returns Rv (E,4,2), Rq (E,4), Juu (E,4,2,4,2), Jup (E,4,2,4),
    Jpu (E,4,4,2), Jpp (E,4,4).

    The form is one list of terms per block: a coefficient at the points,
    or a constant, times a test table (N, Dx or Dy) and a trial table (N,
    Dx, Dy, the constant D2, or 1 in a residual). A table is N times its
    values at the corners, so a pair of tables is w N (x) N times a fixed
    (16,16) matrix. A shared batch folds this into fixed pair tensors (Q,16)
    and contracts each block's stacked coefficients with them in one product;
    per-element tables take one batched product with w N (x) N, then one
    product with the fixed matrices.
    """
    rho, mu = params.density, params.viscosity
    E, Q = Ue.shape[0], w.shape[-1]
    shared = N.shape[0] == 1
    T, X, Y, M, ONE = range(5)  # the tables N, Dx, Dy, D2 and 1
    tables = np.concatenate([N, Dx, Dy, np.broadcast_to(D2, N.shape)], axis=1)  # (E|1,4Q,4)

    def at_points(nodal, m):
        # nodal values (E,4,k) at the points P of the first m tables: (k,m,*P)
        if shared:
            return (tables[0, : m * Q] @ nodal.T).reshape(-1, m, Q, E)
        return np.transpose((tables[:, : m * Q] @ nodal).reshape(E, m, Q, -1), (3, 1, 0, 2))

    uv = at_points(Ue, 4)  # (2,4,*P), the points P being (Q,E) on a shared batch, else (E,Q)
    u, d2u, G = uv[:, T], uv[:, M], np.swapaxes(uv[:, X:M], 0, 1)  # G[j, i] = du_i/dx_j
    pv = at_points(Pe[..., None], 3)[0]  # p, dp/dx, dp/dy
    c, u_old, a_old = (at_points(V, 1)[:, 0] for V in (Ce, Oe, Ae))
    Fe = np.asarray(Fe, dtype=float)[(None,) * (3 - np.ndim(Fe))]
    f = rho * (Fe.T if shared else np.moveaxis(Fe, -1, 0))

    tau_m, tau_c = stabilization_times(params, dt, hx, hy, np.moveaxis(c, 0, -1))
    time_part = rho * sigma * (u - u_old)
    # the viscous strong term is mu * (d2 u_y/dxdy, d2 u_x/dxdy) on rectangles
    strong = time_part + rho * (c[0] * G[0] + c[1] * G[1]) + pv[1:] - mu * d2u[::-1] - f
    gal = time_part - hist_ratio * rho * a_old - f + rho * (u[0] * G[0] + u[1] * G[1])
    div_u = G[0, 0] + G[1, 1]
    sc = rho * tau_m * c  # the streamline test weight rho tau_m c
    sym = mu * (G + np.swapaxes(G, 0, 1))

    fixed = _corner_pairs(hx, hy)
    NT = np.ascontiguousarray(np.swapaxes(N, 1, 2))  # (E|1,4,Q)
    nn = np.swapaxes((NT[:, :, None] * (w[:, None] * NT)[:, None]).reshape(-1, 16, Q), 1, 2)
    if shared:
        fixed = nn[0] @ fixed  # the pair tensors w A (x) B, (3,5,Q,16)

    def contract(block):
        # the sum over the terms (coef, A, B) of int coef A_a B_b: (E,4,4)
        coefs = np.empty((len(block), *div_u.shape))
        for j, (coef, _, _) in enumerate(block):
            coefs[j] = coef
        _, tests, trials = zip(*block)
        pairs = fixed[tests, trials].reshape(-1, 16)
        if shared:
            return (coefs.reshape(-1, E).T @ pairs).reshape(E, 4, 4)
        moments = np.swapaxes(coefs, 0, 1) @ nn  # (E,n,16): int coef w N_c N_d
        return (moments.reshape(E, -1) @ pairs).reshape(E, 4, 4)

    # blocks (test field, trial field or "R" for a residual) of u_x, u_y, p,
    # each contracted as soon as its terms are written; "diag" and "swap" are
    # the terms of both diagonal and both off-diagonal (u, u) blocks; the
    # Jacobian is taken at frozen c, tau_m and tau_c
    rs, D = rho * sigma, (X, Y)
    lin = list(zip((rs, rho * c[0], rho * c[1]), (T, X, Y)))  # d strong_i / d u_i, D2 aside
    J = {
        "diag": contract(
            [(rs, T, T), (rho * u[0], T, X), (rho * u[1], T, Y), (mu, X, X), (mu, Y, Y)]
            + [(s * a, Dj, B) for s, Dj in zip(sc, D) for a, B in lin]
        ),
        "swap": contract([(-mu * s, Dj, M) for s, Dj in zip(sc, D)]),
        (2, "R"): contract([(div_u, T, ONE)] + [(tau_m * r, Dj, ONE) for r, Dj in zip(strong, D)]),
        (2, 2): contract([(tau_m, Dj, Dj) for Dj in D]),
    }
    for i, Di in enumerate(D):
        J[i, "R"] = contract([(gal[i], T, ONE), (tau_c * div_u - pv[0], Di, ONE)] + [
            (sym[j, i] + sc[j] * strong[i], Dj, ONE) for j, Dj in enumerate(D)
        ])
        J[i, 2] = contract([(s, Dj, Di) for s, Dj in zip(sc, D)] + [(-1.0, Di, T)])
        J[2, i] = contract([(1.0, T, Di), (-mu * tau_m, D[1 - i], M)] + [
            (tau_m * a, Di, B) for a, B in lin
        ])
        for k, Dk in enumerate(D):
            J[i, k] = contract([(rho * G[k, i], T, T), (mu, Dk, Di), (tau_c, Di, Dk)])

    Juu = np.empty((E, 4, 2, 4, 2))
    for i, k in np.ndindex(2, 2):
        Juu[:, :, i, :, k] = J[i, k] + J["diag" if i == k else "swap"]
    Jup = np.stack([J[0, 2], J[1, 2]], axis=2)
    Jpu = np.stack([J[2, 0], J[2, 1]], axis=-1)
    Rv = np.stack([J[0, "R"][..., 0], J[1, "R"][..., 0]], axis=-1)
    return Rv, J[2, "R"][..., 0], Juu, Jup, Jpu, J[2, 2]


def _batch_forces(cfg: CutConfiguration, batches, body_force, time: float):
    """The body force at the points of the volume `batches` of `cfg`, one
    array per batch broadcasting to (E, Q, 2). A callable is evaluated once
    per batch for each (callable, time) and configuration, and the values
    are kept on the configuration for later assemblies."""
    if not callable(body_force):
        value = 0.0 if body_force is None else np.asarray(body_force, dtype=float)
        return [value] * len(batches)
    cached = cfg.batch_forces
    if cached is None or cached[0] is not body_force or cached[1] != time:
        values = [
            np.asarray(body_force(pts.reshape(-1, 2), time), dtype=float).reshape(pts.shape)
            for _, pts, _, _ in batches
        ]
        cfg.batch_forces = cached = (body_force, time, values)
    return cached[2]


def assemble_navier_stokes(
    cfg: CutConfiguration,
    params: FluidParams,
    dt: float,
    theta: float,
    U: np.ndarray,
    P: np.ndarray,
    U_old: np.ndarray,
    A_old: np.ndarray,
    C_frozen: np.ndarray,
    body_force=None,
    time: float = 0.0,
):
    """Assemble the stabilized flow residual and Jacobian at the new level.

    All vectors use the full-grid numbering. `body_force` is None, a
    constant pair, or a callable ``f(pts, t) -> (M, 2)`` vectorised over the
    (M, 2) points; one call covers the Gauss points of all uncut elements and
    one those of all cut elements, padding points included, so M spans many
    elements, and the values are reused at the same time on the same
    configuration. Returns (Ru, Rp, jac): the residuals and the Jacobian as
    ``(row, col, LocalBlocks)`` element blocks per batch, rows and columns
    ``'u'`` or ``'p'``. The grid is the configuration's, ``cfg.grid``.
    """
    grid = cfg.grid
    n = grid.n_nodes
    hx, hy = grid.spacing
    sigma = 1.0 / (theta * dt)
    hist_ratio = (1.0 - theta) / theta

    Ru, Rp = np.zeros(2 * n), np.zeros(n)
    jac = []
    shapes = {"u": 2 * n, "p": n}

    conn_all = grid.all_elem_nodes()
    Uv, Ov, Av, Cv = (V.reshape(n, 2) for V in (U, U_old, A_old, C_frozen))

    batches = volume_batches(cfg)
    forces = _batch_forces(cfg, batches, body_force, time)
    for (elems, _, w, (N, Dx, Dy, D2)), Fe in zip(batches, forces):
        conn = conn_all[elems]
        E = elems.size
        Rv, Rq, Juu, Jup, Jpu, Jpp = _ns_kernel(
            params, sigma, hist_ratio, dt, hx, hy, N, Dx, Dy, D2, w,
            Uv[conn], P[conn], Ov[conn], Av[conn], Cv[conn], Fe,
        )
        dofs = {"u": np.stack([2 * conn, 2 * conn + 1], axis=-1).reshape(E, 8), "p": conn}
        Ru += np.bincount(dofs["u"].ravel(), weights=Rv.ravel(), minlength=2 * n)
        Rp += np.bincount(conn.ravel(), weights=Rq.ravel(), minlength=n)
        for (r, c), J in zip(
            (("u", "u"), ("u", "p"), ("p", "u"), ("p", "p")),
            (Juu.reshape(E, 8, 8), Jup.reshape(E, 8, 4), Jpu.reshape(E, 4, 8), Jpp),
        ):
            jac.append((r, c, LocalBlocks((shapes[r], shapes[c]), dofs[r], dofs[c], J)))
    return Ru, Rp, jac


def grid_basis(grid: StructuredGrid, elems: np.ndarray, pts: np.ndarray, clip: bool = False):
    """`basis_tables` of the grid elements ``elems`` (E,) at the physical
    points ``pts`` (E, Q, 2), one point set per element; ``clip`` clamps the
    local coordinates onto the element."""
    hx, hy = grid.spacing
    x0 = grid.origin[0] + (elems % grid.nx) * hx
    y0 = grid.origin[1] + (elems // grid.nx) * hy
    s = (pts[..., 0] - x0[:, None]) / hx
    t = (pts[..., 1] - y0[:, None]) / hy
    if clip:
        s, t = np.clip(s, 0.0, 1.0), np.clip(t, 0.0, 1.0)
    return basis_tables(hx, hy, s, t)


def volume_batches(cfg: CutConfiguration):
    """The volume rules of the fluid part of the active elements of `cfg`,
    as nonempty batches (elems (E,), points (E, Q, 2), weights (E|1, Q),
    `basis_tables` at the points): the uncut elements with one shared 3x3
    Gauss rule, and the cut elements with a nonempty fluid rule with their
    polygon rules, padded to a common length Q with zero weights at a
    repeated real point. One `polygon_rule` call rules every piece. The
    batches are built on first use and kept on the configuration, which is
    fixed across Newton iterations."""
    if cfg.volume_batches is not None:
        return cfg.volume_batches
    grid = cfg.grid
    hx, hy = grid.spacing
    batches = []
    full = np.flatnonzero(cfg.status == ElemStatus.FLUID)
    if full.size:
        s, t = _G3_S, _G3_T
        x0 = grid.origin[0] + hx * (full % grid.nx)
        y0 = grid.origin[1] + hy * (full // grid.nx)
        pts = np.stack([x0[:, None] + s * hx, y0[:, None] + t * hy], axis=-1)
        w = _G3_W * 0.25 * hx * hy
        batches.append((full, pts, w[None], basis_tables(hx, hy, s[None], t[None])))
    cut, owner = np.unique(cfg.piece_elem, return_inverse=True)
    rule, sizes = polygon_rule(cfg.piece_verts, cfg.piece_counts)
    m = np.bincount(owner, weights=sizes, minlength=cut.size).astype(np.intp)
    if np.any(m):
        cut = cut[m > 0]
        m = m[m > 0]
        filled = np.arange(max(m)) < m[:, None]
        pts = np.repeat(rule.points[np.cumsum(m) - m, None], filled.shape[1], axis=1)
        pts[filled] = rule.points
        w = np.zeros(filled.shape)
        w[filled] = rule.weights
        batches.append((cut, pts, w, grid_basis(grid, cut, pts)))
    cfg.volume_batches = batches
    return batches


def facet_jump_grams(grid: StructuredGrid, facets: np.ndarray):
    """Gram matrices of the basis-gradient jumps across interior grid facets.

    `facets` holds (elem_left, elem_right, node_a, node_b) rows as listed by
    `CutConfiguration.ghost_facets`. A facet couples the corners of its two
    elements, `nodes` (F, 8): the left (lower) element's, then the right
    (upper) one's, so shared corners appear twice and scattered blocks sum
    over them. The jump (left minus right) is sampled at the facet's two
    Gauss points. On the uniform grid the jump tables depend only on the
    facet's orientation, so they are built once for vertical and once for
    horizontal facets, from one basis evaluation.

    Returns (nodes, length, Mn, Mg): the facet lengths (F,), the Gram
    matrices of the normal-derivative jump, int [dN_a/dn][dN_b/dn] (F, 8, 8),
    and of the divergence jump over the velocity dofs 2*node + comp of
    `nodes`, (F, 16, 16).
    """
    hx, hy = grid.spacing
    conn = grid.all_elem_nodes()
    nodes = np.concatenate([conn[facets[:, 0]], conn[facets[:, 1]]], axis=1)
    orient = (facets[:, 3] - facets[:, 2] == 1).astype(np.int64)  # 1: horizontal

    gp, gw = np.polynomial.legendre.leggauss(2)
    r = 0.5 * (gp + 1.0)
    one, zero = np.ones(2), np.zeros(2)
    # local coordinates (orientation, side, point): vertical facets lie at
    # s = 1 of the left and s = 0 of the right element, horizontal ones at
    # t = 1 of the lower and t = 0 of the upper element
    s = np.array([[one, zero], [r, r]])
    t = np.array([[r, r], [one, zero]])
    _, Dx, Dy, _ = basis_tables(hx, hy, s, t)
    grad = np.stack([Dx, Dy], axis=-1)  # (orientation, side, Q, 4, 2)
    jump = np.concatenate([grad[:, 0], -grad[:, 1]], axis=2)  # (orientation, Q, 8, 2)
    length = np.array([hy, hx])
    wq = 0.5 * gw * length[:, None]
    jn = np.stack([jump[0, ..., 0], jump[1, ..., 1]])
    jdiv = jump.reshape(2, 2, 16)
    Mn = np.einsum("oq,oqa,oqb->oab", wq, jn, jn)
    Mg = np.einsum("oq,oqa,oqb->oab", wq, jdiv, jdiv)
    return nodes, length[orient], Mn[orient], Mg[orient]


def assemble_ghost_penalties(
    cfg: CutConfiguration,
    params: FluidParams,
    dt: float,
    theta: float,
    C_frozen: np.ndarray,
    widened: bool = False,
):
    """Facet jump penalties near the interface.

    Returns (K_conv, K_div, K_press) as `LocalBlocks` acting on the
    velocity, velocity, and pressure vectors; the residual contribution is
    ``K.matvec(vec)``. The three penalties weight the normal-derivative
    jump of the velocity, the divergence jump, and the normal-derivative
    jump of the pressure.

    All facets of `cfg.ghost_facets` are handled at once: the jump Gram
    matrices come from `facet_jump_grams` (shared with the extension of
    `projection`), the per-facet scalings from array operations over the
    facets' element pairs, and each operator is one batch of facet blocks.
    """
    grid = cfg.grid
    n = grid.n_nodes
    h_elem = grid.elem_diameter()
    sigma = 1.0 / (theta * dt)
    rho = params.density
    nu = params.kinematic_viscosity

    facets = cfg.ghost_facets(widened=widened)
    nodes, length, Mn, Mg = facet_jump_grams(grid, facets)

    # per-facet scalings from the advection maxima of both elements
    cinf_elem = np.abs(C_frozen.reshape(n, 2))[grid.all_elem_nodes()].max(axis=(1, 2))
    cinf = cinf_elem[facets[:, :2]]
    phi = nu + cinf * h_elem + sigma * h_elem**2
    phi_mean = 0.5 * (phi[:, 0] + phi[:, 1])
    phi_c_mean = 0.5 * (h_elem**2 / phi[:, 0] + h_elem**2 / phi[:, 1])
    cinf_f = cinf.max(axis=1)
    coef_c = (
        params.gamma_conv
        * rho
        * (nu + phi_c_mean * cinf_f**2 + sigma * length**2)
        * length
    )
    coef_d = params.gamma_div * phi_mean * rho * length
    coef_p = params.gamma_press * phi_c_mean / rho * length

    comp = 2 * nodes[:, None, :] + np.arange(2)[:, None]  # (F, 2, 8), per component
    udofs = (2 * nodes[..., None] + np.arange(2)).reshape(-1, 16)
    return (
        LocalBlocks((2 * n, 2 * n), comp, comp, (coef_c[:, None, None] * Mn)[:, None]),
        LocalBlocks((2 * n, 2 * n), udofs, udofs, coef_d[:, None, None] * Mg),
        LocalBlocks((n, n), nodes, nodes, coef_p[:, None, None] * Mn),
    )
