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
from .quadrature import polygon_rule, stack_polygons

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
    """Fluid constants and stabilization knobs.

    `viscosity` is dynamic (mu); `inv_estimate` is the inverse-inequality
    constant entering the stabilization time scale; `gamma_*` scale the three
    ghost penalties; `c_conv` / `c_react` weight the convective and reactive
    contributions of the interface/facet scaling function.
    """

    density: float
    viscosity: float
    inv_estimate: float = 36.0
    gamma_conv: float = 0.05
    gamma_div: float = 0.05
    gamma_press: float = 0.05
    c_conv: float = 1.0
    c_react: float = 1.0

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
    viscous = params.inv_estimate * mu**2 * (gxx**2 + gyy**2)
    tau_m = 1.0 / np.sqrt(transient + convect + viscous)
    tau_c = 1.0 / (tau_m * (gxx + gyy))
    return tau_m, tau_c


def _ns_kernel(params, sigma, hist_ratio, dt, hx, hy, N, Dx, Dy, D2, w, Ue, Pe, Oe, Ae, Ce, Fe):
    """Residual and Jacobian for a batch of elements.

    Shapes: N/Dx/Dy (E|1,Q,4) and w (E|1,Q), per element or shared by the
    whole batch; D2 (4,), Ue/Oe/Ae/Ce (E,4,2), Pe (E,4), Fe broadcasting to
    (E,Q,2). Every
    term is a weighted, transposed basis table times a table or a field at
    the Gauss points, (E|1,4,Q) @ (E|1,Q,·). Returns Rv (E,4,2), Rq (E,4),
    Juu (E,4,2,4,2), Jup (E,4,2,4), Jpu (E,4,4,2), Jpp (E,4,4).
    """
    rho, mu = params.density, params.viscosity
    E = Ue.shape[0]
    D = (Dx, Dy)

    def weighted(*factors):
        # (E|1,4,Q): w * factors * table, transposed for a left product
        out = w[..., None]
        for f in factors:
            out = out * f
        return np.swapaxes(out, 1, 2)

    u, u_old, a_old, c = N @ Ue, N @ Oe, N @ Ae, N @ Ce  # (E,Q,2)
    p = N @ Pe[..., None]  # (E,Q,1)
    p_grad = np.concatenate([Dx @ Pe[..., None], Dy @ Pe[..., None]], axis=-1)
    gu = (Dx @ Ue, Dy @ Ue)  # gu[j][..., i] = du_i/dx_j
    div_u = gu[0][..., :1] + gu[1][..., 1:]  # (E,Q,1)
    # constant mixed derivatives per element; the viscous strong term is
    # mu * (d2 u_y/dxdy, d2 u_x/dxdy) on rectangles
    visc_strong = mu * (D2 @ Ue)[:, None, ::-1]  # (E,1,2)

    tau_m, tau_c = stabilization_times(params, dt, hx, hy, c)
    tau_m, tau_c = tau_m[..., None], tau_c[..., None]  # (E,Q,1)

    time_part = rho * sigma * (u - u_old)
    strong = (
        time_part
        + rho * (c[..., :1] * gu[0] + c[..., 1:] * gu[1])
        + p_grad
        - visc_strong
        - rho * Fe
    )
    conv_u = u[..., :1] * gu[0] + u[..., 1:] * gu[1]  # (u . grad) u
    gal = time_part - hist_ratio * rho * a_old - rho * Fe + rho * conv_u
    # sym[j][..., i] = du_i/dx_j + du_j/dx_i
    sym = [gu[j] + np.concatenate([g[..., j : j + 1] for g in gu], axis=-1) for j in (0, 1)]

    ca_dot = c[..., :1] * Dx + c[..., 1:] * Dy  # (E,Q,4): c . grad N_a
    ub_dot = u[..., :1] * Dx + u[..., 1:] * Dy  # u . grad N_b

    WN = weighted(N)
    WD = [weighted(Dj) for Dj in D]
    WcD = [weighted(tau_c, Dj) for Dj in D]
    WmD = [weighted(tau_m, Dj) for Dj in D]
    Wca = weighted(rho * tau_m, ca_dot)

    Rv = WN @ gal + mu * (WD[0] @ sym[0] + WD[1] @ sym[1]) + Wca @ strong
    grad_test = tau_c * div_u - p
    Rv += np.concatenate([WD[0] @ grad_test, WD[1] @ grad_test], axis=-1)
    Rq = WN @ div_u + WmD[0] @ strong[..., :1] + WmD[1] @ strong[..., 1:]

    # --- Jacobian at frozen advection field and stabilization times ---
    # d(strong)/dU = lin_b delta_ik - mu D2_b SWAP_ik
    lin = rho * (sigma * N + ca_dot)
    diag = rho * (WN @ (sigma * N + ub_dot)) + mu * (WD[0] @ D[0] + WD[1] @ D[1]) + Wca @ lin
    swap = mu * Wca.sum(axis=2)[..., None] * D2  # (E,4,4)

    Juu = np.empty((E, 4, 2, 4, 2))
    for i in (0, 1):
        for k in (0, 1):
            blk = rho * (WN @ (gu[k][..., i : i + 1] * N)) + mu * (WD[k] @ D[i]) + WcD[i] @ D[k]
            Juu[:, :, i, :, k] = blk + diag if i == k else blk - swap

    Jup = np.empty((E, 4, 2, 4))
    Jpu = np.empty((E, 4, 4, 2))
    for i in (0, 1):
        Jup[:, :, i, :] = Wca @ D[i] - WD[i] @ N
        Jpu[:, :, :, i] = (
            WN @ D[i] + WmD[i] @ lin - mu * WmD[1 - i].sum(axis=2)[..., None] * D2
        )
    Jpp = WmD[0] @ D[0] + WmD[1] @ D[1]

    return Rv, Rq[..., 0], Juu, Jup, Jpu, Jpp


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

    empty = (np.zeros(0, dtype=np.intp), np.zeros(0))
    res = {"u": [empty], "p": [empty]}  # (dofs, local residuals) per batch
    jac = []
    shapes = {"u": 2 * n, "p": n}

    conn_all = grid.all_elem_nodes()
    Uv = U.reshape(n, 2)
    Ov = U_old.reshape(n, 2)
    Av = A_old.reshape(n, 2)
    Cv = C_frozen.reshape(n, 2)

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
        res["u"].append((dofs["u"], Rv))
        res["p"].append((dofs["p"], Rq))
        for (r, c), J in zip(
            (("u", "u"), ("u", "p"), ("p", "u"), ("p", "p")),
            (Juu.reshape(E, 8, 8), Jup.reshape(E, 8, 4), Jpu.reshape(E, 4, 8), Jpp),
        ):
            jac.append((r, c, LocalBlocks((shapes[r], shapes[c]), dofs[r], dofs[c], J)))
    Ru, Rp = (
        np.bincount(
            np.concatenate([d.ravel() for d, _ in res[k]], dtype=np.intp),
            weights=np.concatenate([v.ravel() for _, v in res[k]]),
            minlength=shapes[k],
        )
        for k in ("u", "p")
    )
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
    """The volume rules of the fluid part of the active elements of `cfg`:
    the uncut elements with one shared 3x3 Gauss rule and the cut elements
    with their padded polygon rules, as nonempty batches (elems (E,), points
    (E, Q, 2), weights (E|1, Q), `basis_tables` at the points)."""
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
    cut, pts, w = _cut_batch(cfg)
    if cut.size:
        batches.append((cut, pts, w, grid_basis(grid, cut, pts)))
    return batches


def _cut_batch(cfg):
    """The cut elements with a nonempty fluid rule and their polygon rules,
    padded to a common length Q with zero weights at a repeated real point:
    (elems (E,), points (E, Q, 2), weights (E, Q)). One `polygon_rule` call
    rules every piece of the configuration; the batch is built on first use
    and kept on the configuration, which is fixed across Newton iterations."""
    if cfg.cut_batch is None:
        owner = np.repeat(np.arange(len(cfg.pieces)), [len(ps) for ps in cfg.pieces.values()])
        stack = stack_polygons([p for ps in cfg.pieces.values() for p in ps])
        rule, sizes = polygon_rule(*stack)
        m = np.bincount(owner, weights=sizes, minlength=len(cfg.pieces)).astype(np.intp)
        elems = np.array(list(cfg.pieces), dtype=int)[m > 0]
        m = m[m > 0]
        filled = np.arange(max(m, default=0)) < m[:, None]
        pts = np.repeat(rule.points[np.cumsum(m) - m, None], filled.shape[1], axis=1)
        pts[filled] = rule.points
        w = np.zeros(filled.shape)
        w[filled] = rule.weights
        cfg.cut_batch = (elems, pts, w)
    return cfg.cut_batch


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
    phi = nu + params.c_conv * cinf * h_elem + params.c_react * sigma * h_elem**2
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
