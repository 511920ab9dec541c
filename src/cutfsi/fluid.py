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
from .linalg import TripletAccumulator
from .meshes import StructuredGrid
from .quadrature import QuadratureRule, polygon_rule

__all__ = [
    "FluidParams",
    "basis_tables",
    "stabilization_times",
    "assemble_navier_stokes",
    "assemble_ghost_penalties",
]


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
    whole batch; D2 (4,), Ue/Oe/Ae/Ce (E,4,2), Pe (E,4), Fe (E,Q,2). Every
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


def _local_coords(bbox, pts):
    x0, y0, x1, y1 = bbox
    s = (pts[:, 0] - x0) / (x1 - x0)
    t = (pts[:, 1] - y0) / (y1 - y0)
    return s, t


def _eval_force(body_force, pts, time):
    if body_force is None:
        return np.zeros((pts.shape[0], 2))
    if callable(body_force):
        return np.asarray(body_force(pts, time), dtype=float).reshape(pts.shape[0], 2)
    return np.broadcast_to(np.asarray(body_force, dtype=float), (pts.shape[0], 2)).copy()


def assemble_navier_stokes(
    grid: StructuredGrid,
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
    elements. Returns (Ru, Rp, Juu, Jup, Jpu, Jpp) with the sparse blocks in
    CSR form.
    """
    n = grid.n_nodes
    hx, hy = grid.spacing
    sigma = 1.0 / (theta * dt)
    hist_ratio = (1.0 - theta) / theta

    Ru = np.zeros(2 * n)
    Rp = np.zeros(n)
    acc_uu = TripletAccumulator(2 * n, 2 * n)
    acc_up = TripletAccumulator(2 * n, n)
    acc_pu = TripletAccumulator(n, 2 * n)
    acc_pp = TripletAccumulator(n, n)

    conn_all = grid.all_elem_nodes()
    Uv = U.reshape(n, 2)
    Ov = U_old.reshape(n, 2)
    Av = A_old.reshape(n, 2)
    Cv = C_frozen.reshape(n, 2)

    def run_batch(elems, N, Dx, Dy, D2, w, pts):
        # pts (E, Q, 2): one force evaluation covers the whole batch
        conn = conn_all[elems]
        E, Q = pts.shape[:2]
        Fe = _eval_force(body_force, pts.reshape(E * Q, 2), time).reshape(E, Q, 2)
        Rv, Rq, Juu, Jup, Jpu, Jpp = _ns_kernel(
            params, sigma, hist_ratio, dt, hx, hy, N, Dx, Dy, D2, w,
            Uv[conn], P[conn], Ov[conn], Av[conn], Cv[conn], Fe,
        )
        udofs = np.stack([2 * conn, 2 * conn + 1], axis=-1).reshape(E, 8)
        pdofs = conn
        np.add.at(Ru, udofs, Rv.reshape(E, 8))
        np.add.at(Rp, pdofs, Rq)
        acc_uu.add(
            np.repeat(udofs, 8, axis=1).ravel(),
            np.tile(udofs, (1, 8)).ravel(),
            Juu.reshape(E, 8, 8).ravel(),
        )
        acc_up.add(
            np.repeat(udofs, 4, axis=1).ravel(),
            np.tile(pdofs, (1, 8)).ravel(),
            Jup.reshape(E, 8, 4).ravel(),
        )
        acc_pu.add(
            np.repeat(pdofs, 8, axis=1).ravel(),
            np.tile(udofs, (1, 4)).ravel(),
            Jpu.reshape(E, 4, 8).ravel(),
        )
        acc_pp.add(
            np.repeat(pdofs, 4, axis=1).ravel(),
            np.tile(pdofs, (1, 4)).ravel(),
            Jpp.reshape(E, 4, 4).ravel(),
        )

    # Uncut elements: one shared 3x3 tensor rule.
    xy = grid.node_coords()
    full = np.flatnonzero(cfg.status == ElemStatus.FLUID)
    if full.size:
        xi, wi = np.polynomial.legendre.leggauss(3)
        s = np.repeat(0.5 * (xi + 1.0), 3)
        t = np.tile(0.5 * (xi + 1.0), 3)
        w = (np.repeat(wi, 3) * np.tile(wi, 3)) * 0.25 * hx * hy
        N, Dx, Dy, D2 = basis_tables(hx, hy, s[None], t[None])
        lower_left = xy[conn_all[full, 0]]
        pts = lower_left[:, None, :] + np.column_stack([s * hx, t * hy])[None]
        run_batch(full, N, Dx, Dy, D2, w[None], pts)

    # Cut elements: one batch of their polygon rules, padded to a common
    # length with zero weights at a repeated real point.
    rules = [
        (e, QuadratureRule.concat([polygon_rule(p) for p in polys]))
        for e, polys in cfg.pieces.items()
    ]
    rules = [(e, rule) for e, rule in rules if len(rule)]
    if rules:
        cut = np.array([e for e, _ in rules])
        Q = max(len(rule) for _, rule in rules)
        pts = np.empty((cut.size, Q, 2))
        w = np.zeros((cut.size, Q))
        for k, (_, rule) in enumerate(rules):
            m = len(rule)
            pts[k, :m] = rule.points
            pts[k, m:] = rule.points[0]
            w[k, :m] = rule.weights
        lower_left = xy[conn_all[cut, 0]]
        s = (pts[..., 0] - lower_left[:, :1]) / hx
        t = (pts[..., 1] - lower_left[:, 1:]) / hy
        N, Dx, Dy, D2 = basis_tables(hx, hy, s, t)
        run_batch(cut, N, Dx, Dy, D2, w, pts)

    return Ru, Rp, acc_uu.tocsr(), acc_up.tocsr(), acc_pu.tocsr(), acc_pp.tocsr()


def assemble_ghost_penalties(
    grid: StructuredGrid,
    cfg: CutConfiguration,
    params: FluidParams,
    dt: float,
    theta: float,
    C_frozen: np.ndarray,
    widened: bool = False,
):
    """Facet jump penalties near the interface.

    Returns CSR matrices (K_conv, K_div, K_press) acting on the velocity,
    velocity, and pressure vectors; the residual contribution is K @ vec.
    The three penalties weight the normal-derivative jump of the velocity,
    the divergence jump, and the normal-derivative jump of the pressure.
    """
    n = grid.n_nodes
    hx, hy = grid.spacing
    h_elem = grid.elem_diameter()
    sigma = 1.0 / (theta * dt)
    rho = params.density
    nu = params.kinematic_viscosity
    Cv = C_frozen.reshape(n, 2)

    acc_c = TripletAccumulator(2 * n, 2 * n)
    acc_d = TripletAccumulator(2 * n, 2 * n)
    acc_p = TripletAccumulator(n, n)

    gp2, gw2 = np.polynomial.legendre.leggauss(2)
    conn_all = grid.all_elem_nodes()
    xy = grid.node_coords()

    for el, er, na, nb in cfg.ghost_facets(widened=widened):
        pa, pb = xy[na], xy[nb]
        length = float(np.hypot(*(pb - pa)))
        qp_t = 0.5 * (gp2 + 1.0)
        pts = pa[None, :] + qp_t[:, None] * (pb - pa)[None, :]
        wq = 0.5 * gw2 * length
        vertical = abs(pa[0] - pb[0]) < abs(pa[1] - pb[1])
        normal_axis = 0 if vertical else 1

        nodes: list[int] = []
        for e in (el, er):
            for nd in conn_all[e]:
                if int(nd) not in nodes:
                    nodes.append(int(nd))
        nodes = np.array(nodes, dtype=int)
        idx = {int(nd): i for i, nd in enumerate(nodes)}
        m = len(nodes)

        # jump tables over the union dofs: side el enters +, side er enters -
        jump_dn = np.zeros((len(wq), m))
        jump_grad = np.zeros((len(wq), m, 2))
        for sign, e in ((1.0, el), (-1.0, er)):
            s, t = _local_coords(grid.elem_bbox(e), pts)
            _, Dx, Dy, _ = basis_tables(hx, hy, s, t)
            Dn = Dx if normal_axis == 0 else Dy
            for a_loc, nd in enumerate(conn_all[e]):
                col = idx[int(nd)]
                jump_dn[:, col] += sign * Dn[:, a_loc]
                jump_grad[:, col, 0] += sign * Dx[:, a_loc]
                jump_grad[:, col, 1] += sign * Dy[:, a_loc]

        cinf = [float(np.max(np.abs(Cv[conn_all[e]]))) for e in (el, er)]
        phi = [
            nu + params.c_conv * ci * h_elem + params.c_react * sigma * h_elem**2
            for ci in cinf
        ]
        phi_mean = 0.5 * (phi[0] + phi[1])
        phi_c_mean = 0.5 * (h_elem**2 / phi[0] + h_elem**2 / phi[1])
        cinf_f = max(cinf)

        coef_c = (
            params.gamma_conv
            * rho
            * (nu + phi_c_mean * cinf_f**2 + sigma * length**2)
            * length
        )
        coef_d = params.gamma_div * phi_mean * rho * length
        coef_p = params.gamma_press * phi_c_mean / rho * length

        Mc = np.einsum("q,qa,qb->ab", wq, jump_dn, jump_dn)
        block = np.zeros((2 * m, 2 * m))
        block[0::2, 0::2] = coef_c * Mc
        block[1::2, 1::2] = coef_c * Mc
        udofs = np.empty(2 * m, dtype=int)
        udofs[0::2] = 2 * nodes
        udofs[1::2] = 2 * nodes + 1
        acc_c.add_block(udofs, udofs, block)

        # divergence jump: dof order of the C-reshape matches udofs
        Jdiv = jump_grad.reshape(len(wq), 2 * m)
        Md = np.einsum("q,qa,qb->ab", wq, Jdiv, Jdiv)
        acc_d.add_block(udofs, udofs, coef_d * Md)

        acc_p.add_block(nodes, nodes, coef_p * Mc)

    return acc_c.tocsr(), acc_d.tocsr(), acc_p.tocsr()
