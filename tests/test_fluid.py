from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi.cutting import CutConfiguration, ElemStatus, NodeRole, build_cut_configuration
from cutfsi.fluid import (
    FluidParams,
    assemble_ghost_penalties,
    assemble_navier_stokes,
    basis_tables,
    boundary_traction_load,
    interpolate_scalar,
    interpolate_velocity,
    stabilization_times,
)
from cutfsi.meshes import StructuredGrid
from cutfsi.quadrature import QuadratureRule, polygon_rule

PAR = FluidParams(density=1.0, viscosity=0.01)


def _all_fluid(grid):
    return build_cut_configuration(grid, None)


def test_stabilization_times_steady_no_convection():
    # with c = 0 and a huge dt only the viscous part remains:
    # tau_m = h^2 / (mu * sqrt(1152)) on square cells with the default constant
    h = 0.125
    mu = 0.01
    par = FluidParams(density=1.0, viscosity=mu)
    tau_m, tau_c = stabilization_times(par, 1e12, h, h, np.zeros(2))
    assert tau_m == pytest.approx(h**2 / (mu * np.sqrt(1152.0)), rel=1e-12)
    assert tau_c == pytest.approx(1.0 / (tau_m * 8.0 / h**2), rel=1e-12)


def test_stabilization_times_general_hand_value():
    rho, mu = 2.0, 0.3
    par = FluidParams(density=rho, viscosity=mu, inv_estimate=36.0)
    hx, hy, dt = 0.2, 0.4, 0.5
    c = np.array([1.0, 2.0])
    gxx, gyy = 4 / hx**2, 4 / hy**2
    want = 1.0 / np.sqrt(
        (2 * rho / dt) ** 2
        + rho**2 * (c[0] ** 2 * gxx + c[1] ** 2 * gyy)
        + 36.0 * mu**2 * (gxx**2 + gyy**2)
    )
    tau_m, tau_c = stabilization_times(par, dt, hx, hy, c)
    assert tau_m == pytest.approx(want, rel=1e-13)
    assert tau_c == pytest.approx(1.0 / (want * (gxx + gyy)), rel=1e-13)


def _scalar_reference_residual(params, dt, theta, hx, hy, origin, Ue, Pe, Oe, Ae, Ce, force):
    """Independent loop-based evaluation of the stabilized weak residual on a
    single rectangle element (3x3 Gauss)."""
    rho, mu = params.density, params.viscosity
    sigma = 1.0 / (theta * dt)
    ratio = (1.0 - theta) / theta
    xi, wi = np.polynomial.legendre.leggauss(3)
    Rv = np.zeros((4, 2))
    Rq = np.zeros(4)

    def shapes(s, t):
        N = np.array([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])
        dNdx = np.array([-(1 - t), (1 - t), t, -t]) / hx
        dNdy = np.array([-(1 - s), -s, s, (1 - s)]) / hy
        return N, dNdx, dNdy

    d2 = np.array([1.0, -1.0, 1.0, -1.0]) / (hx * hy)
    for ii in range(3):
        for jj in range(3):
            s, t = 0.5 * (xi[ii] + 1), 0.5 * (xi[jj] + 1)
            w = wi[ii] * wi[jj] * 0.25 * hx * hy
            N, dNdx, dNdy = shapes(s, t)
            x = origin[0] + s * hx
            y = origin[1] + t * hy
            u = Ue.T @ N
            uo = Oe.T @ N
            ao = Ae.T @ N
            c = Ce.T @ N
            p = Pe @ N
            gradp = np.array([Pe @ dNdx, Pe @ dNdy])
            gu = np.zeros((2, 2))
            for a in range(4):
                gu[:, 0] += Ue[a] * dNdx[a]
                gu[:, 1] += Ue[a] * dNdy[a]
            mixed = Ue.T @ d2
            lap = mu * np.array([mixed[1], mixed[0]])
            f = force(np.array([[x, y]]), 0.0)[0]
            tau_m, tau_c = stabilization_times(params, dt, hx, hy, c)
            strong = rho * sigma * (u - uo) + rho * gu @ c + gradp - lap - rho * f
            gal = rho * sigma * (u - uo) - ratio * rho * ao - rho * f + rho * gu @ u
            divu = gu[0, 0] + gu[1, 1]
            for a in range(4):
                grad_a = np.array([dNdx[a], dNdy[a]])
                c_dot_a = c @ grad_a
                for i in range(2):
                    val = gal[i] * N[a]
                    val += mu * sum(
                        (gu[i, j] + gu[j, i]) * grad_a[j] for j in range(2)
                    )
                    val -= p * grad_a[i]
                    val += strong[i] * tau_m * rho * c_dot_a
                    val += tau_c * divu * grad_a[i]
                    Rv[a, i] += w * val
                Rq[a] += w * (divu * N[a] + tau_m * strong @ grad_a)
    return Rv, Rq


def test_residual_matches_scalar_reference():
    grid = StructuredGrid((0.3, -0.2), (0.25, 0.125), (1, 1))
    cfg = _all_fluid(grid)
    rng = np.random.default_rng(2)
    n = grid.n_nodes
    U = rng.standard_normal(2 * n)
    P = rng.standard_normal(n)
    Uo = rng.standard_normal(2 * n)
    Ao = rng.standard_normal(2 * n)
    Cb = rng.standard_normal(2 * n)

    def force(pts, t):
        return np.column_stack([np.sin(pts[:, 0]), pts[:, 1] ** 2])

    dt, theta = 0.2, 0.6
    Ru, Rp, *_ = assemble_navier_stokes(
        grid, cfg, PAR, dt, theta, U, P, Uo, Ao, Cb, body_force=force
    )
    conn = grid.elem_nodes(0)
    Rv_ref, Rq_ref = _scalar_reference_residual(
        PAR, dt, theta, 0.25, 0.125, (0.3, -0.2),
        U.reshape(n, 2)[conn], P[conn], Uo.reshape(n, 2)[conn],
        Ao.reshape(n, 2)[conn], Cb.reshape(n, 2)[conn], force,
    )
    got_v = Ru.reshape(n, 2)[conn]
    assert np.allclose(got_v, Rv_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(Rp[conn], Rq_ref, rtol=1e-12, atol=1e-12)


def test_uncut_batch_matches_scalar_reference_with_one_force_call():
    # several uncut elements share one batched force evaluation; each must
    # see the force at its own Gauss points, and one call must cover them all
    grid = StructuredGrid((0.3, -0.2), (0.25, 0.125), (5, 6))
    solid = np.array([[0.62, 0.02], [1.08, 0.02], [1.08, 0.31], [0.62, 0.31]])
    cfg = build_cut_configuration(grid, solid)
    full = np.flatnonzero(cfg.status == ElemStatus.FLUID)
    assert len(cfg.pieces) >= 1 and full.size >= 10
    rng = np.random.default_rng(7)
    n = grid.n_nodes
    U, Uo, Ao, Cb = (rng.standard_normal(2 * n) for _ in range(4))
    P = rng.standard_normal(n)
    sizes = []

    def force(pts, t):
        sizes.append(pts.shape[0])
        return np.column_stack(
            [np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2, pts[:, 0] * pts[:, 1] - np.cos(pts[:, 1])]
        )

    dt, theta = 0.2, 0.6
    args = (PAR, dt, theta, U, P, Uo, Ao, Cb)
    Ru, Rp, *_ = assemble_navier_stokes(grid, cfg, *args, body_force=force)
    assert sizes.count(9 * full.size) == 1
    # one call for the uncut batch, one for the batch of all cut elements
    assert len(sizes) == 2 and sizes[0] == 9 * full.size

    # the uncut elements' share: subtract an assembly over the cut elements alone
    cut_status = np.where(cfg.status == ElemStatus.FLUID, ElemStatus.COVERED, cfg.status)
    cut_only = CutConfiguration(
        grid, cut_status.astype(np.int8), cfg.pieces, cfg.segments, cfg.loop, cfg.node_role
    )
    Ru_cut, Rp_cut, *_ = assemble_navier_stokes(grid, cut_only, *args, body_force=force)
    want_v = np.zeros((n, 2))
    want_q = np.zeros(n)
    hx, hy = grid.spacing
    for e in full:
        conn = grid.elem_nodes(e)
        Rv_ref, Rq_ref = _scalar_reference_residual(
            PAR, dt, theta, hx, hy, grid.elem_bbox(e)[:2],
            U.reshape(n, 2)[conn], P[conn], Uo.reshape(n, 2)[conn],
            Ao.reshape(n, 2)[conn], Cb.reshape(n, 2)[conn], force,
        )
        want_v[conn] += Rv_ref
        want_q[conn] += Rq_ref
    scale = max(1.0, np.abs(want_v).max(), np.abs(want_q).max())
    assert np.allclose((Ru - Ru_cut).reshape(n, 2), want_v, rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(Rp - Rp_cut, want_q, rtol=1e-12, atol=1e-12 * scale)


def test_jacobian_matches_finite_differences():
    grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (2, 2))
    cfg = _all_fluid(grid)
    rng = np.random.default_rng(4)
    n = grid.n_nodes
    U = 0.5 * rng.standard_normal(2 * n)
    P = 0.5 * rng.standard_normal(n)
    Uo = 0.5 * rng.standard_normal(2 * n)
    Ao = 0.5 * rng.standard_normal(2 * n)
    Cb = 0.5 * rng.standard_normal(2 * n)  # frozen advection differs from U
    dt, theta = 0.1, 1.0

    def residual(Uv, Pv):
        Ru, Rp, *_ = assemble_navier_stokes(grid, cfg, PAR, dt, theta, Uv, Pv, Uo, Ao, Cb)
        return np.concatenate([Ru, Rp])

    Ru, Rp, Juu, Jup, Jpu, Jpp = assemble_navier_stokes(
        grid, cfg, PAR, dt, theta, U, P, Uo, Ao, Cb
    )
    import scipy.sparse as sp

    J = sp.bmat([[Juu, Jup], [Jpu, Jpp]]).toarray()
    x0 = np.concatenate([U, P])
    r0 = residual(U, P)
    h = 1e-7
    cols = rng.choice(3 * n, size=12, replace=False)
    for j in cols:
        xp = x0.copy()
        xp[j] += h
        rp = residual(xp[: 2 * n], xp[2 * n :])
        fd = (rp - r0) / h
        assert np.allclose(J[:, j], fd, atol=2e-6 * max(1.0, np.abs(J).max()))


def _triangle_cut_config():
    # the cut elements' rules range from 12 to 78 points, so the cut batch
    # pads most of them with zero weights
    grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))
    solid = np.array([[0.31, 0.28], [0.83, 0.41], [0.52, 0.77]])
    cfg = build_cut_configuration(grid, solid)
    lengths = {
        len(QuadratureRule.concat([polygon_rule(p) for p in polys]))
        for polys in cfg.pieces.values()
    }
    assert len(lengths) >= 3
    return grid, cfg


def _swirl_force(pts, t):
    return np.column_stack([np.sin(3.0 * pts[:, 0]) + pts[:, 1], pts[:, 0] * pts[:, 1]])


def test_cut_batch_equals_sum_of_single_cut_element_assemblies():
    grid, cfg = _triangle_cut_config()
    rng = np.random.default_rng(11)
    n = grid.n_nodes
    U, Uo, Ao, Cb = (rng.standard_normal(2 * n) for _ in range(4))
    P = rng.standard_normal(n)
    args = (PAR, 0.2, 0.6, U, P, Uo, Ao, Cb)

    def cut_only(elems):
        status = np.full(grid.n_elems, ElemStatus.COVERED, dtype=np.int8)
        status[list(elems)] = ElemStatus.CUT
        pieces = {e: cfg.pieces[e] for e in elems}
        return CutConfiguration(grid, status, pieces, [], cfg.loop, cfg.node_role)

    got = assemble_navier_stokes(grid, cut_only(cfg.pieces), *args, body_force=_swirl_force)
    singles = [
        assemble_navier_stokes(grid, cut_only([e]), *args, body_force=_swirl_force)
        for e in cfg.pieces
    ]
    for k, block in enumerate(got):
        want = sum(single[k] for single in singles)
        if k >= 2:
            block, want = block.toarray(), want.toarray()
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.allclose(block, want, rtol=0.0, atol=1e-12 * scale)


def test_cut_batch_force_load_matches_shape_function_integrals():
    # at rest with no advection the residual is the force load alone:
    # Rv_a = -rho * int f N_a and Rq_a = -rho * tau_m * int f . grad N_a
    grid, cfg = _triangle_cut_config()
    n = grid.n_nodes
    zero = np.zeros(2 * n)
    status = np.where(cfg.status == ElemStatus.FLUID, ElemStatus.COVERED, cfg.status)
    cut_only = CutConfiguration(
        grid, status.astype(np.int8), cfg.pieces, [], cfg.loop, cfg.node_role
    )
    dt = 0.2
    Ru, Rp, *_ = assemble_navier_stokes(
        grid, cut_only, PAR, dt, 1.0, zero, np.zeros(n), zero, zero, zero, body_force=_swirl_force
    )
    hx, hy = grid.spacing
    tau_m, _ = stabilization_times(PAR, dt, hx, hy, np.zeros(2))
    want_v = np.zeros((n, 2))
    want_q = np.zeros(n)
    for e, polys in cfg.pieces.items():
        x0, y0, _, _ = grid.elem_bbox(e)
        conn = grid.elem_nodes(e)
        for poly in polys:
            rule = polygon_rule(poly)
            s = (rule.points[:, 0] - x0) / hx
            t = (rule.points[:, 1] - y0) / hy
            f = _swirl_force(rule.points, 0.0)
            N = np.column_stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])
            Dx = np.column_stack([t - 1, 1 - t, t, -t]) / hx
            Dy = np.column_stack([s - 1, -s, s, 1 - s]) / hy
            want_v[conn] -= PAR.density * (rule.weights[:, None] * N).T @ f
            want_q[conn] -= PAR.density * tau_m * (
                (rule.weights * f[:, 0]) @ Dx + (rule.weights * f[:, 1]) @ Dy
            )
    assert np.allclose(Ru.reshape(n, 2), want_v, rtol=0.0, atol=1e-13 * np.abs(want_v).max())
    assert np.allclose(Rp, want_q, rtol=0.0, atol=1e-13 * np.abs(want_q).max())


def test_cut_jacobian_matches_finite_differences():
    grid, cfg = _triangle_cut_config()
    rng = np.random.default_rng(5)
    n = grid.n_nodes
    U, P, Uo, Ao, Cb = (0.5 * rng.standard_normal(k * n) for k in (2, 1, 2, 2, 2))
    dt, theta = 0.1, 0.8

    def residual(Uv, Pv):
        Ru, Rp, *_ = assemble_navier_stokes(
            grid, cfg, PAR, dt, theta, Uv, Pv, Uo, Ao, Cb, body_force=_swirl_force
        )
        return np.concatenate([Ru, Rp])

    _, _, Juu, Jup, Jpu, Jpp = assemble_navier_stokes(
        grid, cfg, PAR, dt, theta, U, P, Uo, Ao, Cb, body_force=_swirl_force
    )
    J = sp.bmat([[Juu, Jup], [Jpu, Jpp]]).toarray()
    x0 = np.concatenate([U, P])
    r0 = residual(U, P)
    h = 1e-7
    # every dof of the cut elements, where the padded rules enter
    cols = np.unique(grid.all_elem_nodes()[list(cfg.pieces)])
    cols = np.concatenate([2 * cols, 2 * cols + 1, 2 * n + cols])
    for j in cols:
        xp = x0.copy()
        xp[j] += h
        fd = (residual(xp[: 2 * n], xp[2 * n :]) - r0) / h
        assert np.allclose(J[:, j], fd, atol=2e-6 * max(1.0, np.abs(J).max()))


def _apply_dirichlet(J, R, fixed, values, x):
    import scipy.sparse as sp

    J = sp.lil_matrix(J)
    for dof, val in zip(fixed, values):
        J.rows[dof] = [dof]
        J.data[dof] = [1.0]
        R[dof] = x[dof] - val
    return sp.csr_matrix(J), R


def test_couette_flow_is_exact():
    # u = (y, 0), p = 0 solves the steady problem with no force; the nodal
    # interpolant is in the space, so the solver reproduces it to rounding.
    grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))
    cfg = _all_fluid(grid)
    n = grid.n_nodes
    xy = grid.node_coords()
    exact_u = np.zeros((n, 2))
    exact_u[:, 0] = xy[:, 1]
    bnodes = set()
    for side in ("left", "right", "bottom", "top"):
        bnodes.update(grid.boundary_nodes(side).tolist())
    fixed = []
    values = []
    for nd in sorted(bnodes):
        fixed += [2 * nd, 2 * nd + 1]
        values += [exact_u[nd, 0], exact_u[nd, 1]]
    fixed.append(2 * n)  # pin pressure at node 0
    values.append(0.0)

    import scipy.sparse as sp
    from cutfsi.linalg import factor_solve

    U = np.zeros(2 * n)
    P = np.zeros(n)
    Uo = np.zeros(2 * n)
    Ao = np.zeros(2 * n)
    for _ in range(4):
        Ru, Rp, Juu, Jup, Jpu, Jpp = assemble_navier_stokes(
            grid, cfg, PAR, 1e12, 1.0, U, P, Uo, Ao, U
        )
        J = sp.bmat([[Juu, Jup], [Jpu, Jpp]], format="csr")
        R = np.concatenate([Ru, Rp])
        x = np.concatenate([U, P])
        J, R = _apply_dirichlet(J, R, fixed, values, x)
        dx = factor_solve(J, -R)
        x = x + dx
        U, P = x[: 2 * n], x[2 * n :]
        if np.linalg.norm(dx) < 1e-12:
            break
    assert np.max(np.abs(U - exact_u.reshape(-1))) < 1e-9
    assert np.max(np.abs(P)) < 1e-9


def test_hydrostatic_balance_is_exact():
    # f = (0, -g): u = 0 with linear pressure p = -rho g y zeroes the residual
    grid = StructuredGrid((0.0, 0.0), (0.25, 0.2), (4, 5))
    cfg = _all_fluid(grid)
    par = FluidParams(density=2.0, viscosity=0.05)
    n = grid.n_nodes
    xy = grid.node_coords()
    g = 3.0
    P = -par.density * g * xy[:, 1]
    U = np.zeros(2 * n)

    def force(pts, t):
        out = np.zeros((pts.shape[0], 2))
        out[:, 1] = -g
        return out

    Ru, Rp, *_ = assemble_navier_stokes(
        grid, cfg, par, 1e12, 1.0, U, P, U, U, U, body_force=force
    )
    # interior velocity rows and all continuity rows vanish identically;
    # boundary velocity rows carry the (nonzero) hydrostatic traction and are
    # replaced by Dirichlet conditions in an actual solve
    bnodes = set()
    for side in ("left", "right", "bottom", "top"):
        bnodes.update(grid.boundary_nodes(side).tolist())
    interior = [nd for nd in range(n) if nd not in bnodes]
    Ruv = Ru.reshape(n, 2)
    assert np.max(np.abs(Ruv[interior])) < 1e-12
    assert np.max(np.abs(Rp)) < 1e-12


def test_cut_element_quadrature_enters_continuity():
    # with u = (x, 0), div u = 1: summing continuity rows gives the fluid area
    grid = StructuredGrid((0.0, 0.0), (0.125, 0.125), (8, 8))
    solid = np.array([[0.31, 0.28], [0.69, 0.28], [0.69, 0.66], [0.31, 0.66]])
    cfg = build_cut_configuration(grid, solid)
    n = grid.n_nodes
    xy = grid.node_coords()
    U = np.zeros(2 * n)
    U[0::2] = xy[:, 0]
    P = np.zeros(n)
    Ru, Rp, *_ = assemble_navier_stokes(
        grid, cfg, PAR, 1e12, 1.0, U, P, U, np.zeros(2 * n), np.zeros(2 * n)
    )
    assert Rp.sum() == pytest.approx(cfg.fluid_area(), rel=1e-12)


def _two_cell_ghost_config():
    grid = StructuredGrid((0.0, 0.0), (1.0, 1.0), (2, 1))
    status = np.array([ElemStatus.CUT, ElemStatus.CUT], dtype=np.int8)
    role = np.full(grid.n_nodes, NodeRole.STANDARD, dtype=np.int8)
    return grid, CutConfiguration(grid, status, {}, [], None, role)


def test_ghost_penalty_hand_computed_energy():
    grid, cfg = _two_cell_ghost_config()
    par = FluidParams(density=2.0, viscosity=0.6, gamma_conv=0.05, gamma_div=0.07, gamma_press=0.09)
    n = grid.n_nodes
    dt, theta = 0.25, 0.8
    sigma = 1.0 / (theta * dt)
    C = np.zeros(2 * n)
    C.reshape(n, 2)[:] = [0.3, -0.4]  # nodal max-norm 0.4 everywhere
    Kc, Kd, Kp = assemble_ghost_penalties(grid, cfg, par, dt, theta, C)

    # hat velocity: u_x = 1 on the shared column -> normal-derivative jump 2
    U = np.zeros(2 * n)
    U[2 * 1] = 1.0
    U[2 * 4] = 1.0
    nu = 0.6 / 2.0
    h_elem = np.sqrt(2.0)
    phi = nu + 0.4 * h_elem + sigma * h_elem**2
    phi_c = h_elem**2 / phi
    coef_c = 0.05 * 2.0 * (nu + phi_c * 0.4**2 + sigma * 1.0**2) * 1.0
    assert U @ (Kc @ U) == pytest.approx(4.0 * coef_c, rel=1e-12)
    coef_d = 0.07 * phi * 2.0 * 1.0
    assert U @ (Kd @ U) == pytest.approx(4.0 * coef_d, rel=1e-12)

    Pv = np.zeros(n)
    Pv[1] = 1.0
    Pv[4] = 1.0
    coef_p = 0.09 * phi_c / 2.0 * 1.0
    assert Pv @ (Kp @ Pv) == pytest.approx(4.0 * coef_p, rel=1e-12)


def test_ghost_penalty_vanishes_on_bilinear_fields():
    grid = StructuredGrid((0.0, 0.0), (0.5, 0.25), (3, 3))
    status = np.full(grid.n_elems, ElemStatus.CUT, dtype=np.int8)
    role = np.full(grid.n_nodes, NodeRole.STANDARD, dtype=np.int8)
    cfg = CutConfiguration(grid, status, {}, [], None, role)
    par = FluidParams(density=1.0, viscosity=0.01)
    C = np.zeros(2 * grid.n_nodes)
    Kc, Kd, Kp = assemble_ghost_penalties(grid, cfg, par, 0.1, 1.0, C)
    xy = grid.node_coords()
    for ax, ay, axy in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
        f = 0.7 + ax * xy[:, 0] + ay * xy[:, 1] + axy * xy[:, 0] * xy[:, 1]
        U = np.zeros(2 * grid.n_nodes)
        U[0::2] = f
        U[1::2] = -2.0 * f
        scale = max(Kc.data.max(), Kd.data.max())
        assert abs(U @ (Kc @ U)) < 1e-12 * scale
        assert abs(U @ (Kd @ U)) < 1e-12 * scale
        assert abs(f @ (Kp @ f)) < 1e-12 * Kp.data.max()
    # but interpolated quadratics have jumps: positive energy
    f = xy[:, 0] ** 2
    U = np.zeros(2 * grid.n_nodes)
    U[0::2] = f
    assert U @ (Kc @ U) > 0
    assert f @ (Kp @ f) > 0


def test_ghost_penalty_symmetric_psd():
    grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))
    solid = np.array([[0.31, 0.28], [0.69, 0.28], [0.69, 0.66], [0.31, 0.66]])
    cfg = build_cut_configuration(grid, solid)
    Kc, Kd, Kp = assemble_ghost_penalties(grid, cfg, PAR, 0.1, 1.0, np.zeros(2 * grid.n_nodes))
    for K in (Kc, Kd, Kp):
        A = K.toarray()
        assert np.allclose(A, A.T, atol=1e-14)
        w = np.linalg.eigvalsh(A)
        assert w.min() > -1e-12 * max(1.0, w.max())


def test_boundary_traction_total_force():
    grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))

    def traction(pts, t):
        out = np.zeros((pts.shape[0], 2))
        out[:, 0] = 2.0  # constant pull in x on the right side
        return out

    load = boundary_traction_load(grid, "right", traction)
    assert load[0::2].sum() == pytest.approx(2.0 * 1.0, rel=1e-13)
    assert load[1::2].sum() == pytest.approx(0.0, abs=1e-14)
    right = set(grid.boundary_nodes("right").tolist())
    nz = np.flatnonzero(load)
    assert all((d // 2) in right for d in nz)


def test_interpolation_helpers():
    grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (2, 2))

    def vel(pts, t):
        return np.column_stack([pts[:, 0] + t, pts[:, 1]])

    U = interpolate_velocity(grid, vel, time=2.0)
    assert U[2 * grid.node_id(1, 1)] == pytest.approx(0.5 + 2.0)
    S = interpolate_scalar(grid, lambda pts, t: pts[:, 0] * pts[:, 1], time=0.0)
    assert S[grid.node_id(2, 1)] == pytest.approx(0.5)
