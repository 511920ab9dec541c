from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi import fluid, projection
from cutfsi.cutting import CutConfiguration, ElemStatus, NodeRole, build_cut_configuration
from cutfsi.driver import patch_boundary_loop
from cutfsi.fluid import (
    FluidParams,
    assemble_ghost_penalties,
    assemble_navier_stokes,
    basis_tables,
    stabilization_times,
)
from cutfsi.meshes import StructuredGrid
from cutfsi.quadrature import QuadratureRule, polygon_rule, rectangle_rule
from cutfsi.verification import _flow_l2_errors
from coo_reference import coo, flow_blocks, flow_matrix

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
    par = FluidParams(density=rho, viscosity=mu)
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


def test_corner_pairs_match_the_corner_basis_tables():
    # the unit-spacing corner products scaled per table equal the products
    # of the basis tables at the corners of a non-square cell, bitwise
    hx, hy = 0.0713, 0.0297
    N, Dx, Dy, D2 = basis_tables(hx, hy, [0, 1, 1, 0], [0, 0, 1, 1])
    corners = np.stack([N, Dx, Dy, np.broadcast_to(D2, (4, 4)), np.ones((4, 4))])
    want = np.einsum("Aca,Bdb->ABcdab", corners[:3], corners).reshape(3, 5, 16, 16)
    assert np.array_equal(fluid._corner_pairs(hx, hy), want)


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
        cfg, PAR, dt, theta, U, P, Uo, Ao, Cb, body_force=force
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
    Ru, Rp, *_ = assemble_navier_stokes(cfg, *args, body_force=force)
    assert sizes.count(9 * full.size) == 1
    # one call for the uncut batch, one for the batch of all cut elements
    assert len(sizes) == 2 and sizes[0] == 9 * full.size

    # the uncut elements' share: subtract an assembly over the cut elements alone
    cut_status = np.where(cfg.status == ElemStatus.FLUID, ElemStatus.COVERED, cfg.status)
    cut_only = CutConfiguration(
        grid, cut_status.astype(np.int8), cfg.pieces, cfg.segments, cfg.loop, cfg.node_role
    )
    Ru_cut, Rp_cut, *_ = assemble_navier_stokes(cut_only, *args, body_force=force)
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


def _assert_jacobian_is_exact(cfg, body_force, seed):
    # at fixed U_old, A_old and C_frozen the residual is quadratic in (U, P),
    # so central differences reproduce every column of the Jacobian up to
    # round-off
    rng = np.random.default_rng(seed)
    n = cfg.grid.n_nodes
    U, P, Uo, Ao, Cb = (0.5 * rng.standard_normal(k * n) for k in (2, 1, 2, 2, 2))
    dt, theta = 0.1, 0.8

    def assemble(x):
        return assemble_navier_stokes(
            cfg, PAR, dt, theta, x[: 2 * n], x[2 * n :], Uo, Ao, Cb, body_force=body_force
        )

    x0 = np.concatenate([U, P])
    J = flow_matrix(assemble(x0)).toarray()
    h = 1e-3
    fd = np.column_stack([
        (np.concatenate(assemble(x0 + h * e)[:2]) - np.concatenate(assemble(x0 - h * e)[:2]))
        / (2 * h)
        for e in np.eye(3 * n)
    ])
    assert np.abs(J - fd).max() <= 1e-10 * np.abs(J).max()


def test_jacobian_matches_finite_differences():
    _assert_jacobian_is_exact(_all_fluid(StructuredGrid((0.0, 0.0), (0.5, 0.5), (3, 3))), None, 4)


def _triangle_cut_config():
    # the cut elements' rules range from 12 to 78 points, so the cut batch
    # pads most of them with zero weights
    grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))
    solid = np.array([[0.31, 0.28], [0.83, 0.41], [0.52, 0.77]])
    cfg = build_cut_configuration(grid, solid)
    lengths = {sum(len(polygon_rule(p)) for p in polys) for polys in cfg.pieces.values()}
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

    got = flow_blocks(
        assemble_navier_stokes(cut_only(cfg.pieces), *args, body_force=_swirl_force)
    )
    singles = [
        flow_blocks(assemble_navier_stokes(cut_only([e]), *args, body_force=_swirl_force))
        for e in cfg.pieces
    ]
    for k, block in enumerate(got):
        want = sum(single[k] for single in singles)
        if k >= 2:
            block, want = block.toarray(), want.toarray()
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.allclose(block, want, rtol=0.0, atol=1e-12 * scale)


def test_cut_rules_are_built_once_per_configuration(monkeypatch):
    # the configuration is fixed across Newton iterations, so the second
    # assembly on it reuses the padded cut batch of the first, bitwise; one
    # `polygon_rule` call rules all pieces of a configuration
    grid, cfg = _triangle_cut_config()
    rng = np.random.default_rng(4)
    n = grid.n_nodes
    U, Uo, Ao, Cb = (rng.standard_normal(2 * n) for _ in range(4))
    args = (PAR, 0.2, 0.6, U, rng.standard_normal(n), Uo, Ao, Cb)
    calls = []
    rule = fluid.polygon_rule
    monkeypatch.setattr(fluid, "polygon_rule", lambda *a: calls.append(a) or rule(*a))
    first = flow_blocks(assemble_navier_stokes(cfg, *args, body_force=_swirl_force))
    second = flow_blocks(assemble_navier_stokes(cfg, *args, body_force=_swirl_force))
    assert len(calls) == 1
    assert len(calls[0][1]) == sum(len(polys) for polys in cfg.pieces.values())
    for a, b in zip(first, second):
        if sp.issparse(a):
            a, b = a.toarray(), b.toarray()
        assert a.tobytes() == b.tobytes()
    # another configuration builds its own rules
    assemble_navier_stokes(build_cut_configuration(grid, cfg.loop), *args)
    assert len(calls) == 2


def test_cut_batch_holds_the_rules_of_the_pieces():
    # every cut element's batch row is its pieces' single rules one after
    # the other, bitwise, padded with zero weights at its first point
    grid, cfg = _triangle_cut_config()
    elems, pts, w, _ = fluid.volume_batches(cfg)[-1]
    assert elems.tolist() == list(cfg.pieces)
    for row, e in enumerate(cfg.pieces):
        rules = [polygon_rule(p) for p in cfg.pieces[e]]
        want_pts = np.vstack([r.points for r in rules])
        want_w = np.concatenate([r.weights for r in rules])
        m = want_w.size
        assert pts[row, :m].tobytes() == want_pts.tobytes()
        assert w[row, :m].tobytes() == want_w.tobytes()
        assert np.all(w[row, m:] == 0.0) and np.all(pts[row, m:] == want_pts[0])


def test_benchmark_quadrature_hook_is_called_and_keeps_its_single_polygon_contract(monkeypatch):
    # the benchmark times `fluid.polygon_rule`, looked up at call time, and
    # rules single pieces with it, reading `.points`, `.weights` and len()
    grid, cfg = _triangle_cut_config()
    calls = []
    rule = fluid.polygon_rule
    monkeypatch.setattr(fluid, "polygon_rule", lambda *a: calls.append(1) or rule(*a))
    n = grid.n_nodes
    zero = np.zeros(2 * n)
    assemble_navier_stokes(cfg, PAR, 0.2, 0.6, zero, np.zeros(n), zero, zero, zero)
    assert len(calls) >= 1
    piece = next(iter(cfg.pieces.values()))[0]
    single = polygon_rule(piece)
    assert isinstance(single, QuadratureRule)
    assert single.points.shape == (len(single), 2) and single.weights.shape == (len(single),)
    assert len(single) > 0


def _l2_errors_per_element(grid, cfg, U, P, exact_u, exact_p, t):
    """The flow L2 errors element by element: a 3x3 `rectangle_rule` on
    every uncut active element, a `polygon_rule` on every fluid piece of a
    cut one, and the bilinear basis at each rule's unit-square coordinates."""
    hx, hy = grid.spacing
    u = U.reshape(grid.n_nodes, 2)
    err_u = err_p = 0.0
    for e in cfg.active_elems:
        i, j = grid.elem_ij(e)
        x0, y0 = grid.origin[0] + i * hx, grid.origin[1] + j * hy
        if cfg.status[e] == ElemStatus.CUT:
            rules = [polygon_rule(poly) for poly in cfg.pieces.get(e, [])]
        else:
            rules = [rectangle_rule(x0, y0, hx, hy, 3)]
        nodes = grid.elem_nodes(e)
        for rule in rules:
            if not len(rule):
                continue
            s = (rule.points[:, 0] - x0) / hx
            r = (rule.points[:, 1] - y0) / hy
            N = np.column_stack([(1 - s) * (1 - r), s * (1 - r), s * r, (1 - s) * r])
            du = N @ u[nodes] - exact_u(rule.points, t)
            dp = N @ P[nodes] - exact_p(rule.points, t)
            err_u += float(rule.weights @ np.sum(du * du, axis=1))
            err_p += float(rule.weights @ (dp * dp))
    return np.sqrt(err_u), np.sqrt(err_p)


def _exact_u(pts, t):
    return np.column_stack([np.sin(2.0 * pts[:, 0] + t) * pts[:, 1], np.cos(pts[:, 0] * pts[:, 1])])


def _exact_p(pts, t):
    return np.exp(pts[:, 0]) - t * pts[:, 1]


def _overlap_background_config():
    # the background of a two-mesh case: the patch cuts a hole into it
    grid = StructuredGrid((0.0, 0.0), (0.1, 0.1), (12, 12))
    patch = StructuredGrid((0.23, 0.27), (0.09, 0.08), (4, 4))
    cfg = build_cut_configuration(grid, patch_boundary_loop(patch))
    assert np.any(cfg.status == ElemStatus.COVERED)
    return grid, cfg


@pytest.mark.parametrize("case", ["uncut", "triangle-cut", "overlap-hole"])
def test_flow_l2_errors_match_per_element_rules(case):
    if case == "uncut":
        grid = StructuredGrid((-0.2, 0.1), (0.3, 0.2), (5, 4))
        cfg = _all_fluid(grid)
    elif case == "triangle-cut":
        grid, cfg = _triangle_cut_config()
    else:
        grid, cfg = _overlap_background_config()
    rng = np.random.default_rng(17)
    U = rng.standard_normal(2 * grid.n_nodes)
    P = rng.standard_normal(grid.n_nodes)
    got = _flow_l2_errors(cfg, U, P, _exact_u, _exact_p, 0.4)
    want = _l2_errors_per_element(grid, cfg, U, P, _exact_u, _exact_p, 0.4)
    for g, w in zip(got, want):
        assert w > 0.0
        assert abs(g - w) <= 1e-12 * w


def test_flow_l2_errors_reuse_the_assembly_rules(monkeypatch):
    # the error norm integrates over the rules the flow assembly built and
    # kept on the configuration, one `polygon_rule` call per configuration
    calls = []
    rule = fluid.polygon_rule
    monkeypatch.setattr(fluid, "polygon_rule", lambda *a: calls.append(1) or rule(*a))
    grid, cfg = _triangle_cut_config()
    n = grid.n_nodes
    rng = np.random.default_rng(2)
    U, Uo, Ao, Cb = (rng.standard_normal(2 * n) for _ in range(4))
    P = rng.standard_normal(n)
    calls.clear()
    assemble_navier_stokes(cfg, PAR, 0.2, 0.6, U, P, Uo, Ao, Cb)
    assert len(calls) == 1
    calls.clear()
    _flow_l2_errors(cfg, U, P, _exact_u, _exact_p, 0.0)
    assert calls == []
    # on a configuration no assembly has seen, the error norm builds them
    _flow_l2_errors(build_cut_configuration(grid, cfg.loop), U, P, _exact_u, _exact_p, 0.0)
    assert len(calls) == 1


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
        cut_only, PAR, dt, 1.0, zero, np.zeros(n), zero, zero, zero, body_force=_swirl_force
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
    _assert_jacobian_is_exact(_triangle_cut_config()[1], _swirl_force, 5)


def test_shared_and_per_element_tables_give_the_same_blocks():
    # the uncut batch through both contractions: its shared 3x3 tables, and
    # the same tables repeated for every element
    grid = StructuredGrid((0.3, -0.2), (0.25, 0.125), (5, 6))
    ((elems, pts, w, (N, Dx, Dy, D2)),) = fluid.volume_batches(_all_fluid(grid))
    rng = np.random.default_rng(8)
    E = elems.size
    Ue, Oe, Ae, Ce = (rng.standard_normal((E, 4, 2)) for _ in range(4))
    force = _swirl_force(pts.reshape(-1, 2), 0.0).reshape(pts.shape)
    fields = (Ue, rng.standard_normal((E, 4)), Oe, Ae, Ce, force)
    common = (PAR, 1.0 / (0.6 * 0.2), 0.4 / 0.6, 0.2, *grid.spacing)
    shared = fluid._ns_kernel(*common, N, Dx, Dy, D2, w, *fields)
    tables = (np.broadcast_to(a, (E, *a.shape[1:])) for a in (N, Dx, Dy))
    per_element = fluid._ns_kernel(*common, *tables, D2, np.broadcast_to(w, (E, 9)), *fields)
    for a, b in zip(shared, per_element):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


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
        result = assemble_navier_stokes(cfg, PAR, 1e12, 1.0, U, P, Uo, Ao, U)
        Ru, Rp, _ = result
        J = flow_matrix(result)
        R = np.concatenate([Ru, Rp])
        x = np.concatenate([U, P])
        J, R = _apply_dirichlet(J, R, fixed, values, x)
        dx, _ = factor_solve(J, -R)
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
        cfg, par, 1e12, 1.0, U, P, U, U, U, body_force=force
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
        cfg, PAR, 1e12, 1.0, U, P, U, np.zeros(2 * n), np.zeros(2 * n)
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
    Kc, Kd, Kp = map(coo, assemble_ghost_penalties(cfg, par, dt, theta, C))

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
    Kc, Kd, Kp = map(coo, assemble_ghost_penalties(cfg, par, 0.1, 1.0, C))
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
    Kc, Kd, Kp = map(coo, assemble_ghost_penalties(cfg, PAR, 0.1, 1.0, np.zeros(2 * grid.n_nodes)))
    for K in (Kc, Kd, Kp):
        A = K.toarray()
        assert np.allclose(A, A.T, atol=1e-14)
        w = np.linalg.eigvalsh(A)
        assert w.min() > -1e-12 * max(1.0, w.max())


# --- facet-jump builder shared by the ghost penalties and the extension ---

FACET_GRID = StructuredGrid((0.1, -0.2), (0.3, 0.2), (7, 6))
FACET_SOLID = np.array([[0.83, 0.07], [1.52, 0.15], [1.47, 0.61], [0.88, 0.55]])


def _facet_reference(grid, el, er, na, nb):
    """Union nodes, weights, length, normal axis and gradient jump tables
    (Q, m, 2) of one facet, from hat products written out point by point."""
    xy = grid.node_coords()
    hx, hy = grid.spacing
    pa, pb = xy[na], xy[nb]
    length = float(np.hypot(*(pb - pa)))
    gp, gw = np.polynomial.legendre.leggauss(2)
    pts = pa + 0.5 * (gp + 1.0)[:, None] * (pb - pa)
    axis = 0 if abs(pb[0] - pa[0]) < abs(pb[1] - pa[1]) else 1
    nodes = list(dict.fromkeys([*grid.elem_nodes(el), *grid.elem_nodes(er)]))
    grad = np.zeros((2, len(nodes), 2))
    for sign, e in ((1.0, el), (-1.0, er)):
        centre = xy[grid.elem_nodes(e)].mean(axis=0)
        for nd in grid.elem_nodes(e):
            # one-sided hat gradient, taken from inside element e
            sx, sy = np.sign(xy[nd] - centre)
            fx = 1.0 - np.abs(pts[:, 0] - xy[nd, 0]) / hx
            fy = 1.0 - np.abs(pts[:, 1] - xy[nd, 1]) / hy
            grad[:, nodes.index(nd)] += sign * np.column_stack([sx / hx * fy, fx * sy / hy])
    return np.array(nodes), 0.5 * gw * length, length, axis, grad


def _ghost_reference(grid, cfg, par, dt, theta, C, widened):
    n = grid.n_nodes
    sigma = 1.0 / (theta * dt)
    h = grid.elem_diameter()
    rho, nu = par.density, par.kinematic_viscosity
    Kc, Kd, Kp = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n)), np.zeros((n, n))
    for el, er, na, nb in cfg.ghost_facets(widened=widened):
        nodes, w, length, axis, grad = _facet_reference(grid, el, er, na, nb)
        cinf = [np.abs(C.reshape(n, 2)[grid.elem_nodes(e)]).max() for e in (el, er)]
        phi = [nu + 1.0 * c * h + 1.0 * sigma * h**2 for c in cinf]
        phi_c = 0.5 * sum(h**2 / p for p in phi)
        Mn = np.einsum("q,qa,qb->ab", w, grad[..., axis], grad[..., axis])
        div = grad.reshape(len(w), -1)
        Md = np.einsum("q,qa,qb->ab", w, div, div)
        for comp in (0, 1):
            dofs = 2 * nodes + comp
            Kc[np.ix_(dofs, dofs)] += (
                par.gamma_conv * rho * (nu + phi_c * max(cinf) ** 2 + sigma * length**2)
                * length * Mn
            )
        udofs = (2 * nodes[:, None] + np.arange(2)).ravel()
        Kd[np.ix_(udofs, udofs)] += par.gamma_div * 0.5 * sum(phi) * rho * length * Md
        Kp[np.ix_(nodes, nodes)] += par.gamma_press * phi_c / rho * length * Mn
    return Kc, Kd, Kp


@pytest.mark.parametrize("widened", [False, True])
def test_ghost_penalties_match_per_facet_reference(widened):
    cfg = build_cut_configuration(FACET_GRID, FACET_SOLID)
    facets = np.array(cfg.ghost_facets(widened=widened))
    vertical = facets[:, 3] - facets[:, 2] != 1
    assert vertical.any() and not vertical.all()
    par = FluidParams(density=1.3, viscosity=0.02, gamma_conv=0.04, gamma_div=0.06, gamma_press=0.08)
    C = np.random.default_rng(4).standard_normal(2 * FACET_GRID.n_nodes)
    got = map(coo, assemble_ghost_penalties(cfg, par, 0.05, 0.7, C, widened=widened))
    want = _ghost_reference(FACET_GRID, cfg, par, 0.05, 0.7, C, widened)
    for K, ref in zip(got, want):
        assert np.abs(K.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("widened", [False, True])
def test_extension_matrix_matches_per_facet_reference(widened):
    cfg = build_cut_configuration(FACET_GRID, FACET_SOLID)
    n = FACET_GRID.n_nodes
    want = np.zeros((n, n))
    for el, er, na, nb in cfg.ghost_facets(widened=widened):
        nodes, w, length, axis, grad = _facet_reference(FACET_GRID, el, er, na, nb)
        dn = grad[..., axis]
        want[np.ix_(nodes, nodes)] += length**3 * np.einsum("q,qa,qb->ab", w, dn, dn)
    got = projection._extension_matrix(cfg, widened).toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_facet_operators_evaluate_the_basis_once_per_call(monkeypatch):
    # the jump tables are built per facet orientation, not per facet
    calls = []

    def counting(*args):
        calls.append(1)
        return basis_tables(*args)

    monkeypatch.setattr(fluid, "basis_tables", counting)
    small = np.array([[0.83, 0.07], [1.12, 0.07], [1.12, 0.31], [0.83, 0.31]])
    counts, n_facets = [], []
    for solid in (small, FACET_SOLID):
        cfg = build_cut_configuration(FACET_GRID, solid)
        n_facets.append(len(cfg.ghost_facets(widened=True)))
        calls.clear()
        assemble_ghost_penalties(
            cfg, PAR, 0.1, 1.0, np.zeros(2 * FACET_GRID.n_nodes), widened=True
        )
        projection._extension_matrix(cfg, True)
        counts.append(len(calls))
    assert n_facets[0] < n_facets[1]
    assert counts == [2, 2]
