"""Interface coupling operators: exactness, balance, and oracle checks."""

import inspect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfsi import fluid
from cutfsi.coupling import (
    NitscheParams,
    assemble_ff_coupling,
    assemble_fs_coupling,
    interface_jump_norms,
)
from cutfsi.cutting import build_cut_configuration
from cutfsi.driver import patch_boundary_loop
from cutfsi.fluid import FluidParams, basis_tables
from cutfsi.meshes import StructuredGrid
from coo_reference import coo

PARAMS = FluidParams(density=1.2, viscosity=0.03)
THETA_IFACE = 0.8
DT = 0.05
SIGMA = 23.7


def _fs_setup():
    grid = StructuredGrid((0.0, 0.0), (0.3, 0.25), (4, 4))
    square = np.array([[0.37, 0.33], [0.83, 0.41], [0.79, 0.77], [0.41, 0.69]])
    cfg = build_cut_configuration(grid, square)
    loop_nodes = np.arange(4)
    n_solid = 6  # two bulk nodes that never touch the interface
    return grid, cfg, loop_nodes, n_solid


def _fs_assemble(grid, cfg, loop_nodes, U, P, C, us, nitsche, tangent=True):
    return assemble_fs_coupling(
        grid, cfg, PARAMS, nitsche, U, P, C, loop_nodes, us,
        THETA_IFACE, DT, SIGMA, tangent=tangent,
    )


class TestFluidSolidCoupling:
    def test_jacobian_reproduces_exact_difference(self):
        # The operator is linear in (U, P, u_s) at frozen geometry and
        # advection, so the assembled blocks must reproduce finite state
        # differences to round-off, including the displacement columns
        # through the interface velocity scale.
        grid, cfg, loop_nodes, n_solid = _fs_setup()
        rng = np.random.default_rng(3)
        n = grid.n_nodes
        U, dU = rng.normal(size=(2, 2 * n))
        P, dP = rng.normal(size=(2, n))
        C = rng.normal(size=2 * n)
        us = rng.normal(size=2 * n_solid)
        dd = rng.normal(size=2 * n_solid)
        vel_scale = 1.0 / (THETA_IFACE * DT)
        nit = NitscheParams(gamma=12.0)

        res0, jac = _fs_assemble(grid, cfg, loop_nodes, U, P, C, us, nit)
        res1, _ = _fs_assemble(
            grid, cfg, loop_nodes, U + dU, P + dP, C, us + vel_scale * dd, nit,
            tangent=False,
        )
        deltas = {"u": dU, "p": dP, "d": dd}
        for row in ("u", "p", "d"):
            predicted = np.zeros_like(res0[row])
            for col, delta in deltas.items():
                block = jac.get((row, col))
                if block is not None:
                    predicted += block.matvec(delta)
            actual = res1[row] - res0[row]
            scale = np.linalg.norm(actual) + 1.0
            assert np.allclose(actual, predicted, atol=1e-12 * scale), row

    def test_interface_force_balance(self):
        # Summing the velocity rows on either side applies a constant test
        # function; the adjoint rows then cancel elementwise and the fluid
        # force must equal minus the solid force to round-off.
        grid, cfg, loop_nodes, n_solid = _fs_setup()
        rng = np.random.default_rng(7)
        n = grid.n_nodes
        U = rng.normal(size=2 * n)
        P = rng.normal(size=n)
        C = rng.normal(size=2 * n)
        us = rng.normal(size=2 * n_solid)
        res, _ = _fs_assemble(
            grid, cfg, loop_nodes, U, P, C, us, NitscheParams(gamma=35.0),
            tangent=False,
        )
        f_fluid = np.array([res["u"][0::2].sum(), res["u"][1::2].sum()])
        f_solid = np.array([res["d"][0::2].sum(), res["d"][1::2].sum()])
        assert np.allclose(f_fluid + f_solid, 0.0, atol=1e-12)

    def test_zero_jump_leaves_only_consistency_terms(self):
        # Interpolate one linear velocity field on the grid and on the
        # interface chain: the jump vanishes at the quadrature points, so
        # penalty, adjoint, and mass rows drop and what remains is the
        # traction consistency, checked against a 3-point Gauss oracle
        # with an independent hat-product basis evaluation.
        grid, cfg, loop_nodes, n_solid = _fs_setup()
        A = np.array([[0.4, -1.1], [0.7, 0.2]])
        b = np.array([0.3, -0.5])
        cgrad = np.array([0.9, -0.4])

        xy = grid.node_coords()
        U = (xy @ A.T + b).ravel()
        P = xy @ cgrad + 0.25
        C = np.random.default_rng(11).normal(size=2 * grid.n_nodes)
        us = np.zeros(2 * n_solid)
        for k, node in enumerate(loop_nodes):
            us[2 * node : 2 * node + 2] = A @ cfg.loop[k] + b

        nit = NitscheParams(gamma=35.0)
        res, _ = _fs_assemble(grid, cfg, loop_nodes, U, P, C, us, nit, tangent=False)
        assert np.allclose(res["p"], 0.0, atol=1e-12)

        # Independent integration of -<(2 mu eps(u) - p I) n, v> and its
        # solid counterpart; eps is constant for the linear field.
        tr_base = PARAMS.viscosity * (A + A.T)
        xg, wg = np.polynomial.legendre.leggauss(3)
        ag = 0.5 * (xg + 1.0)
        hx, hy = grid.spacing
        ru_ref = np.zeros(2 * grid.n_nodes)
        rd_ref = np.zeros(2 * n_solid)
        s = cfg.segments
        for p0, p1, normal, elem, k, t0, t1 in zip(
            s.p0, s.p1, s.normal, s.elem, s.loop_index, s.t0, s.t1
        ):
            conn = grid.elem_nodes(elem)
            corners = grid.node_coords()[conn]
            tr = tr_base @ normal
            for a, w in zip(ag, 0.5 * wg * np.hypot(*(p1 - p0))):
                x = p0 + a * (p1 - p0)
                pval = x @ cgrad + 0.25
                force = tr - pval * normal
                hats = (1.0 - np.abs(x[0] - corners[:, 0]) / hx) * (
                    1.0 - np.abs(x[1] - corners[:, 1]) / hy
                )
                t = t0 + a * (t1 - t0)
                edge = [loop_nodes[k], loop_nodes[(k + 1) % 4]]
                for nd, hat in zip(conn, hats):
                    ru_ref[2 * nd : 2 * nd + 2] -= w * hat * force
                for nd, phi in zip(edge, (1.0 - t, t)):
                    rd_ref[2 * nd : 2 * nd + 2] += w * phi * force
        assert np.allclose(res["u"], ru_ref, atol=1e-12)
        assert np.allclose(res["d"], rd_ref, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.5, 80.0))
    def test_penalty_energy_nonnegative_and_symmetric(self, seed, gamma):
        # Doubling gamma isolates the penalty bilinear form: it must be
        # symmetric positive semidefinite in the velocity unknowns.
        grid, cfg, loop_nodes, n_solid = _fs_setup()
        rng = np.random.default_rng(seed)
        n = grid.n_nodes
        U = rng.normal(size=2 * n)
        C = rng.normal(size=2 * n)
        zeros_p = np.zeros(n)
        us = np.zeros(2 * n_solid)
        res1, jac1 = _fs_assemble(
            grid, cfg, loop_nodes, U, zeros_p, C, us, NitscheParams(gamma=gamma)
        )
        res2, jac2 = _fs_assemble(
            grid, cfg, loop_nodes, U, zeros_p, C, us, NitscheParams(gamma=2 * gamma)
        )
        energy = U @ (res2["u"] - res1["u"])
        assert energy >= -1e-12 * (1.0 + abs(energy))
        pen = (coo(jac2[("u", "u")]) - coo(jac1[("u", "u")])).toarray()
        assert np.allclose(pen, pen.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(pen)
        assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def _ff_setup():
    grid1 = StructuredGrid((0.0, 0.0), (0.15, 0.19), (7, 5))
    grid2 = StructuredGrid((0.31163, 0.2397), (0.113, 0.0971), (3, 4))
    corners = np.array(
        [
            grid2.origin,
            [grid2.origin[0] + 3 * 0.113, grid2.origin[1]],
            [grid2.origin[0] + 3 * 0.113, grid2.origin[1] + 4 * 0.0971],
            [grid2.origin[0], grid2.origin[1] + 4 * 0.0971],
        ]
    )
    cfg1 = build_cut_configuration(grid1, corners)
    return grid1, cfg1, grid2, corners


def _random_ff_state(grid1, grid2, seed):
    """(U1, U2, P2, C2); the second and fifth draws are unused, which keeps
    the states of each seed."""
    rng = np.random.default_rng(seed)
    n1, n2 = grid1.n_nodes, grid2.n_nodes
    U1, _, U2, P2, _, C2 = (rng.normal(size=k) for k in (2 * n1, n1, 2 * n2, n2, 2 * n1, 2 * n2))
    return U1, U2, P2, C2


def _hat_eval(grid, e, x):
    """Hat-product basis values and gradients, written independently."""
    conn = grid.elem_nodes(e)
    corners = grid.node_coords()[conn]
    hx, hy = grid.spacing
    fx = 1.0 - np.abs(x[0] - corners[:, 0]) / hx
    fy = 1.0 - np.abs(x[1] - corners[:, 1]) / hy
    dfx = -np.sign(x[0] - corners[:, 0]) / hx
    dfy = -np.sign(x[1] - corners[:, 1]) / hy
    dfx[x[0] == corners[:, 0]] = np.where(
        corners[x[0] == corners[:, 0], 0] > np.mean(corners[:, 0]), 1.0, -1.0
    ) / hx
    dfy[x[1] == corners[:, 1]] = np.where(
        corners[x[1] == corners[:, 1], 1] > np.mean(corners[:, 1]), 1.0, -1.0
    ) / hy
    N = fx * fy
    G = np.column_stack([dfx * fy, fx * dfy])
    return conn, N, G


def _ff_oracle(grid1, grid2, corners, params, nitsche, U1, U2, P2, C2, sigma):
    """Straightforward per-point evaluation of all coupling lines, with the
    interface flux and the penalty scalings taken from the embedded mesh."""
    mu, rho, nu = params.viscosity, params.density, params.kinematic_viscosity
    gamma = nitsche.gamma
    h2 = grid2.elem_diameter()
    res = {
        "u1": np.zeros(2 * grid1.n_nodes),
        "u2": np.zeros(2 * grid2.n_nodes),
        "p2": np.zeros(grid2.n_nodes),
    }
    U1v = U1.reshape(-1, 2)
    U2v = U2.reshape(-1, 2)
    C2v = C2.reshape(-1, 2)
    xg = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        d = b - a
        length = np.hypot(*d)
        nvec = np.array([-d[1], d[0]]) / length
        # Breakpoints where either mesh's grid lines cross the edge.
        ts = {0.0, 1.0}
        for grid in (grid1, grid2):
            for axis in (0, 1):
                if d[axis] == 0.0:
                    continue
                f0 = (a[axis] - grid.origin[axis]) / grid.spacing[axis]
                f1 = (b[axis] - grid.origin[axis]) / grid.spacing[axis]
                for line in range(int(np.ceil(min(f0, f1))), int(max(f0, f1)) + 1):
                    t = (line - f0) / (f1 - f0)
                    if 1e-12 < t < 1 - 1e-12:
                        ts.add(t)
        breaks = sorted(ts)
        for t0, t1 in zip(breaks[:-1], breaks[1:]):
            for gp in xg:
                t = t0 + gp * (t1 - t0)
                w = 0.5 * (t1 - t0) * length
                x = a + t * d
                e1 = grid1.locate(x)
                e2 = grid2.locate(x + 1e-9 * nvec)
                conn1, N1, _ = _hat_eval(grid1, e1, x)
                conn2, N2, G2 = _hat_eval(grid2, e2, x)
                u1 = N1 @ U1v[conn1]
                u2 = N2 @ U2v[conn2]
                p2 = N2 @ P2[conn2]
                gu2 = G2.T @ U2v[conn2]  # gu[i, j] = d u_j / d x_i
                j = u1 - u2
                jn = j @ nvec
                flux = mu * (gu2 + gu2.T).T @ nvec
                cmax2 = np.abs(C2v[conn2]).max()
                phi2 = nu + cmax2 * h2 + sigma * h2**2
                pen_v = 0.5 * gamma * mu * 12.0 / h2
                pen_n = 0.5 * gamma * rho * phi2 / h2
                m = 0.5 * rho * (u1 + u2) @ nvec

                for nd, Nv in zip(conn1, N1):
                    rows = slice(2 * nd, 2 * nd + 2)
                    res["u1"][rows] += w * Nv * (
                        -flux + p2 * nvec
                        + pen_v * j + pen_n * jn * nvec
                        + 0.5 * (m + abs(m)) * j
                    )
                for nd, Nv, Gv in zip(conn2, N2, G2):
                    rows = slice(2 * nd, 2 * nd + 2)
                    adj = mu * ((Gv @ j) * nvec + (Gv @ nvec) * j)
                    res["u2"][rows] += w * (
                        Nv * (flux - p2 * nvec)
                        + adj
                        - Nv * (pen_v * j + pen_n * jn * nvec)
                        + Nv * 0.5 * (m - abs(m)) * j
                    )
                    res["p2"][nd] += -w * Nv * jn
    return res


def _assert_matches_oracle(res, ref):
    assert set(res) == set(ref)
    for key in ref:
        scale = np.linalg.norm(ref[key]) + 1.0
        assert np.allclose(res[key], ref[key], atol=1e-11 * scale), key


class TestFluidFluidCoupling:
    def test_matches_independent_evaluation_generic_weights(self):
        # the oracle agrees at penalty weights other than the default
        grid1, cfg1, grid2, corners = _ff_setup()
        U1, U2, P2, C2 = _random_ff_state(grid1, grid2, 21)
        for gamma in (9.0, 0.7):
            nit = NitscheParams(gamma=gamma)
            res, _ = assemble_ff_coupling(
                grid1, cfg1, grid2, PARAMS, nit, U1, U2, P2, C2, SIGMA,
                tangent=False,
            )
            ref = _ff_oracle(grid1, grid2, corners, PARAMS, nit, U1, U2, P2, C2, SIGMA)
            _assert_matches_oracle(res, ref)

    def test_uncut_side_weighting_uses_embedded_flux_only(self):
        grid1, cfg1, grid2, corners = _ff_setup()
        U1, U2, P2, C2 = _random_ff_state(grid1, grid2, 22)
        nit = NitscheParams(gamma=9.0)
        res, _ = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, nit, U1, U2, P2, C2, SIGMA,
            tangent=False,
        )
        ref = _ff_oracle(grid1, grid2, corners, PARAMS, nit, U1, U2, P2, C2, SIGMA)
        _assert_matches_oracle(res, ref)
        # With the flux drawn from the embedded side alone, the background
        # pressure and advection field never enter: they are not parameters.
        params = inspect.signature(assemble_ff_coupling).parameters
        assert "P1" not in params and "C1_frozen" not in params

    def test_returns_no_all_zero_block(self):
        grid1, cfg1, grid2, _ = _ff_setup()
        state = _random_ff_state(grid1, grid2, 24)
        res, jac = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, NitscheParams(gamma=9.0), *state, SIGMA
        )
        assert "p1" not in res
        for key, block in jac.items():
            assert np.any(block.vals != 0.0), key

    def test_shared_linear_field_leaves_cancelling_consistency(self):
        grid1, cfg1, grid2, corners = _ff_setup()
        A = np.array([[0.3, 0.8], [-0.6, 0.5]])
        b = np.array([0.1, 0.9])
        U1 = (grid1.node_coords() @ A.T + b).ravel()
        U2 = (grid2.node_coords() @ A.T + b).ravel()
        P2 = grid2.node_coords() @ np.array([0.4, -0.2]) + 1.0
        C2 = np.zeros(2 * grid2.n_nodes)
        res, _ = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, NitscheParams(gamma=20.0),
            U1, U2, P2, C2, SIGMA, tangent=False,
        )
        # Zero jump: pressure rows vanish and the two velocity residuals
        # carry equal and opposite total interface forces.
        assert np.allclose(res["p2"], 0.0, atol=1e-12)
        f1 = np.array([res["u1"][0::2].sum(), res["u1"][1::2].sum()])
        f2 = np.array([res["u2"][0::2].sum(), res["u2"][1::2].sum()])
        assert np.allclose(f1 + f2, 0.0, atol=1e-12)
        assert np.linalg.norm(f1) > 1e-3  # the consistency flux itself is alive

    def test_jacobian_matches_central_differences(self):
        grid1, cfg1, grid2, corners = _ff_setup()
        U1, U2, P2, C2 = _random_ff_state(grid1, grid2, 40)
        nit = NitscheParams(gamma=9.0)
        _, jac = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, nit, U1, U2, P2, C2, SIGMA
        )
        rng = np.random.default_rng(41)
        delta = {
            "u1": rng.normal(size=2 * grid1.n_nodes),
            "u2": rng.normal(size=2 * grid2.n_nodes),
            "p2": rng.normal(size=grid2.n_nodes),
        }
        eps = 1e-5

        def residual(scale):
            res, _ = assemble_ff_coupling(
                grid1, cfg1, grid2, PARAMS, nit,
                U1 + scale * delta["u1"], U2 + scale * delta["u2"],
                P2 + scale * delta["p2"], C2, SIGMA, tangent=False,
            )
            return res

        plus, minus = residual(eps), residual(-eps)
        for row in ("u1", "u2", "p2"):
            fd = (plus[row] - minus[row]) / (2 * eps)
            predicted = np.zeros_like(fd)
            for col, dvec in delta.items():
                block = jac.get((row, col))
                if block is not None:
                    predicted += block.matvec(dvec)
            scale = np.linalg.norm(fd) + 1.0
            assert np.allclose(fd, predicted, atol=2e-9 * scale), row

    def test_jump_norms_on_constant_fields(self):
        grid1, cfg1, grid2, corners = _ff_setup()
        U1 = np.tile([1.0, 0.0], grid1.n_nodes)
        U2 = np.zeros(2 * grid2.n_nodes)
        out = interface_jump_norms(grid1, cfg1, grid2, U1, U2)
        perimeter = 2 * (3 * 0.113 + 4 * 0.0971)
        assert np.isclose(out["length"], perimeter, atol=1e-12)
        assert np.isclose(out["jump_l2"], np.sqrt(perimeter), atol=1e-12)
        # The same constant jump integrated against a closed loop's normal
        # sums to zero mass defect.
        assert np.isclose(out["mass_defect"], 0.0, atol=1e-12)
        same = interface_jump_norms(grid1, cfg1, grid2, U1, np.tile([1.0, 0.0], grid2.n_nodes))
        assert same["jump_l2"] < 1e-13


class TestBatchedRule:
    def test_fs_residual_is_independent_of_the_tangent_flag(self):
        # the force-balance suite compares stored and recomputed interface
        # forces bitwise
        grid, cfg, loop_nodes, n_solid = _fs_setup()
        rng = np.random.default_rng(13)
        n = grid.n_nodes
        args = (
            rng.normal(size=2 * n), rng.normal(size=n), rng.normal(size=2 * n),
            rng.normal(size=2 * n_solid), NitscheParams(gamma=17.0),
        )
        with_tangent, _ = _fs_assemble(grid, cfg, loop_nodes, *args)
        without, jac = _fs_assemble(grid, cfg, loop_nodes, *args, tangent=False)
        assert jac is None
        for key in ("u", "p", "d"):
            assert np.array_equal(with_tangent[key], without[key]), key

    def test_ff_residual_is_independent_of_the_tangent_flag(self):
        grid1, cfg1, grid2, _ = _ff_setup()
        state = _random_ff_state(grid1, grid2, 14)
        nit = NitscheParams(gamma=9.0)
        with_tangent, _ = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, nit, *state, SIGMA
        )
        without, jac = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, nit, *state, SIGMA, tangent=False
        )
        assert jac is None
        for key in ("u1", "u2", "p2"):
            assert np.array_equal(with_tangent[key], without[key]), key

    def test_ff_background_segments_through_patch_nodes(self):
        # background lines x = 0.5 and y = 0.5 pass exactly through patch
        # nodes (all coordinates are dyadic), so background segments start,
        # end and split at patch nodes
        grid1 = StructuredGrid((0.0, 0.0), (0.25, 0.25), (6, 5))
        grid2 = StructuredGrid((0.3125, 0.1875), (0.1875, 0.15625), (4, 4))
        corners = np.array([[0.3125, 0.1875], [1.0625, 0.1875], [1.0625, 0.8125], [0.3125, 0.8125]])
        cfg1 = build_cut_configuration(grid1, corners)
        patch_nodes = {tuple(p) for p in grid2.node_coords()}
        ends = [tuple(p) for p in np.concatenate([cfg1.segments.p0, cfg1.segments.p1])]
        assert (0.5, 0.1875) in ends and (0.3125, 0.5) in ends
        assert all(p in patch_nodes for p in [(0.5, 0.1875), (0.3125, 0.5)])

        U1, U2, P2, C2 = _random_ff_state(grid1, grid2, 23)
        nit = NitscheParams(gamma=9.0)
        res, _ = assemble_ff_coupling(
            grid1, cfg1, grid2, PARAMS, nit, U1, U2, P2, C2, SIGMA,
            tangent=False,
        )
        ref = _ff_oracle(grid1, grid2, corners, PARAMS, nit, U1, U2, P2, C2, SIGMA)
        _assert_matches_oracle(res, ref)
        out = interface_jump_norms(grid1, cfg1, grid2, U1, U2)
        assert np.isclose(out["length"], 2 * (0.75 + 0.625), atol=1e-12)

    def test_basis_evaluations_do_not_scale_with_the_segment_count(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return basis_tables(*args)

        monkeypatch.setattr(fluid, "basis_tables", counting)
        grid = StructuredGrid((0.0, 0.0), (0.1, 0.1), (12, 12))
        counts, n_segments = [], []
        for half in (0.12, 0.37):
            loop = 0.6 + half * np.array([[-1.0, -0.9], [1.0, -0.8], [0.9, 1.0], [-0.8, 0.9]])
            cfg = build_cut_configuration(grid, loop)
            n_segments.append(len(cfg.segments))
            n = grid.n_nodes
            zeros = np.zeros(2 * n)
            calls.clear()
            assemble_fs_coupling(
                grid, cfg, PARAMS, NitscheParams(), zeros, np.zeros(n), zeros,
                np.arange(4), np.zeros(8), THETA_IFACE, DT, SIGMA,
            )
            counts.append(len(calls))
        assert n_segments[0] < n_segments[1] and counts == [1, 1]

        grid1 = StructuredGrid((0.0, 0.0), (0.1, 0.1), (12, 12))
        counts, n_segments = [], []
        for cells in (2, 6):
            grid2 = StructuredGrid((0.23, 0.27), (0.09, 0.08), (cells, cells))
            cfg1 = build_cut_configuration(grid1, patch_boundary_loop(grid2))
            n_segments.append(len(cfg1.segments))
            state = _random_ff_state(grid1, grid2, 5)
            calls.clear()
            assemble_ff_coupling(grid1, cfg1, grid2, PARAMS, NitscheParams(), *state, SIGMA)
            interface_jump_norms(grid1, cfg1, grid2, state[0], state[1])
            counts.append(len(calls))
        # one rule per configuration: the jump norms reuse the coupling's
        assert n_segments[0] < n_segments[1] and counts == [2, 2]
