"""Monolithic time stepping: coupled assembly, Newton iteration, space-change
cycles, restart files, and the two-mesh overlapping flow solver."""

import ast
import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cutfsi.driver as driver_module
from cutfsi.coupling import (
    NitscheParams,
    assemble_fs_coupling,
    interface_jump_norms,
)
from cutfsi.cutting import CutConfiguration, NodeRole, build_cut_configuration
from cutfsi.driver import (
    CYCLE_MESSAGE,
    NEWTON_MESSAGE,
    DriverConfig,
    FluidProblem,
    FsiDriver,
    FsiProblem,
    FunctionSpaceCycleError,
    IterationRecord,
    NewtonError,
    SolidProblem,
    StepHistory,
    VelocityDirichlet,
    _fluid_fixed_masks,
    _solved,
    assemble_coupled_system,
    fluid_acceleration_update,
    interface_velocity,
    load_checkpoint,
    save_checkpoint,
    solve_overlapping_fluid,
)
from cutfsi.fluid import FluidParams, assemble_navier_stokes, basis_tables, volume_batches
from cutfsi.linalg import LU, AssemblyPlan, BlockSystem, LinearSolveError, LocalBlocks
from cutfsi.meshes import StructuredGrid, rectangle_fitted_mesh
from cutfsi.solid import (
    GenAlphaParams,
    NeoHookeanMaterial,
    SolidInversionError,
    SolidModel,
    SolidState,
    genalpha_displacement_residual,
)
from coo_reference import raw_matrix, solved_matrix

GAMMA = NitscheParams(gamma=35.0)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _shear(alpha):
    def field(pts, t):
        out = np.zeros((len(pts), 2))
        out[:, 0] = alpha * pts[:, 1]
        return out

    return field


def _parabolic_ramp(umax, height, ramp=1.0):
    """Inflow profile that grows smoothly from rest over `ramp` time units."""

    def field(pts, t):
        r = 0.5 * (1.0 - np.cos(np.pi * min(t / ramp, 1.0)))
        out = np.zeros((len(pts), 2))
        out[:, 0] = r * umax * pts[:, 1] * (height - pts[:, 1]) / (height / 2.0) ** 2
        return out

    return field


def _channel_with_flap(young, umax, *, density_s=5.0, viscosity=0.01):
    """Channel flow over a clamped elastic flap reaching mid-height."""
    grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (10, 5))
    mesh = rectangle_fitted_mesh(0.9, 0.0, 0.2, 0.66, 2, 4, tags={"bottom": "clamped"})
    model = SolidModel(mesh, NeoHookeanMaterial(young=young, poisson=0.3), density=density_s)
    fluid = FluidProblem(
        grid,
        FluidParams(density=1.0, viscosity=viscosity),
        dirichlet=[
            VelocityDirichlet("left", _parabolic_ramp(umax, 1.0)),
            VelocityDirichlet("bottom"),
            VelocityDirichlet("top"),
        ],
    )
    return FsiProblem(fluid, SolidProblem(model))


def _gentle_flap_problem(root=1.1):
    """Mild flow over a stiff flap: no function-space changes occur. With
    the root off 1.1 no flap node sits on a grid line, and the cut keeps
    its structure for several steps."""
    grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (12, 6))
    mesh = rectangle_fitted_mesh(root, 0.0, 0.2, 0.7, 2, 6, tags={"bottom": "clamped"})
    model = SolidModel(mesh, NeoHookeanMaterial(young=300.0, poisson=0.3), density=50.0)
    fluid = FluidProblem(
        grid,
        FluidParams(density=1.0, viscosity=0.02),
        dirichlet=[
            VelocityDirichlet("left", _parabolic_ramp(1.0, 1.2)),
            VelocityDirichlet("bottom"),
            VelocityDirichlet("top"),
        ],
    )
    return FsiProblem(fluid, SolidProblem(model))


def _overlap_shear(patch_force=None):
    """Background grid with the linear shear on its walls and an embedded
    patch, optionally under a constant body force."""
    background = FluidProblem(
        StructuredGrid((0.0, 0.0), (0.2, 0.2), (10, 8)),
        FluidParams(density=1.0, viscosity=0.1),
        dirichlet=[
            VelocityDirichlet(s, _shear(1.0))
            for s in ("left", "right", "bottom", "top")
        ],
        pin_pressure=True,
    )
    patch = FluidProblem(
        StructuredGrid((0.55, 0.35), (0.3, 0.3), (3, 3)),
        FluidParams(density=1.0, viscosity=0.1),
        body_force=patch_force,
    )
    return background, patch


def _history_at_rest(problem, config):
    driver = FsiDriver(problem, config)
    return driver.history(driver.initial_state())


def _rest_history(model, n_nodes):
    """Hand-built history of a step from rest, the oracle of
    `FsiDriver.history`."""
    nd = model.n_dofs
    return StepHistory(
        U_tilde=np.zeros(2 * n_nodes),
        P_tilde=np.zeros(n_nodes),
        A_tilde=np.zeros(2 * n_nodes),
        solid_prev=SolidState(np.zeros(nd), np.zeros(nd), np.zeros(nd)),
        u_iface_prev=np.zeros(nd),
        f_iface_prev=np.zeros(nd),
        f_int_old=model.internal_force(np.zeros(nd), tangent=False)[0],
    )


class TestInterfaceKinematics:
    def test_backward_difference_velocity(self):
        d_now = np.array([0.3, -0.1])
        d_prev = np.array([0.1, 0.1])
        u = interface_velocity(d_now, d_prev, np.zeros(2), 1.0, 0.05)
        assert np.allclose(u, (d_now - d_prev) / 0.05)

    def test_equal_displacements_give_zero_velocity(self):
        d = np.array([0.2, 0.4, -0.3])
        u_prev = np.array([1.0, -2.0, 0.5])
        u = interface_velocity(d, d, np.zeros(3), 0.5, 0.1)
        assert np.array_equal(u, np.zeros(3))
        # previous velocity enters with weight -(1 - theta)/theta = -1 here
        u2 = interface_velocity(d, d, u_prev, 0.5, 0.1)
        assert np.allclose(u2, -u_prev)

    def test_midpoint_rule_doubles_increment_velocity(self):
        # theta = 1/2, zero previous velocity, unit displacement step over a
        # unit time step: u = 2 * (d - d_prev) = 2.
        u = interface_velocity(np.array([1.0]), np.array([0.0]), np.zeros(1), 0.5, 1.0)
        assert np.allclose(u, [2.0])

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            interface_velocity(np.zeros(2), np.zeros(2), np.zeros(2), 0.0, 0.1)

    @given(theta=st.floats(0.05, 1.0), dt=st.floats(1e-3, 10.0), u=finite,
           u_prev=finite, d_prev=finite)
    @settings(max_examples=50, deadline=None)
    def test_velocity_update_inverts_trapezoid_reconstruction(
        self, theta, dt, u, u_prev, d_prev
    ):
        # Reconstruct the displacement the trapezoid rule would produce from
        # (u, u_prev) and check the update recovers the interface velocity.
        d_now = d_prev + dt * (theta * u + (1.0 - theta) * u_prev)
        got = interface_velocity(
            np.array([d_now]), np.array([d_prev]), np.array([u_prev]), theta, dt
        )
        assert got[0] == pytest.approx(u, rel=1e-9, abs=1e-9)

    def test_backward_difference_acceleration(self):
        u_now = np.array([0.4, 0.0])
        u_prev = np.array([0.1, 0.2])
        a = fluid_acceleration_update(u_now, u_prev, np.array([9.0, 9.0]), 1.0, 0.1)
        assert np.allclose(a, (u_now - u_prev) / 0.1)

    def test_constant_velocity_zero_acceleration(self):
        u = np.array([0.7, -0.2])
        a = fluid_acceleration_update(u, u, np.zeros(2), 0.5, 0.25)
        assert np.array_equal(a, np.zeros(2))

    def test_midpoint_acceleration_doubles_difference(self):
        # theta = 1/2, unit velocity jump over a unit step with zero history.
        a = fluid_acceleration_update(np.array([1.0]), np.array([0.0]), np.zeros(1), 0.5, 1.0)
        assert np.allclose(a, [2.0])

    @given(theta=st.floats(0.05, 1.0), dt=st.floats(1e-3, 10.0), a=finite,
           a_prev=finite, u_prev=finite)
    @settings(max_examples=50, deadline=None)
    def test_acceleration_update_inverts_trapezoid_reconstruction(
        self, theta, dt, a, a_prev, u_prev
    ):
        u_now = u_prev + dt * (theta * a + (1.0 - theta) * a_prev)
        got = fluid_acceleration_update(
            np.array([u_now]), np.array([u_prev]), np.array([a_prev]), theta, dt
        )
        assert got[0] == pytest.approx(a, rel=1e-9, abs=1e-9)


class TestDriverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"dt": float("nan")},
            {"n_steps": -1},
            {"theta": 0.0},
            {"theta": 1.5},
            {"theta_interface": 0.0},
            {"rho_inf": -0.1},
            {"rho_inf": 1.5},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"max_newton": 0},
            {"max_cycles": 0},
            {"predictor": "extrapolate-cubic"},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = {"dt": 0.1, "n_steps": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            DriverConfig(**base)

    def test_generalized_alpha_from_unit_spectral_radius(self):
        ga = DriverConfig(dt=0.1, n_steps=1, rho_inf=1.0).genalpha
        assert ga.alpha_f == pytest.approx(0.5)
        assert ga.alpha_m == pytest.approx(0.5)
        assert ga.gamma == pytest.approx(0.5)
        assert ga.beta == pytest.approx(0.25)


class TestCoupledAssembly:
    def test_distant_solid_decouples_blocks(self):
        # The flap sits entirely outside the background grid, so there is no
        # interface: the coupled system must degenerate into the two
        # independent subproblems with no off-diagonal blocks.
        grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (12, 6))
        mesh = rectangle_fitted_mesh(3.0, 0.0, 0.2, 0.6, 1, 2, tags={"bottom": "clamped"})
        model = SolidModel(mesh, NeoHookeanMaterial(young=80.0, poisson=0.3), density=2.0)
        problem = FsiProblem(
            FluidProblem(grid, FluidParams(density=1.0, viscosity=0.05)),
            SolidProblem(model),
        )
        config = DriverConfig(dt=0.1, n_steps=1)
        solid = problem.solid
        cfg = build_cut_configuration(grid, mesh.nodes[solid.loop_nodes], solid.wet_mask)
        assert len(cfg.segments) == 0

        rng = np.random.default_rng(7)
        n = grid.n_nodes
        U = 0.1 * rng.standard_normal(2 * n)
        P = 0.1 * rng.standard_normal(n)
        D = 0.002 * rng.standard_normal(model.n_dofs)
        history = _history_at_rest(problem, config)
        asm = assemble_coupled_system(
            problem, config, cfg, U, P, D, history, time=0.1, theta=1.0
        )

        present = {(r, c) for r, c, _ in asm.system.terms}
        for key in (("u", "d"), ("p", "d"), ("d", "u"), ("d", "p")):
            assert key not in present
        assert np.array_equal(asm.coupling_force, np.zeros(model.n_dofs))

        blocks = asm.system.split(asm.system.residual)
        Ru, Rp, *_ = assemble_navier_stokes(
            cfg, problem.fluid.params, 0.1, 1.0, U, P,
            history.U_tilde, history.A_tilde, U,
        )
        # no cut elements -> the ghost-penalty contribution vanishes
        assert np.array_equal(blocks["u"], Ru)
        assert np.array_equal(blocks["p"], Rp)

        ga = GenAlphaParams(1.0)
        mass = model.mass_matrix()
        f_int = model.internal_force(D, tangent=False)[0]
        R_s = genalpha_displacement_residual(
            D, history.solid_prev, 0.1, ga, mass.matvec,
            f_int, history.f_int_old, 0.0,
        )
        scale = 1.0 / (1.0 - ga.alpha_f)
        assert np.allclose(blocks["d"], scale * R_s, rtol=1e-14, atol=0.0)

    def test_identity_constraint_masks_structurally(self):
        # a stored 0.0 in a free row and column survives; fixed rows and
        # columns keep only their unit diagonal
        rows = np.array([0, 0, 0, 1, 1, 2, 2])
        cols = np.array([0, 1, 2, 1, 2, 0, 2])
        vals = np.array([2.0, 0.0, 5.0, 7.0, 4.0, 1.0, 3.0])
        system = BlockSystem({"x": 3})
        system.add("x", "x", LocalBlocks((3, 3), rows[:, None], cols[:, None], vals[:, None, None]))
        system.set_residual("x", [1.0, 2.0, 3.0])
        fixed = np.array([False, False, True])
        asm = _solved(system, fixed, None, np.zeros(0))
        M, r = asm.matrix.tocoo(), asm.residual
        entries = dict(zip(zip(M.row.tolist(), M.col.tolist()), M.data.tolist()))
        assert entries == {(0, 0): 2.0, (0, 1): 0.0, (1, 1): 7.0, (2, 2): 1.0}
        assert r.tolist() == [1.0, 2.0, 0.0]

    def test_dirichlet_rows_are_identity_rows(self):
        problem = _gentle_flap_problem()
        solid = problem.solid
        grid = problem.fluid.grid
        problem.fluid.pin_pressure = True
        config = DriverConfig(dt=0.1, n_steps=1, nitsche=GAMMA)
        cfg = build_cut_configuration(
            grid, solid.model.mesh.nodes[solid.loop_nodes], solid.wet_mask
        )
        rng = np.random.default_rng(11)
        n = grid.n_nodes
        U = 0.1 * rng.standard_normal(2 * n)
        P = 0.1 * rng.standard_normal(n)
        D = 0.001 * rng.standard_normal(solid.model.n_dofs)
        history = _history_at_rest(problem, config)
        asm = assemble_coupled_system(
            problem, config, cfg, U, P, D, history, time=0.1, theta=1.0
        )
        # the constrained unknowns: inactive and Dirichlet fluid dofs, the
        # pinned pressure and the clamped solid dofs
        fix_u, fix_p = _fluid_fixed_masks(problem.fluid, cfg)
        fix_d = np.zeros(solid.model.n_dofs, dtype=bool)
        fix_d[solid.model.clamped_dofs()] = True
        fixed = np.concatenate([fix_u, fix_p, fix_d])
        assert fixed.any()
        csr = asm.matrix.tocsr()
        for row in np.flatnonzero(fixed):
            cols = csr.indices[csr.indptr[row]:csr.indptr[row + 1]]
            vals = csr.data[csr.indptr[row]:csr.indptr[row + 1]]
            keep = vals != 0.0
            assert np.array_equal(cols[keep], [row])
            assert np.array_equal(vals[keep], [1.0])
            assert asm.residual[row] == 0.0
        # columns of constrained unknowns are eliminated symmetrically
        csc = asm.matrix.tocsc()
        for col in np.flatnonzero(fixed):
            rows = csc.indices[csc.indptr[col]:csc.indptr[col + 1]]
            vals = csc.data[csc.indptr[col]:csc.indptr[col + 1]]
            keep = vals != 0.0
            assert np.array_equal(rows[keep], [col])

    def test_hydrostatic_state_is_discrete_equilibrium(self):
        # Enclosed box of heavy fluid at rest around a rigid block: the
        # linear pressure column balances gravity exactly, so the assembled
        # residual vanishes at the analytic state.
        grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (8, 8))
        mesh = rectangle_fitted_mesh(0.8, 0.8, 0.45, 0.45, 2, 2)
        model = SolidModel(mesh, NeoHookeanMaterial(young=100.0, poisson=0.3), density=2.0)
        g = 9.81
        rho = 1.3
        fluid = FluidProblem(
            grid,
            FluidParams(density=rho, viscosity=0.05),
            dirichlet=[VelocityDirichlet(s) for s in ("left", "right", "bottom", "top")],
            body_force=(0.0, -g),
            pin_pressure=True,
        )
        problem = FsiProblem(fluid, SolidProblem(model, rigid=True))
        config = DriverConfig(dt=1.0, n_steps=1, nitsche=GAMMA)
        solid = problem.solid
        cfg = build_cut_configuration(grid, mesh.nodes[solid.loop_nodes], solid.wet_mask)

        pts = grid.node_coords()
        pin = int(cfg.active_nodes[0])
        p_exact = rho * g * (pts[pin, 1] - pts[:, 1])
        p_exact[cfg.node_role == NodeRole.INACTIVE] = 0.0
        history = _history_at_rest(problem, config)
        history.P_tilde = p_exact.copy()
        asm = assemble_coupled_system(
            problem, config, cfg, np.zeros(2 * grid.n_nodes), p_exact,
            np.zeros(model.n_dofs), history, time=1.0, theta=1.0,
        )
        assert np.abs(asm.residual).max() < 1e-10

        # and the driver finds that state from rest in two iterations
        driver = FsiDriver(problem, config)
        state, report = driver.step(driver.initial_state())
        assert [n.iterations for n in report.newton] == [2]
        assert report.space_changes == 0
        assert np.abs(state.U).max() < 1e-12
        assert np.abs(state.P - p_exact).max() < 1e-10
        assert np.array_equal(state.solid.d, np.zeros(model.n_dofs))

    def test_consistent_jacobian_matches_finite_differences(self):
        # Small coupled configuration with a wetted flap; the advection field
        # is frozen so the assembled Jacobian must be the exact derivative of
        # the block residual.
        grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (6, 4))
        mesh = rectangle_fitted_mesh(0.5, 0.0, 0.2, 0.5, 1, 2, tags={"bottom": "clamped"})
        model = SolidModel(mesh, NeoHookeanMaterial(young=90.0, poisson=0.35), density=3.0)
        problem = FsiProblem(
            FluidProblem(grid, FluidParams(density=1.0, viscosity=0.04)),
            SolidProblem(model),
        )
        config = DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA)
        solid = problem.solid
        cfg = build_cut_configuration(grid, mesh.nodes[solid.loop_nodes], solid.wet_mask)
        assert len(cfg.segments) > 0

        rng = np.random.default_rng(3)
        n = grid.n_nodes
        nd = model.n_dofs
        U0 = 0.1 * rng.standard_normal(2 * n)
        P0 = 0.1 * rng.standard_normal(n)
        D0 = 0.002 * rng.standard_normal(nd)
        advection = 0.1 * rng.standard_normal(2 * n)
        history = _history_at_rest(problem, config)
        history.f_iface_prev = 0.01 * rng.standard_normal(nd)

        def raw(U, P, D):
            asm = assemble_coupled_system(
                problem, config, cfg, U, P, D, history,
                time=0.05, theta=1.0, advection=advection,
            )
            return asm.system.residual.copy(), asm.system.assemble()

        r0, J = raw(U0, P0, D0)
        J = J.toarray()
        x0 = np.concatenate([U0, P0, D0])
        eps = 1e-6
        fd = np.zeros_like(J)
        for k in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += eps
            xm[k] -= eps
            rp, _ = raw(xp[: 2 * n], xp[2 * n : 3 * n], xp[3 * n :])
            rm, _ = raw(xm[: 2 * n], xm[2 * n : 3 * n], xm[3 * n :])
            fd[:, k] = (rp - rm) / (2.0 * eps)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(fd - J).max() / scale < 1e-6


class TestNewtonLoop:
    def _shear_problem(self, density):
        grid = StructuredGrid((0.0, 0.0), (0.25, 0.2), (8, 10))
        fluid = FluidProblem(
            grid,
            FluidParams(density=density, viscosity=0.1),
            dirichlet=[
                VelocityDirichlet(s, _shear(1.0))
                for s in ("left", "right", "bottom", "top")
            ],
            pin_pressure=True,
        )
        return FsiProblem(fluid, None)

    @staticmethod
    def _step_from_rest(problem, config):
        driver = FsiDriver(problem, config)
        return driver.step(driver.initial_state())

    def test_vanishing_density_limit_converges_in_one_real_iteration(self):
        # With negligible density the flow problem is discretely linear, so
        # the first solve lands on the solution and the second iteration only
        # confirms it at roundoff level.
        problem = self._shear_problem(1e-10)
        problem.fluid.params = FluidParams(density=1e-10, viscosity=1.0)
        state, report = self._step_from_rest(problem, DriverConfig(dt=1e6, n_steps=1))
        (res,) = report.newton
        assert res.status == "converged"
        assert res.iterations == 2
        last = res.records[-1]
        for pair in list(last.residual.values()) + list(last.increment.values()):
            assert max(pair) < 1e-8
        exact = _shear(1.0)(problem.fluid.grid.node_coords(), 0.0).ravel()
        assert np.abs(state.U - exact).max() < 1e-9
        assert np.abs(state.P).max() < 1e-8

    def test_shear_flow_newton_path_contracts_monotonically(self):
        problem = self._shear_problem(1.0)
        state, report = self._step_from_rest(problem, DriverConfig(dt=1e9, n_steps=1))
        (res,) = report.newton
        assert res.status == "converged"
        assert res.iterations <= 8
        combined = [
            np.hypot(r.residual_abs["u"], r.residual_abs["p"]) for r in res.records
        ]
        assert all(b < a for a, b in zip(combined, combined[1:]))
        # near the root every accepted step contracts the residual strongly
        ratios = [b / a for a, b in zip(combined, combined[1:])]
        assert all(r < 0.5 for r in ratios)
        exact = _shear(1.0)(problem.fluid.grid.node_coords(), 0.0).ravel()
        assert np.abs(state.U - exact).max() < 1e-6

    def test_iteration_budget_exhaustion_message(self):
        problem = self._shear_problem(1.0)
        with pytest.raises(NewtonError) as err:
            self._step_from_rest(problem, DriverConfig(dt=1e9, n_steps=1, max_newton=1))
        assert str(err.value) == NEWTON_MESSAGE
        assert NEWTON_MESSAGE == "maximum number of Newton-Raphson iterations reached!"

    @staticmethod
    def _flap_newton_with_inversions(monkeypatch, inverted_trials):
        """The first step of the gentle flap from rest, with the
        admissibility check of the first `inverted_trials` structural
        updates reporting an inverted element; returns the step's one Newton
        attempt and the number of checks."""
        driver = FsiDriver(
            _gentle_flap_problem(), DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA)
        )
        rest = driver.initial_state()
        checks = []
        original = SolidModel.internal_force

        def internal_force(self, d, tangent=True):
            # the step's history takes the force at the rest displacement
            # once; only the checks of structural updates count
            if not tangent and d is not rest.solid.d:
                checks.append(d)
                if len(checks) <= inverted_trials:
                    raise SolidInversionError("forced inversion")
            return original(self, d, tangent=tangent)

        monkeypatch.setattr(SolidModel, "internal_force", internal_force)
        _, report = driver.step(rest)
        (result,) = report.newton
        return result, len(checks)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_inverting_increment_is_halved_until_admissible(self, monkeypatch, k):
        res, checks = self._flap_newton_with_inversions(monkeypatch, k)
        assert res.status == "converged"
        assert res.iterations == len(res.records) > 1
        assert res.records[0].step_scale == 0.5**k
        assert all(r.step_scale == 1.0 for r in res.records[1:])
        # one admissibility check per accepted update plus one per halving
        assert checks == len(res.records) - 1 + k

    def test_halving_budget_exhaustion_message(self, monkeypatch):
        with pytest.raises(SolidInversionError, match="after 8 increment halvings"):
            self._flap_newton_with_inversions(monkeypatch, 10**6)


def _log_solves(monkeypatch):
    """Log every Newton solve in call order: "new plan" or "factor" for each
    `driver.factor_solve` call, looked up at call time, by whether its plan
    differs from the previous factorisation's, and "refined" or "gave up"
    for each refinement on a kept LU, by whether it returned an increment."""
    log, plans = [], [None]
    factor_solve, refine = driver_module.factor_solve, LU.refine

    def factoring(A, b, **kw):
        log.append("factor" if kw["plan"] is plans[-1] else "new plan")
        plans.append(kw["plan"])
        return factor_solve(A, b, **kw)

    def refining(lu, A, b, **kw):
        x = refine(lu, A, b, **kw)
        log.append("gave up" if x is None else "refined")
        return x

    monkeypatch.setattr(driver_module, "factor_solve", factoring)
    monkeypatch.setattr(LU, "refine", refining)
    return log


def _assert_one_rule(log, iterations):
    """The `log` of one attempt solved `iterations` increments by the one
    rule: it factorises first, then factorises the same plan again only
    right after a refinement on the kept LU gave up."""
    assert log[0] == "new plan"
    assert all(log[i - 1] == "gave up" for i, kind in enumerate(log) if kind == "factor")
    assert log.count("new plan") + log.count("factor") + log.count("refined") == iterations


class TestLinearSolveHook:
    """Every Newton iteration solves through `driver.factor_solve`, looked
    up at call time, or by refinement on the LU of the attempt's last
    factorisation; a non-finite residual block is refused before any
    solve."""

    def test_every_fsi_newton_solve_is_intercepted(self, monkeypatch):
        problem = _gentle_flap_problem()
        driver = FsiDriver(problem, DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA))
        state = driver.initial_state()
        log = _log_solves(monkeypatch)
        _, report = driver.step(state)
        assert report.space_changes == 0
        iterations = sum(r.iterations for r in report.newton)
        assert iterations >= 2
        _assert_one_rule(log, iterations)
        # the re-cut after the first iteration moves the pieces to a new
        # plan; the converged iteration is refined on that plan's LU
        assert log == ["new plan", "new plan", "refined"]

    def test_every_overlap_newton_solve_is_intercepted(self, monkeypatch):
        log = _log_solves(monkeypatch)
        sol = solve_overlapping_fluid(*_overlap_shear(), GAMMA)
        assert sol.iterations >= 2
        _assert_one_rule(log, sol.iterations)

    def test_refinement_changes_no_count(self, monkeypatch):
        # refined increments are applied like factorised ones: with every
        # refinement giving up, each count is equal and the states agree
        # at round-off
        def run():
            problem = _gentle_flap_problem()
            driver = FsiDriver(problem, DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA))
            state, report = driver.step(driver.initial_state())
            sol = solve_overlapping_fluid(*_overlap_shear(), GAMMA)
            arrays = [state.U, state.P, state.A, state.solid.d, state.solid.v, state.solid.a,
                      state.u_iface, state.f_iface, state.d_space, sol.U1, sol.P1, sol.U2, sol.P2]
            counts = [(r.status, r.iterations) for r in report.newton] + [sol.iterations]
            return arrays, counts

        log = _log_solves(monkeypatch)
        default = run()
        assert log.count("refined") > 0
        monkeypatch.setattr(LU, "refine", lambda lu, A, b: None)
        factorised = run()
        assert factorised[1] == default[1]
        # the overlap pressures are round-off of an exact zero (about 1e-10)
        for got, want in zip(factorised[0], default[0]):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("field, block", [("U_tilde", "u"), ("f_iface", "d")])
    def test_non_finite_residual_block_is_named(self, monkeypatch, field, block):
        # the step moves the previous velocity onto its space as U_tilde;
        # the stored interface force enters the structural residual
        problem = _gentle_flap_problem()
        driver = FsiDriver(problem, DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA))
        state = driver.initial_state()
        if field == "f_iface":
            state.f_iface[-1] = np.nan  # a free displacement of the flap tip
        if field == "U_tilde":
            # one velocity entry of an active fluid node
            cfg = driver.configuration(state)
            state.U[2 * np.flatnonzero(cfg.node_role != NodeRole.INACTIVE)[0]] = np.nan
        log = _log_solves(monkeypatch)
        with pytest.raises(
            LinearSolveError,
            match=f"non-finite residual in block {block} at Newton iteration 1",
        ):
            driver.step(state)
        assert log == []

    def test_non_finite_patch_block_is_named(self, monkeypatch):
        log = _log_solves(monkeypatch)
        with pytest.raises(
            LinearSolveError, match="non-finite residual in block u2 at Newton iteration 1"
        ):
            solve_overlapping_fluid(*_overlap_shear((np.nan, 0.0)), GAMMA)
        assert log == []


class TestStepHistory:
    def test_history_of_a_fresh_state_is_the_rest_history(self):
        problem = _gentle_flap_problem()
        driver = FsiDriver(problem, DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA))
        got = driver.history(driver.initial_state())
        want = _rest_history(problem.solid.model, problem.fluid.grid.n_nodes)
        for f in dataclasses.fields(StepHistory):
            a, b = getattr(got, f.name), getattr(want, f.name)
            pairs = zip((a.d, a.v, a.a), (b.d, b.v, b.a)) if f.name == "solid_prev" else [(a, b)]
            for x, y in pairs:
                assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
                assert x.tobytes() == y.tobytes(), f.name

    def test_history_is_built_only_in_the_driver(self):
        built = []
        for path in sorted(Path(driver_module.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "StepHistory":
                    built.append(path.name)
        assert built == ["driver.py"]


class TestTimeLoop:
    def test_rest_state_stays_identically_zero(self):
        problem = _gentle_flap_problem()
        # remove the inflow: homogeneous walls, no forcing anywhere
        problem.fluid.dirichlet = [
            VelocityDirichlet(s) for s in ("left", "right", "bottom", "top")
        ]
        config = DriverConfig(dt=0.1, n_steps=3, nitsche=GAMMA)
        states, reports = FsiDriver(problem, config).run()
        for report in reports:
            assert report.space_changes == 0
            assert [n.iterations for n in report.newton] == [1]
        final = states[-1]
        for vec in (final.U, final.P, final.A, final.solid.d, final.solid.v,
                    final.solid.a, final.u_iface, final.f_iface):
            assert np.array_equal(vec, np.zeros_like(vec))

    def test_first_step_bootstraps_history_with_implicit_euler(self):
        problem = _gentle_flap_problem()
        config = DriverConfig(dt=0.05, n_steps=2, theta=0.5, nitsche=GAMMA)
        _, reports = FsiDriver(problem, config).run()
        assert reports[0].theta == 1.0
        assert reports[1].theta == 0.5

    def test_fixed_obstacle_flow_keeps_function_space(self):
        # A rigid block in a channel: the interface never moves, so no cycle
        # is ever restarted and the structural unknowns stay zero.
        grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (12, 6))
        mesh = rectangle_fitted_mesh(0.9, 0.4, 0.5, 0.4, 2, 2)
        model = SolidModel(mesh, NeoHookeanMaterial(young=100.0, poisson=0.3), density=1.0)

        def inflow(pts, t):
            out = np.zeros((len(pts), 2))
            out[:, 0] = pts[:, 1] * (1.2 - pts[:, 1]) / 0.36
            return out

        fluid = FluidProblem(
            grid,
            FluidParams(density=1.0, viscosity=0.05),
            dirichlet=[
                VelocityDirichlet("left", inflow),
                VelocityDirichlet("bottom"),
                VelocityDirichlet("top"),
            ],
        )
        problem = FsiProblem(fluid, SolidProblem(model, rigid=True))
        config = DriverConfig(dt=0.5, n_steps=8, nitsche=GAMMA)
        states, reports = FsiDriver(problem, config).run()
        assert all(r.space_changes == 0 for r in reports)
        assert all(r.newton[-1].status == "converged" for r in reports)
        # the flow approaches a steady state: late steps converge quickly
        assert reports[-1].newton[-1].iterations <= 6
        assert np.array_equal(states[-1].solid.d, np.zeros(model.n_dofs))
        assert np.abs(states[-1].U).max() > 0.5

    def test_interface_crossing_triggers_single_space_change(self):
        # The ramped inflow bends the flap across a node support during step
        # four: the second Newton iteration detects the changed active space,
        # signals once, and the restarted cycle converges.
        problem = _channel_with_flap(young=40.0, umax=3.0)
        config = DriverConfig(dt=0.1, n_steps=4, nitsche=GAMMA)
        states, reports = FsiDriver(problem, config).run()
        assert [r.space_changes for r in reports] == [0, 0, 0, 1]
        last = reports[-1]
        assert len(last.newton) == 2
        assert last.newton[0].status == "space-changed"
        assert last.newton[0].iterations == 2
        assert last.newton[1].status == "converged"
        # the flap actually deflected downstream
        tip = states[-1].solid.d.reshape(-1, 2)
        assert tip[:, 0].max() > 1e-3

    def test_cycle_budget_exhaustion_message(self):
        problem = _channel_with_flap(young=40.0, umax=3.0)
        config = DriverConfig(dt=0.1, n_steps=4, nitsche=GAMMA, max_cycles=1)
        with pytest.raises(FunctionSpaceCycleError) as err:
            FsiDriver(problem, config).run()
        assert str(err.value) == CYCLE_MESSAGE
        assert CYCLE_MESSAGE == "maximum number of function space changes at t^n exceeded!"

    def test_frozen_space_mode_avoids_restarts(self):
        problem = _channel_with_flap(young=40.0, umax=3.0)
        config = DriverConfig(dt=0.1, n_steps=4, nitsche=GAMMA, freeze_space=True)
        states, reports = FsiDriver(problem, config).run()
        assert all(r.space_changes == 0 for r in reports)
        assert all(len(r.newton) == 1 for r in reports)
        assert all(r.newton[0].status == "converged" for r in reports)
        # same physics as the restarting run, up to the frozen-geometry lag
        reference, _ = FsiDriver(
            _channel_with_flap(young=40.0, umax=3.0),
            DriverConfig(dt=0.1, n_steps=4, nitsche=GAMMA),
        ).run()
        tip = states[-1].solid.d.reshape(-1, 2)[:, 0].max()
        tip_ref = reference[-1].solid.d.reshape(-1, 2)[:, 0].max()
        assert tip == pytest.approx(tip_ref, rel=0.25)

    def test_velocity_predictor_converges(self):
        problem = _gentle_flap_problem()
        config = DriverConfig(dt=0.05, n_steps=2, nitsche=GAMMA, predictor="velocity")
        _, reports = FsiDriver(problem, config).run()
        assert all(r.newton[-1].status == "converged" for r in reports)

    def test_restart_reproduces_trajectory_bitwise(self, tmp_path):
        problem = _gentle_flap_problem()
        config = DriverConfig(dt=0.05, n_steps=6, nitsche=GAMMA)
        straight, _ = FsiDriver(problem, config).run()

        first, _ = FsiDriver(_gentle_flap_problem(), config).run(n_steps=3)
        path = tmp_path / "level3.npz"
        save_checkpoint(path, first[-1])
        resumed = load_checkpoint(path)
        driver = FsiDriver(_gentle_flap_problem(), config)
        cont, _ = driver.run(resumed, n_steps=3)

        a, b = straight[-1], cont[-1]
        assert a.step == b.step
        assert a.time == b.time
        _same_arrays(a, b)

    def test_stored_interface_force_matches_reassembly(self):
        # The force stored at the end of a step must be exactly the
        # interface operator's structural row at the converged level.
        problem = _gentle_flap_problem()
        solid = problem.solid
        grid = problem.fluid.grid
        config = DriverConfig(dt=0.05, n_steps=3, nitsche=GAMMA)
        driver = FsiDriver(problem, config)
        state = driver.initial_state()
        for _ in range(3):
            prev = state
            state, report = driver.step(state)
            theta = report.theta
            cfg = build_cut_configuration(
                grid,
                solid.model.mesh.nodes[solid.loop_nodes]
                + state.d_space.reshape(-1, 2)[solid.loop_nodes],
                solid.wet_mask,
            )
            u_if = interface_velocity(
                state.solid.d, prev.solid.d, prev.u_iface,
                config.theta_interface, config.dt,
            )
            res, _ = assemble_fs_coupling(
                grid, cfg, problem.fluid.params, config.nitsche,
                state.U, state.P, state.U, solid.loop_nodes, u_if,
                config.theta_interface, config.dt, 1.0 / (theta * config.dt),
                tangent=False,
            )
            assert np.array_equal(-res["d"], state.f_iface)
            assert np.abs(state.f_iface).max() > 0.0

    def test_interface_velocity_jump_shrinks_with_penalty(self):
        # Stronger Nitsche penalties tighten the weak no-slip constraint on
        # the wetted boundary of a fixed obstacle.
        def run(gamma):
            grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (12, 6))
            mesh = rectangle_fitted_mesh(0.9, 0.4, 0.5, 0.4, 2, 2)
            model = SolidModel(
                mesh, NeoHookeanMaterial(young=100.0, poisson=0.3), density=1.0
            )

            def inflow(pts, t):
                out = np.zeros((len(pts), 2))
                out[:, 0] = pts[:, 1] * (1.2 - pts[:, 1]) / 0.36
                return out

            fluid = FluidProblem(
                grid,
                FluidParams(density=1.0, viscosity=0.05),
                dirichlet=[
                    VelocityDirichlet("left", inflow),
                    VelocityDirichlet("bottom"),
                    VelocityDirichlet("top"),
                ],
            )
            problem = FsiProblem(fluid, SolidProblem(model, rigid=True))
            config = DriverConfig(
                dt=0.5, n_steps=4, nitsche=NitscheParams(gamma=gamma)
            )
            states, _ = FsiDriver(problem, config).run()
            state = states[-1]
            cfg = build_cut_configuration(
                grid, mesh.nodes[problem.solid.loop_nodes], problem.solid.wet_mask
            )
            # two-point Gauss rule per segment; the obstacle velocity is zero
            hx, hy = grid.spacing
            xg, wg = np.polynomial.legendre.leggauss(2)
            total = 0.0
            s = cfg.segments
            for p0, p1, elem in zip(s.p0, s.p1, s.elem):
                conn = grid.elem_nodes(elem)
                x0, y0, _, _ = grid.elem_bbox(elem)
                for a, w in zip(0.5 * (xg + 1.0), 0.5 * wg * np.hypot(*(p1 - p0))):
                    x = p0 + a * (p1 - p0)
                    N = basis_tables(hx, hy, (x[0] - x0) / hx, (x[1] - y0) / hy)[0]
                    u = N @ state.U.reshape(-1, 2)[conn]
                    total += w * float(u @ u)
            return np.sqrt(total)

        jumps = [run(g) for g in (10.0, 35.0, 100.0)]
        assert jumps[0] > jumps[1] > jumps[2]


def _same_arrays(a, b):
    """Every array of two states, bitwise equal."""
    for (name, x), y in zip(a.arrays().items(), b.arrays().values()):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def _same_cut(a, b):
    pairs = [(a.status, b.status), (a.node_role, b.node_role)]
    pairs += [(getattr(a, n), getattr(b, n)) for n in ("piece_elem", "piece_verts", "piece_counts")]
    sa, sb = a.segments, b.segments
    pairs += [(getattr(sa, n), getattr(sb, n)) for n in ("elem", "loop_index", "p0", "p1")]
    for x, y in pairs:
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestCarriedConfiguration:
    """The configuration of a state is the cut of its `d_space`; the driver
    keeps its last cut, so a step cuts only the displacements it has not
    cut before."""

    @staticmethod
    def _count_cuts(monkeypatch):
        calls = []
        cut = driver_module.build_cut_configuration

        def counting(*args, **kwargs):
            calls.append(1)
            return cut(*args, **kwargs)

        monkeypatch.setattr(driver_module, "build_cut_configuration", counting)
        return calls

    @staticmethod
    def _fresh_cut(problem, state):
        solid = problem.solid
        loop = (
            solid.model.mesh.nodes[solid.loop_nodes]
            + state.d_space.reshape(-1, 2)[solid.loop_nodes]
        )
        return build_cut_configuration(problem.fluid.grid, loop, solid.wet_mask)

    @pytest.mark.parametrize("predictor", ["constant", "velocity"])
    def test_one_cut_per_new_displacement(self, monkeypatch, predictor):
        problem = _gentle_flap_problem()
        config = DriverConfig(dt=0.05, n_steps=3, nitsche=GAMMA, predictor=predictor)
        driver = FsiDriver(problem, config)
        state = driver.initial_state()
        driver.configuration(state)
        calls = self._count_cuts(monkeypatch)
        for _ in range(3):
            before = len(calls)
            moving = np.any(state.solid.v != 0.0)
            state, report = driver.step(state)
            assert report.space_changes == 0
            iterations = report.newton[0].iterations
            assert iterations >= 2
            # one re-cut per Newton iteration after the first, plus the
            # predicted displacement when it differs from the carried one
            predicted = predictor == "velocity" and moving
            assert len(calls) - before == iterations - 1 + predicted
        assert predictor == "constant" or moving

    def test_carried_configuration_is_the_cut_of_d_space(self):
        problem = _channel_with_flap(young=40.0, umax=3.0)
        driver = FsiDriver(problem, DriverConfig(dt=0.1, n_steps=4, nitsche=GAMMA))
        states = [driver.initial_state()]
        _, reports = driver.run(states[0], on_step=lambda s, r: states.append(s))
        assert sum(r.space_changes for r in reports) > 0
        for state in states:
            cfg = driver.configuration(state)
            _same_cut(cfg, self._fresh_cut(problem, state))
            # keyed by the bytes of d_space, not by the state or the array
            moved = dataclasses.replace(state, d_space=state.d_space.copy())
            assert driver.configuration(moved) is cfg

    def test_loaded_state_rebuilds_the_configuration(self, tmp_path):
        problem = _gentle_flap_problem()
        config = DriverConfig(dt=0.05, n_steps=2, nitsche=GAMMA)
        driver = FsiDriver(problem, config)
        states, _ = driver.run()
        path = tmp_path / "level2.npz"
        save_checkpoint(path, states[-1])
        loaded = load_checkpoint(path)
        _same_cut(driver.configuration(loaded), self._fresh_cut(problem, states[-1]))
        a, _ = driver.step(states[-1])
        b, _ = driver.step(load_checkpoint(path))
        _same_arrays(a, b)
        _same_cut(driver.configuration(a), self._fresh_cut(problem, b))

    def test_state_continues_on_a_rebuilt_problem(self):
        config = DriverConfig(dt=0.05, n_steps=4, nitsche=GAMMA)
        straight, _ = FsiDriver(_gentle_flap_problem(), config).run()
        first, _ = FsiDriver(_gentle_flap_problem(), config).run(n_steps=2)
        rebuilt = FsiDriver(_gentle_flap_problem(), config)
        cont, reports = rebuilt.run(first[-1], n_steps=2)
        assert all(r.space_changes == 0 for r in reports)
        assert rebuilt.configuration(cont[-1]).grid is rebuilt.problem.fluid.grid
        _same_arrays(straight[-1], cont[-1])


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path):
        # A flow-only state has empty structural arrays; they must survive.
        grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (2, 2))
        problem = FsiProblem(
            FluidProblem(grid, FluidParams(density=1.0, viscosity=0.1)), None
        )
        driver = FsiDriver(problem, DriverConfig(dt=0.1, n_steps=1))
        rng = np.random.default_rng(5)
        state = driver.initial_state(
            U0=rng.standard_normal(2 * grid.n_nodes),
            P0=rng.standard_normal(grid.n_nodes),
            time=0.7,
        )
        state.step = 7
        path = tmp_path / "state.npz"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert back.step == 7
        assert back.time == 0.7
        _same_arrays(back, state)
        assert back.solid.d.size == 0
        assert back.f_iface.size == 0

    def test_keys_and_version(self, tmp_path):
        driver = FsiDriver(_gentle_flap_problem(), DriverConfig(dt=0.05, n_steps=1))
        path = tmp_path / "state"
        save_checkpoint(path, driver.initial_state())
        with np.load(path) as data:
            assert data.files == [
                "version", "step", "time",
                "U", "P", "A", "d", "v", "a", "u_iface", "f_iface", "d_space",
            ]
            assert int(data["version"]) == 1

    def test_version_mismatch_rejected(self, tmp_path):
        grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (2, 2))
        problem = FsiProblem(
            FluidProblem(grid, FluidParams(density=1.0, viscosity=0.1)), None
        )
        driver = FsiDriver(problem, DriverConfig(dt=0.1, n_steps=1))
        path = tmp_path / "state.npz"
        save_checkpoint(path, driver.initial_state())
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestOverlapSolver:
    def test_shared_shear_field_is_exact_on_both_meshes(self):
        # The linear shear solves the flow equations on each mesh and leaves
        # every coupling term zero, so the composite solution is exact.
        shear = _shear(1.0)
        background, patch = _overlap_shear()
        sol = solve_overlapping_fluid(background, patch, GAMMA)
        active = sol.cfg1.node_role != NodeRole.INACTIVE
        e1 = shear(background.grid.node_coords(), 0.0).ravel()
        e2 = shear(patch.grid.node_coords(), 0.0).ravel()
        assert np.abs((sol.U1 - e1).reshape(-1, 2)[active]).max() < 1e-9
        assert np.abs(sol.U2 - e2).max() < 1e-9
        assert np.abs(sol.P1[active]).max() < 1e-8
        assert np.abs(sol.P2).max() < 1e-8
        norms = interface_jump_norms(
            background.grid, sol.cfg1, patch.grid, sol.U1, sol.U2
        )
        assert norms["jump_l2"] < 1e-10
        assert abs(norms["mass_defect"]) < 1e-10

    def test_lid_driven_cavity_with_patch_converges(self):
        background = FluidProblem(
            StructuredGrid((0.0, 0.0), (0.25, 0.25), (7, 7)),
            FluidParams(density=1.0, viscosity=0.05),
            dirichlet=[
                VelocityDirichlet("left"),
                VelocityDirichlet("right"),
                VelocityDirichlet("bottom"),
                VelocityDirichlet("top", (1.0, 0.0)),
            ],
            pin_pressure=True,
        )
        patch = FluidProblem(
            StructuredGrid((0.48, 0.37), (0.21, 0.21), (4, 4)),
            FluidParams(density=1.0, viscosity=0.05),
        )
        sol = solve_overlapping_fluid(background, patch, GAMMA)
        norms = interface_jump_norms(
            background.grid, sol.cfg1, patch.grid, sol.U1, sol.U2
        )
        assert norms["length"] > 0.0
        assert norms["jump_l2"] / norms["length"] < 1e-2
        assert abs(norms["mass_defect"]) < 1e-3
        # the recirculating flow stays bounded by the lid speed
        assert np.abs(sol.U2).max() < 1.1
        # one record per iteration, per block, and only the last converged
        assert sol.iterations == len(sol.records) > 1
        blocks = {"u1", "p1", "u2", "p2"}
        for record in sol.records:
            assert set(record.residual) == set(record.increment) == blocks
            assert set(record.residual_abs) == blocks
            assert record.step_scale == 1.0

        def worst(record):
            return max(
                max(pair)
                for group in (record.residual, record.increment)
                for pair in group.values()
            )

        assert worst(sol.records[-1]) < 1e-8
        assert all(worst(r) >= 1e-8 for r in sol.records[:-1])

    def test_mismatched_constants_rejected(self):
        background = FluidProblem(
            StructuredGrid((0.0, 0.0), (0.2, 0.2), (10, 8)),
            FluidParams(density=1.0, viscosity=0.1),
        )
        patch = FluidProblem(
            StructuredGrid((0.55, 0.35), (0.3, 0.3), (3, 3)),
            FluidParams(density=2.0, viscosity=0.1),
        )
        with pytest.raises(ValueError):
            solve_overlapping_fluid(background, patch, GAMMA)


def _flap_fine_driver(steps):
    """The flap-run suite case on a 60x26 grid (h = 0.05): no space change
    within its first fifteen steps from rest."""
    height = 1.3

    def inflow(pts, t):
        out = np.zeros((len(pts), 2))
        factor = 0.5 * (1.0 - np.cos(np.pi * min(t, 1.0))) if t < 1.0 else 1.0
        out[:, 0] = factor * 4.0 * pts[:, 1] * (height - pts[:, 1]) / height**2
        return out

    flap = rectangle_fitted_mesh(0.935, 0.0, 0.21, 0.63, 2, 6, {"bottom": "clamped"})
    fluid = FluidProblem(
        StructuredGrid((0.0, 0.0), (0.05, 0.05), (60, 26)),
        FluidParams(density=1.0, viscosity=0.01),
        dirichlet=[
            VelocityDirichlet("left", inflow),
            VelocityDirichlet("bottom"),
            VelocityDirichlet("top"),
        ],
    )
    solid = SolidModel(flap, NeoHookeanMaterial(young=500.0, poisson=0.4), density=250.0)
    config = DriverConfig(
        dt=0.01, n_steps=steps, theta=1.0, nitsche=NitscheParams(gamma=10.0)
    )
    return FsiDriver(FsiProblem(fluid, SolidProblem(solid)), config)


class TestRetention:
    """A run keeps its reports and its current state, nothing more: the
    memory of a long run stays bounded."""

    @staticmethod
    def _reachable(root):
        """Every object reachable from `root` through `gc.get_referents`,
        not following classes or modules."""
        seen, found, stack = set(), [], [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, type(gc))):
                continue
            seen.add(id(obj))
            found.append(obj)
            stack.extend(gc.get_referents(obj))
        return found

    def test_step_reports_hold_no_arrays_configurations_or_plans(self):
        problem = _channel_with_flap(young=40.0, umax=3.0)
        _, reports = FsiDriver(problem, DriverConfig(dt=0.1, n_steps=4, nitsche=GAMMA)).run()
        assert [a.status for a in reports[-1].newton] == ["space-changed", "converged"]
        reachable = self._reachable(reports)
        assert any(isinstance(obj, IterationRecord) for obj in reachable)
        held = (np.ndarray, CutConfiguration, AssemblyPlan)
        assert [type(obj) for obj in reachable if isinstance(obj, held)] == []

    def test_states_hold_no_configuration_or_volume_rules(self):
        driver = _flap_fine_driver(3)
        states = []
        driver.run(on_step=lambda s, r: states.append(s))
        batches = volume_batches(driver.configuration(states[-1]))
        rules = {id(obj) for obj in [batches, *batches]}
        reachable = self._reachable(states)
        assert any(isinstance(obj, np.ndarray) for obj in reachable)
        assert [obj for obj in reachable if isinstance(obj, CutConfiguration)] == []
        assert [obj for obj in reachable if id(obj) in rules] == []

    def test_run_releases_every_state_but_the_last(self):
        driver = FsiDriver(
            _gentle_flap_problem(), DriverConfig(dt=0.05, n_steps=3, nitsche=GAMMA)
        )
        refs = []
        states, _ = driver.run(on_step=lambda s, r: refs.append(weakref.ref(s)))
        assert refs[0]() is None and refs[1]() is None
        assert states == [refs[-1]()]

    def test_no_lu_outlives_its_attempt(self, monkeypatch):
        # bitwise restart and the memory bound both rest on this: an LU
        # kept for refinement dies with the Newton attempt that built it,
        # while what the solvers return is still held
        lus = []
        factor_solve = driver_module.factor_solve

        def factoring(A, b, **kw):
            x, lu = factor_solve(A, b, **kw)
            lus.append(weakref.ref(lu))
            return x, lu

        monkeypatch.setattr(driver_module, "factor_solve", factoring)
        driver = _flap_fine_driver(1)
        stepped = driver.step(driver.initial_state())
        assert len(lus) == 1
        assert [ref for ref in lus if ref() is not None] == []
        solved = solve_overlapping_fluid(*_overlap_shear(), GAMMA)
        assert len(lus) > 1
        assert [ref for ref in lus if ref() is not None] == []
        assert stepped and solved

    def test_flap_fine_run_retains_under_6_kb_per_step(self):
        def retained(steps):
            """Traced bytes that the return value of a run holds; what
            numpy's allocator caches keep counts on neither side."""
            gc.collect()
            tracemalloc.start()
            try:
                kept = _flap_fine_driver(steps).run()
                assert all(r.space_changes == 0 for r in kept[1])
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                del kept
                gc.collect()
                return held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        retained(1)  # a process's first run also fills interpreter caches
        short = retained(5)
        assert (retained(15) - short) / 10 < 6 * 1024


class TestAssemblyPlan:
    """One assembly plan per structure, owned by the solver that uses it."""

    @staticmethod
    def _count_plans(monkeypatch):
        built = []
        init = AssemblyPlan.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(AssemblyPlan, "__init__", counting)
        return built

    @staticmethod
    def _record_systems(monkeypatch, name):
        seen = []
        assemble = getattr(driver_module, name)

        def recording(*args, **kwargs):
            asm = assemble(*args, **kwargs)
            seen.append(asm)
            return asm

        monkeypatch.setattr(driver_module, name, recording)
        return seen

    def _flap_run(self, monkeypatch, steps=5):
        built = self._count_plans(monkeypatch)
        seen = self._record_systems(monkeypatch, "assemble_coupled_system")
        problem = _gentle_flap_problem(root=1.13)
        driver = FsiDriver(problem, DriverConfig(dt=0.05, n_steps=steps, nitsche=GAMMA))
        states = [driver.initial_state()]
        _, reports = driver.run(states[0], on_step=lambda s, r: states.append(s))
        return driver, states, reports, built, seen

    def test_pattern_is_fixed_across_iterations_and_recuts(self, monkeypatch):
        cuts = []
        cut = driver_module.build_cut_configuration
        monkeypatch.setattr(
            driver_module, "build_cut_configuration", lambda *a: cuts.append(1) or cut(*a)
        )
        _, _, reports, built, seen = self._flap_run(monkeypatch)
        assert sum(len(r.newton) for r in reports) == 5 and len(cuts) > 5
        assert len(seen) > 10 and len(built) == 1
        first = seen[0]
        for asm in seen[1:]:
            for A, B in ((asm.matrix, first.matrix), (asm.system.assemble(), first.system.assemble())):
                assert A.indptr.tobytes() == B.indptr.tobytes()
                assert A.indices.tobytes() == B.indices.tobytes()

    def test_one_plan_per_structure_and_none_retained(self, monkeypatch):
        driver, states, reports, built, seen = self._flap_run(monkeypatch)
        assert len(built) == 1 and driver.plan is built[0]
        del seen[:], built[:]
        gc.collect()
        plans = [obj for obj in gc.get_objects() if isinstance(obj, AssemblyPlan)]
        assert plans == [driver.plan]
        holders = [vars(s) for s in states] + [vars(r) for r in reports]
        holders += [vars(n) for r in reports for n in r.newton]
        holders += [vars(driver.configuration(s)) for s in states]
        referrers = gc.get_referrers(driver.plan)
        assert not any(h is r for h in holders for r in referrers)

    @staticmethod
    def _count_orderings(monkeypatch):
        import cutfsi.linalg as linalg

        built = []
        spilu = linalg.spla.spilu

        def counting(S, **kwargs):
            built.append(S.shape[0])
            return spilu(S, **kwargs)

        monkeypatch.setattr(linalg.spla, "spilu", counting)
        return built

    def test_one_ordering_per_factorised_plan(self, monkeypatch):
        orderings = self._count_orderings(monkeypatch)
        _, _, reports, built, _ = self._flap_run(monkeypatch)
        assert len(built) == 1 and sum(a.iterations for r in reports for a in r.newton) > 5
        assert len(orderings) == 1
        background, patch = _overlap_shear()
        for k in (1, 2):
            sol = solve_overlapping_fluid(background, patch, GAMMA, dt=0.1)
            assert sol.iterations > 1 and len(orderings) == 1 + k

    def test_plan_ordering_is_the_minimum_degree_ordering(self, monkeypatch):
        import cutfsi.linalg as linalg

        _, _, _, _, seen = self._flap_run(monkeypatch, steps=2)
        A, plan = seen[-1].matrix, seen[-1].system.plan
        lus = []
        splu = linalg.spla.splu
        monkeypatch.setattr(
            linalg.spla, "splu", lambda B, **kw: lus.append(splu(B, **kw)) or lus[-1]
        )
        b = np.random.default_rng(0).standard_normal(plan.n)
        plain, planned = linalg.factor(A)(b), linalg.factor_solve(A, b, plan=plan)[0]
        mmd, natural = lus
        assert np.array_equal(plan.ordering[0], np.argsort(mmd.perm_c))
        assert natural.L.nnz + natural.U.nnz <= mmd.L.nnz + mmd.U.nnz
        assert np.linalg.norm(planned - plain) <= 1e-13 * np.linalg.norm(plain)

    def test_construction_builds_no_plan_and_cuts_nothing(self, monkeypatch):
        built = self._count_plans(monkeypatch)
        cuts = []
        cut = driver_module.build_cut_configuration
        monkeypatch.setattr(
            driver_module, "build_cut_configuration", lambda *a: cuts.append(1) or cut(*a)
        )
        driver = FsiDriver(_gentle_flap_problem(), DriverConfig(dt=0.05, n_steps=1, nitsche=GAMMA))
        driver.initial_state()
        assert built == [] and cuts == [] and driver.plan is None

    def test_flap_iterations_convert_nothing_once_the_plan_exists(self, monkeypatch):
        conversions, per_assembly = [], []
        for cls in (LocalBlocks, sp.coo_matrix):
            def counting(self, *args, _tocsr=cls.tocsr, **kwargs):
                conversions.append(type(self))
                return _tocsr(self, *args, **kwargs)

            monkeypatch.setattr(cls, "tocsr", counting)
        assemble = driver_module.assemble_coupled_system

        def counted(*args, **kwargs):
            before = len(conversions)
            asm = assemble(*args, **kwargs)
            per_assembly.append(len(conversions) - before)
            return asm

        monkeypatch.setattr(driver_module, "assemble_coupled_system", counted)
        driver, _, _, built, seen = self._flap_run(monkeypatch)
        assert len(built) == 1 and len(per_assembly) == len(seen) > 10
        assert sum(per_assembly[1:]) == 0
        # the solid's Jacobian is one term over its element dofs, added
        # before the interface coupling's term over the segment edge dofs
        solid, coupling = [b for r, c, b in seen[-1].system.terms if (r, c) == ("d", "d")]
        elems = driver.problem.solid.model.mesh.elems
        assert np.array_equal(solid.rows, (2 * elems[:, :, None] + np.arange(2)).reshape(-1, 8))
        assert solid.cols is solid.rows and coupling.rows.shape[1:] == (4,)

    def test_fsi_system_matches_coo_reference(self, monkeypatch):
        _, _, _, _, seen = self._flap_run(monkeypatch, steps=2)
        assert any(r == "d" and c == "u" for r, c, _ in seen[-1].system.terms)
        for asm in (seen[0], seen[-1]):
            self._check_against_reference(asm)

    def test_overlap_system_matches_coo_reference_with_one_plan_per_solve(self, monkeypatch):
        built = self._count_plans(monkeypatch)
        seen = self._record_systems(monkeypatch, "assemble_overlap_system")
        background, patch = _overlap_shear()
        for k in (1, 2):
            solve_overlapping_fluid(background, patch, GAMMA, dt=0.1)
            assert len(built) == k
        assert len(seen) >= 4
        for asm in (seen[0], seen[-1]):
            self._check_against_reference(asm)

    @staticmethod
    def _check_against_reference(asm):
        raw = asm.system.assemble()
        want = raw_matrix(asm.system)
        scale = np.abs(want.data).max()
        assert np.abs((raw - want).toarray()).max() <= 1e-14 * scale
        fixed = asm.system.plan.fixed
        got = asm.matrix
        assert np.abs((got - solved_matrix(want, fixed)).toarray()).max() <= 1e-14 * scale
        # no stored entry in a fixed row or column but its unit diagonal
        entries = got.tocoo()
        touches = fixed[entries.row] | fixed[entries.col]
        assert np.array_equal(entries.row[touches], entries.col[touches])
        assert np.count_nonzero(touches) == np.count_nonzero(fixed)


class TestOverlapCaches:
    def test_two_mesh_rule_is_built_once_per_solve(self, monkeypatch):
        import cutfsi.coupling as coupling

        calls = []
        rule = coupling._interface_rule
        monkeypatch.setattr(coupling, "_interface_rule", lambda *a: calls.append(1) or rule(*a))
        background, patch = _overlap_shear()
        sol = solve_overlapping_fluid(background, patch, GAMMA, dt=0.1)
        assert sol.iterations > 1 and len(calls) == 1
        interface_jump_norms(background.grid, sol.cfg1, patch.grid, sol.U1, sol.U2)
        assert len(calls) == 1

    def test_callable_force_is_evaluated_once_per_batch_and_solve(self):
        calls = []

        def force(pts, t):
            calls.append(len(pts))
            return np.column_stack([np.sin(pts[:, 0]), pts[:, 0] * pts[:, 1]])

        background, patch = _overlap_shear(force)
        background.body_force = force
        sol = solve_overlapping_fluid(background, patch, GAMMA, dt=0.1)
        # the background's uncut and cut batches and the patch's uncut batch
        assert sol.iterations > 1 and len(calls) == 3
        # the kept values are the ones a fresh configuration evaluates
        grid = background.grid
        history = (np.zeros(2 * grid.n_nodes),) * 2
        args = (background.params, 0.1, 1.0, sol.U1, sol.P1, *history, sol.U1)
        fresh = build_cut_configuration(grid, driver_module.patch_boundary_loop(patch.grid))
        kept = assemble_navier_stokes(sol.cfg1, *args, body_force=force)
        again = assemble_navier_stokes(fresh, *args, body_force=force)
        assert len(calls) == 5
        assert kept[0].tobytes() == again[0].tobytes() and kept[1].tobytes() == again[1].tobytes()
