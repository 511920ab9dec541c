"""Monolithic time stepping for the embedded-interface flow-structure solver.

The driver advances the coupled unknowns (background velocity and pressure,
structural displacement) with a Newton-Raphson-like method on the exact block
residual: the flow rows combine the stabilized volume terms, the facet ghost
penalties, and the interface operator; the structural row carries the
generalized-alpha balance, the interface operator tested with the solid
weights, and the alpha-weighted interface force stored from the previous time
level.  The background mesh is re-cut after every structural update; when the
active background function space changes, the iteration is interrupted and
restarted on the new space with the extended iterate as the initial guess, a
bounded number of times per step.  History vectors cross space changes through
the copy/extension transfer.

A separate single-level solver couples two overlapping flow meshes (a cut
background mesh and an embedded patch) through the two-sided interface
operator; it runs on the same Newton engine, convergence bookkeeping and
per-mesh flow-block assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .coupling import NitscheParams, assemble_ff_coupling, assemble_fs_coupling
from .cutting import CutConfiguration, NodeRole, build_cut_configuration
from .fluid import FluidParams, assemble_ghost_penalties, assemble_navier_stokes
from .linalg import AssemblyPlan, BlockSystem, LinearSolveError, factor_solve
from .meshes import StructuredGrid
from .projection import SpaceProjector
from .solid import (
    GenAlphaParams,
    SolidInversionError,
    SolidModel,
    SolidState,
    genalpha_displacement_residual,
    genalpha_effective_mass_scale,
    genalpha_recover_acceleration,
    genalpha_recover_velocity,
    interface_chain,
)

NEWTON_MESSAGE = "maximum number of Newton-Raphson iterations reached!"
CYCLE_MESSAGE = "maximum number of function space changes at t^n exceeded!"
CHECKPOINT_VERSION = 1
# Halvings of a structural increment that inverts an element before giving up.
_MAX_HALVINGS = 8


class NewtonError(RuntimeError):
    """The iteration count limit was exhausted without convergence."""


class FunctionSpaceCycleError(RuntimeError):
    """Too many restarts caused by active-space changes within one step."""


# ----------------------------------------------------------------------------
# interface kinematics


def interface_velocity(d_now, d_prev, u_prev, theta_iface: float, dt: float):
    """Solid velocity consistent with the one-step interface discretization.

    u^n = (d^n - d^{n-1}) / (theta dt) - ((1 - theta)/theta) u^{n-1}.
    """
    if theta_iface == 0.0:
        raise ValueError("interface velocity update requires theta_interface > 0")
    d_now = np.asarray(d_now, dtype=float)
    d_prev = np.asarray(d_prev, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    return (d_now - d_prev) / (theta_iface * dt) - (
        (1.0 - theta_iface) / theta_iface
    ) * u_prev


def fluid_acceleration_update(u_now, u_prev, a_prev, theta: float, dt: float):
    """End-of-step acceleration of the one-step-theta flow discretization.

    a^n = (u^n - u~^{n-1}) / (theta dt) - ((1 - theta)/theta) a~^{n-1}, with
    the previous-level vectors already carried onto the current space.
    """
    u_now = np.asarray(u_now, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    a_prev = np.asarray(a_prev, dtype=float)
    return (u_now - u_prev) / (theta * dt) - ((1.0 - theta) / theta) * a_prev


# ----------------------------------------------------------------------------
# problem description


@dataclass(frozen=True)
class DriverConfig:
    """Time-stepping, iteration, and coupling parameters."""

    dt: float
    n_steps: int
    theta: float = 1.0
    theta_interface: float = 1.0
    rho_inf: float = 1.0
    tol: float = 1e-8
    max_newton: int = 25
    max_cycles: int = 5
    nitsche: NitscheParams = field(default_factory=NitscheParams)
    freeze_space: bool = False
    predictor: str = "constant"
    backward_euler_first_step: bool = True

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if not (0.0 < self.theta_interface <= 1.0):
            raise ValueError("theta_interface must lie in (0, 1]")
        if not (0.0 <= self.rho_inf <= 1.0):
            raise ValueError("rho_inf must lie in [0, 1]")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_newton < 1 or self.max_cycles < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.predictor not in ("constant", "velocity"):
            raise ValueError("predictor must be 'constant' or 'velocity'")

    @property
    def genalpha(self) -> GenAlphaParams:
        return GenAlphaParams(self.rho_inf)


@dataclass(frozen=True)
class VelocityDirichlet:
    """Strongly prescribed velocity on one outer side of the background grid.

    `value` is either a constant pair or a callable (pts, t) -> (m, 2);
    both velocity components are constrained.
    """

    side: str
    value: object = (0.0, 0.0)

    def evaluate(self, pts: np.ndarray, time: float) -> np.ndarray:
        if callable(self.value):
            out = np.asarray(self.value(pts, time), dtype=float)
        else:
            out = np.broadcast_to(
                np.asarray(self.value, dtype=float), (len(pts), 2)
            ).copy()
        return out.reshape(len(pts), 2)


@dataclass
class FluidProblem:
    """Background flow domain: grid, constants, and boundary data.

    ``body_force`` is None, a constant pair, or a callable
    ``f(pts, t) -> (M, 2)`` vectorised over (M, 2) points; the flow assembly
    evaluates it once for the Gauss points of many elements together. A
    callable must be pure: its values may depend only on the points and the
    time, because the assembly evaluates it once per configuration and time
    and reuses the values at every later Newton iteration there.
    """

    grid: StructuredGrid
    params: FluidParams
    dirichlet: list[VelocityDirichlet] = field(default_factory=list)
    body_force: object = None
    pin_pressure: bool = False


@dataclass
class SolidProblem:
    """Immersed structure: a solid model and its interface.

    With ``rigid=True`` every displacement unknown is constrained to zero
    while the interface stays coupled — a fixed obstacle seen by the flow
    through the same interface operator.
    """

    model: SolidModel
    rigid: bool = False

    def __post_init__(self):
        self.loop_nodes, self.wet_mask = interface_chain(self.model.mesh)


@dataclass
class FsiProblem:
    fluid: FluidProblem
    solid: SolidProblem | None = None


# ----------------------------------------------------------------------------
# state and history


@dataclass
class FsiState:
    """Converged solution of one time level plus the carried history.

    `u_iface` is the interface-velocity history of the one-step interface
    scheme, `f_iface` the stored interface force tested with the solid
    weights, and `d_space` the displacement whose cut generated this level's
    active function space. The state holds no configuration: that cut is a
    function of `d_space`, which `FsiDriver.configuration` returns.
    """

    time: float
    step: int
    U: np.ndarray
    P: np.ndarray
    A: np.ndarray
    solid: SolidState
    u_iface: np.ndarray
    f_iface: np.ndarray
    d_space: np.ndarray

    def copy(self) -> "FsiState":
        return FsiState(
            self.time,
            self.step,
            self.U.copy(),
            self.P.copy(),
            self.A.copy(),
            self.solid.copy(),
            self.u_iface.copy(),
            self.f_iface.copy(),
            self.d_space.copy(),
        )


@dataclass
class StepHistory:
    """Previous-level data expressed on the current active space, built by
    `FsiDriver.history`."""

    U_tilde: np.ndarray
    P_tilde: np.ndarray
    A_tilde: np.ndarray
    solid_prev: SolidState
    u_iface_prev: np.ndarray
    f_iface_prev: np.ndarray
    f_int_old: np.ndarray


# ----------------------------------------------------------------------------
# boundary conditions and constraints


def _fluid_fixed_masks(fluid: FluidProblem, cfg: CutConfiguration):
    n = fluid.grid.n_nodes
    fix_u = np.zeros((n, 2), dtype=bool)
    fix_p = np.zeros(n, dtype=bool)
    inactive = np.flatnonzero(cfg.node_role == NodeRole.INACTIVE)
    fix_u[inactive] = True
    fix_p[inactive] = True
    for bc in fluid.dirichlet:
        fix_u[fluid.grid.boundary_nodes(bc.side)] = True
    if fluid.pin_pressure:
        if cfg.active_nodes.size == 0:
            raise ValueError("cannot pin the pressure: no active nodes")
        fix_p[int(cfg.active_nodes[0])] = True
    return fix_u.ravel(), fix_p


def _apply_fluid_values(fluid: FluidProblem, cfg, U, P, time: float):
    """Write prescribed values into the iterate: zeros on inactive nodes,
    boundary data on active constrained nodes, zero at the pinned pressure."""
    inactive = np.flatnonzero(cfg.node_role == NodeRole.INACTIVE)
    U.reshape(-1, 2)[inactive] = 0.0
    P[inactive] = 0.0
    coords = fluid.grid.node_coords()
    for bc in fluid.dirichlet:
        nodes = fluid.grid.boundary_nodes(bc.side)
        nodes = nodes[cfg.node_role[nodes] != NodeRole.INACTIVE]
        if nodes.size == 0:
            continue
        U.reshape(-1, 2)[nodes] = bc.evaluate(coords[nodes], time)
    if fluid.pin_pressure and cfg.active_nodes.size:
        P[int(cfg.active_nodes[0])] = 0.0


# ----------------------------------------------------------------------------
# coupled assembly


@dataclass
class CoupledSystem:
    """One linearization of the coupled residual.

    `system` holds the local blocks and residual before constraints, and
    the assembly plan they were scattered through; `matrix` and `residual`
    are the constrained versions that are actually solved.
    `coupling_force` is the interface force tested with the solid weights
    (the negative of the structural coupling rows), kept for the stored-force
    history of the time discretization; it is empty without a structure.
    """

    system: BlockSystem
    matrix: sp.csr_matrix
    residual: np.ndarray
    coupling_force: np.ndarray


def _add_flow_blocks(
    system: BlockSystem, u: str, p: str,
    fluid: FluidProblem, cfg: CutConfiguration, U, P, history, advection,
    interface_residual: dict | None,
    *, dt: float, theta: float, time: float, widened: bool = False,
) -> None:
    """Set the flow rows of one mesh in the velocity block `u` and pressure
    block `p` of `system`: the stabilized Navier-Stokes residual and tangent
    plus the facet ghost penalties, with the interface operator's residual
    rows `interface_residual[u]` / `[p]` added where given.  `history` is the
    previous (velocity, acceleration) pair on this mesh."""
    Ru, Rp, jac = assemble_navier_stokes(
        cfg, fluid.params, dt, theta, U, P,
        history[0], history[1], advection,
        body_force=fluid.body_force, time=time,
    )
    K_conv, K_div, K_press = assemble_ghost_penalties(
        cfg, fluid.params, dt, theta, advection, widened=widened
    )
    Ru = Ru + (K_conv.matvec(U) + K_div.matvec(U))
    Rp = Rp + K_press.matvec(P)
    if interface_residual is not None:
        Ru = Ru + interface_residual[u]
        if p in interface_residual:
            Rp = Rp + interface_residual[p]
    system.set_residual(u, Ru)
    system.set_residual(p, Rp)
    names = {"u": u, "p": p}
    for r, c, blocks in jac:
        system.add(names[r], names[c], blocks)
    system.add(u, u, K_conv)
    system.add(u, u, K_div)
    system.add(p, p, K_press)


def _solved(system: BlockSystem, fixed, plan, coupling_force) -> CoupledSystem:
    """Scatter `system` through `plan`, or through a new plan when `plan` is
    None or was built for another structure, and constrain it: the fixed
    unknowns get unit rows and columns and zero residuals.  Valid because
    the prescribed values are already written into the iterate, so the
    fixed increments vanish."""
    if plan is None or not plan.fits(system, fixed):
        plan = AssemblyPlan(system, fixed)
    system.plan = plan
    matrix = plan.constrain(system.assemble())
    return CoupledSystem(system, matrix, np.where(fixed, 0.0, system.residual), coupling_force)


def assemble_coupled_system(
    problem: FsiProblem,
    config: DriverConfig,
    cfg: CutConfiguration,
    U: np.ndarray,
    P: np.ndarray,
    D: np.ndarray,
    history: StepHistory,
    *,
    time: float,
    theta: float,
    widened: bool = False,
    advection: np.ndarray | None = None,
    plan: AssemblyPlan | None = None,
) -> CoupledSystem:
    """Block residual and tangent of the coupled system at one iterate.

    The flow rows add the stabilized volume residual, the facet ghost
    penalties, and the interface operator; the structural row is the
    generalized-alpha balance scaled by 1/(1 - alpha_f) plus the interface
    operator and the alpha-weighted stored force.  `advection` overrides the
    frozen convection field (defaults to the current velocity iterate);
    constraints are applied last.  The matrix is scattered through `plan`
    when it fits this structure, else through a new plan, which the result
    holds as ``system.plan``.
    """
    fluid = problem.fluid
    n = fluid.grid.n_nodes
    dt = config.dt
    c_frozen = U if advection is None else advection

    solid = problem.solid
    sizes = {"u": 2 * n, "p": n}
    if solid is not None:
        sizes["d"] = solid.model.n_dofs
    system = BlockSystem(sizes)

    coupling_force = np.zeros(sizes.get("d", 0))
    c_res = None
    c_jac = None
    if solid is not None and cfg.loop is not None and cfg.segments:
        u_if = interface_velocity(
            D, history.solid_prev.d, history.u_iface_prev,
            config.theta_interface, dt,
        )
        c_res, c_jac = assemble_fs_coupling(
            fluid.grid, cfg, fluid.params, config.nitsche,
            U, P, c_frozen, solid.loop_nodes, u_if,
            config.theta_interface, dt, 1.0 / (theta * dt),
        )
        coupling_force = -c_res["d"]
    _add_flow_blocks(
        system, "u", "p", fluid, cfg, U, P,
        (history.U_tilde, history.A_tilde), c_frozen, c_res,
        dt=dt, theta=theta, time=time, widened=widened,
    )

    if solid is not None:
        model = solid.model
        ga = config.genalpha
        af = ga.alpha_f
        scale = 1.0 / (1.0 - af)
        f_int, K_s = model.internal_force(D, tangent=True)
        mass = model.mass_matrix()
        R_s = genalpha_displacement_residual(
            D, history.solid_prev, dt, ga, mass.matvec,
            f_int, history.f_int_old, 0.0,
        )
        Rd = scale * R_s - (af * scale) * history.f_iface_prev
        system.set_residual("d", Rd if c_res is None else Rd + c_res["d"])
        m = genalpha_effective_mass_scale(dt, ga)
        system.add("d", "d", replace(K_s, vals=scale * (m * mass.vals + (1.0 - af) * K_s.vals)))
    for key, block in (c_jac or {}).items():
        system.add(*key, block)

    fix_u, fix_p = _fluid_fixed_masks(fluid, cfg)
    parts = [fix_u, fix_p]
    if solid is not None:
        fix_d = np.zeros(solid.model.n_dofs, dtype=bool)
        if solid.rigid:
            fix_d[:] = True
        else:
            fix_d[solid.model.clamped_dofs()] = True
        parts.append(fix_d)
    return _solved(system, np.concatenate(parts), plan, coupling_force)


# ----------------------------------------------------------------------------
# Newton engine


def _norm_pair(vec: np.ndarray) -> tuple[float, float]:
    if vec.size == 0:
        return 0.0, 0.0
    return float(np.linalg.norm(vec)), float(np.max(np.abs(vec)))


def _relative(values: tuple[float, float], reference: tuple[float, float]):
    """Both norms scaled by the reference, which saturates at one so that
    vanishing reference vectors turn the check into an absolute one."""
    return (
        values[0] / max(reference[0], 1.0),
        values[1] / max(reference[1], 1.0),
    )


@dataclass
class IterationRecord:
    """Relative residual/increment norms (l2, max) per block, plus the
    absolute residual l2 norms and the accepted step scaling."""

    residual: dict[str, tuple[float, float]]
    increment: dict[str, tuple[float, float]]
    residual_abs: dict[str, float]
    step_scale: float = 1.0


def _below(norms: dict[str, tuple[float, float]], bound: float) -> bool:
    return all(max(pair) < bound for pair in norms.values())


def _increments(blocks: dict[str, np.ndarray], iterate) -> dict[str, tuple[float, float]]:
    """Both norms of every increment block relative to its iterate block."""
    return {k: _relative(_norm_pair(v), _norm_pair(iterate[k])) for k, v in blocks.items()}


def _newton(
    iterate, assemble, tol: float, max_newton: int, *, recut=None, limit_step=None
):
    """Newton-Raphson-like iteration on named blocks, shared by both solvers.

    `iterate` maps block names to vectors; `assemble(iterate)` writes the
    prescribed values into them and returns the `CoupledSystem` there.
    Convergence requires the relative l2 and max norms of every residual
    block and every increment block to drop below `tol` separately.  Before
    every iteration but the first, `recut(iterate)` may return a value that
    interrupts the iteration; `limit_step(iterate, increments)` returns the
    scale at which the increment is applied (one without it).  A residual
    block holding NaN or inf raises LinearSolveError before the solve.

    Every increment is solved by `LU.refine` on the attempt's last LU when
    its matrix has that LU's plan, else, or when the refinement gives up, by
    a fresh LU of `factor_solve`, which the attempt keeps instead.  No LU
    outlives its attempt.

    Returns ``(iterate, assembled, iterations, records, interrupted)``:
    `assembled` is the converged linearization, or None when `recut`
    interrupted the iteration with the returned value `interrupted`.
    """
    records: list[IterationRecord] = []
    reference: dict[str, tuple[float, float]] | None = None
    kept, kept_plan = None, None  # the attempt's last LU and its plan
    for it in range(1, max_newton + 1):
        if it > 1 and recut is not None:
            interrupted = recut(iterate)
            if interrupted is not None:
                return iterate, None, it, records, interrupted
        assembled = assemble(iterate)
        res_blocks = assembled.system.split(assembled.residual)
        for k, v in res_blocks.items():
            if not np.all(np.isfinite(v)):
                raise LinearSolveError(
                    f"non-finite residual in block {k} at Newton iteration {it}"
                )
        if reference is None:
            reference = {k: _norm_pair(v) for k, v in res_blocks.items()}
        record = IterationRecord(
            residual={
                k: _relative(_norm_pair(v), reference[k])
                for k, v in res_blocks.items()
            },
            increment={},
            residual_abs={k: _norm_pair(v)[0] for k, v in res_blocks.items()},
        )
        records.append(record)
        plan, rhs = assembled.system.plan, -assembled.residual
        delta = kept.refine(assembled.matrix, rhs) if kept_plan is plan else None
        if delta is None:
            kept = None  # released before the next factorisation builds its own
            delta, kept = factor_solve(assembled.matrix, rhs, plan=plan)
            kept_plan = plan
        blocks = assembled.system.split(delta)
        record.increment = _increments(blocks, iterate)
        if _below(record.residual, tol) and _below(record.increment, tol):
            return iterate, assembled, it, records, None
        assembled = None  # released before the next assembly builds its own
        if limit_step is not None:
            record.step_scale = limit_step(iterate, blocks)
        iterate = {
            k: v + record.step_scale * blocks[k] if k in blocks else v
            for k, v in iterate.items()
        }
    raise NewtonError(NEWTON_MESSAGE)


@dataclass
class NewtonResult:
    """What one Newton attempt of a step did: ``status`` is "converged" or
    "space-changed" (interrupted by a changed active space and restarted),
    with its iteration count and one record per completed iteration."""

    status: str
    iterations: int
    records: list[IterationRecord]


def _deformed_loop(solid: SolidProblem, D: np.ndarray) -> np.ndarray:
    disp = D.reshape(-1, 2)[solid.loop_nodes]
    return solid.model.mesh.nodes[solid.loop_nodes] + disp


# ----------------------------------------------------------------------------
# time loop


@dataclass
class StepReport:
    """What one accepted step did: its index, time and flow theta, its
    Newton attempts (`cycles`), how many of them a space change interrupted
    (`space_changes`), and one `NewtonResult` per attempt.  It holds no
    solution vector and no configuration."""

    step: int
    time: float
    theta: float
    cycles: int
    space_changes: int
    newton: list[NewtonResult]


class FsiDriver:
    """Orchestrates predictor, cutting, transfer, restarts, and recoveries.

    `plan` is the assembly plan of the last assembled structure, built at
    its first assembly and replaced when the structure changes; nothing
    else keeps it. The driver likewise keeps its last cut, with the bytes
    of the displacement that cut it, and hands it out again for the same
    bytes (`configuration`); states and reports hold no configuration."""

    def __init__(self, problem: FsiProblem, config: DriverConfig):
        self.problem = problem
        self.config = config
        self.plan = None
        self._last_cut = (None, None)  # (displacement bytes, its CutConfiguration)

    # -- state construction ------------------------------------------------

    def initial_state(
        self,
        U0: np.ndarray | None = None,
        P0: np.ndarray | None = None,
        d0: np.ndarray | None = None,
        v0: np.ndarray | None = None,
        a0: np.ndarray | None = None,
        f_iface0: np.ndarray | None = None,
        time: float = 0.0,
    ) -> FsiState:
        """State at the initial level; accelerations default to zero and the
        stored interface force to zero (start from rest)."""
        n = self.problem.fluid.grid.n_nodes
        nd = self.problem.solid.model.n_dofs if self.problem.solid else 0

        def take(vec, size):
            return np.zeros(size) if vec is None else np.asarray(vec, float).copy()

        d = take(d0, nd)
        v = take(v0, nd)
        return FsiState(
            time=time,
            step=0,
            U=take(U0, 2 * n),
            P=take(P0, n),
            A=np.zeros(2 * n),
            solid=SolidState(d, v, take(a0, nd)),
            u_iface=v.copy(),
            f_iface=take(f_iface0, nd),
            d_space=d.copy(),
        )

    # -- helpers -----------------------------------------------------------

    def _cut_from(self, d: np.ndarray) -> CutConfiguration:
        """The cut of the displacement `d`: the last cut when it was made
        from the same bytes, else a fresh one, which is kept instead."""
        key = d.tobytes()
        if self._last_cut[0] != key:
            solid, grid = self.problem.solid, self.problem.fluid.grid
            if solid is None:
                cfg = build_cut_configuration(grid, None)
            else:
                cfg = build_cut_configuration(grid, _deformed_loop(solid, d), solid.wet_mask)
            self._last_cut = (key, cfg)
        return self._last_cut[1]

    def configuration(self, state: FsiState) -> CutConfiguration:
        """The cut of `state.d_space` on this driver's grid, which spans the
        active function space of `state`."""
        return self._cut_from(state.d_space)

    def history(
        self, state: FsiState, carry: SpaceProjector | None = None
    ) -> StepHistory:
        """Previous-level data of a step taken from `state`: the flow vectors
        moved onto the step's active space by `carry`, or copied when it is
        None (the same space); the solid state and interface history of
        `state`; the internal force at its displacement."""
        move = np.copy if carry is None else carry.apply
        solid = self.problem.solid
        return StepHistory(
            U_tilde=move(state.U),
            P_tilde=move(state.P),
            A_tilde=move(state.A),
            solid_prev=state.solid,
            u_iface_prev=state.u_iface,
            f_iface_prev=state.f_iface,
            f_int_old=(
                solid.model.internal_force(state.solid.d, tangent=False)[0]
                if solid is not None
                else np.zeros(0)
            ),
        )

    def space_frozen(self, space_changes: int) -> bool:
        """Whether a step's attempt after `space_changes` space changes keeps
        its active space: no re-cut, widened ghost facets and extension."""
        return self.config.freeze_space or space_changes >= 2

    def _predict(self, state: FsiState) -> np.ndarray:
        if self.config.predictor == "velocity":
            return state.solid.d + self.config.dt * state.solid.v
        return state.solid.d.copy()

    # -- stepping ----------------------------------------------------------

    def _attempt(
        self,
        cfg: CutConfiguration,
        U: np.ndarray,
        P: np.ndarray,
        D: np.ndarray,
        d_geometry: np.ndarray,
        history: StepHistory,
        *,
        time: float,
        theta: float,
        frozen: bool,
    ):
        """One Newton-Raphson-like attempt of a step from the iterate
        (U, P, D) on `cfg`, the cut of `d_geometry`.

        Unless `frozen`, re-cuts the background mesh from the current
        displacement before every iteration but the first; if the active
        space differs, the current iterate is carried to the new space by
        copy/extension as the initial guess of the step's next attempt.
        `frozen` keeps the space and widens the ghost facets.  A structural
        update that inverts an element is halved a bounded number of times.

        Returns ``(result, cfg, U, P, D, d_geometry, coupling_force)``: the
        attempt's report, then the converged or carried iterate with its
        configuration and the displacement that cut it, and the converged
        interface force (empty after a space change).
        """
        problem = self.problem
        solid = problem.solid

        def assemble(x):
            _apply_fluid_values(problem.fluid, cfg, x["u"], x["p"], time)
            asm = assemble_coupled_system(
                problem, self.config, cfg, x["u"], x["p"], x["d"], history,
                time=time, theta=theta, widened=frozen, plan=self.plan,
            )
            self.plan = asm.system.plan
            return asm

        def recut(x):
            nonlocal cfg, d_geometry
            cfg_new = self._cut_from(x["d"])
            if not cfg_new.same_active_space(cfg):
                return cfg_new
            cfg, d_geometry = cfg_new, x["d"].copy()
            return None

        def limit_step(x, blocks):
            scale = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                try:
                    solid.model.internal_force(x["d"] + scale * blocks["d"], tangent=False)
                    return scale
                except SolidInversionError:
                    scale *= 0.5
            raise SolidInversionError(
                "structural update still inverts an element after "
                f"{_MAX_HALVINGS} increment halvings"
            )

        x, assembled, it, records, cfg_new = _newton(
            {"u": U.copy(), "p": P.copy(), "d": D},
            assemble, self.config.tol, self.config.max_newton,
            recut=recut if solid is not None and not frozen else None,
            limit_step=limit_step if solid is not None else None,
        )
        if cfg_new is not None:
            carry = SpaceProjector(cfg, cfg_new)
            return (
                NewtonResult("space-changed", it, records), cfg_new,
                carry.apply(x["u"]), carry.apply(x["p"]), x["d"], x["d"].copy(),
                np.zeros(0),
            )
        return (
            NewtonResult("converged", it, records), cfg,
            x["u"], x["p"], x["d"], d_geometry, assembled.coupling_force,
        )

    def step(self, state: FsiState) -> tuple[FsiState, StepReport]:
        config = self.config
        solid = self.problem.solid
        n_step = state.step + 1
        t_new = state.time + config.dt
        theta = (
            1.0
            if (n_step == 1 and config.backward_euler_first_step)
            else config.theta
        )

        d_pred = self._predict(state)
        cfg_prev = self.configuration(state)
        cfg = self._cut_from(d_pred)
        history = self.history(state, SpaceProjector(cfg_prev, cfg))

        U, P, D, d_geom = history.U_tilde, history.P_tilde, d_pred, d_pred
        attempts: list[NewtonResult] = []
        signals = 0
        while True:
            if signals >= config.max_cycles:
                raise FunctionSpaceCycleError(CYCLE_MESSAGE)
            attempt, cfg, U, P, D, d_geom, force = self._attempt(
                cfg, U, P, D, d_geom, history,
                time=t_new, theta=theta, frozen=self.space_frozen(signals),
            )
            attempts.append(attempt)
            if attempt.status == "converged":
                break
            signals += 1
            carry = SpaceProjector(cfg_prev, cfg, widened=self.space_frozen(signals))
            history.U_tilde = carry.apply(state.U)
            history.P_tilde = carry.apply(state.P)
            history.A_tilde = carry.apply(state.A)

        A_new = fluid_acceleration_update(
            U, history.U_tilde, history.A_tilde, theta, config.dt
        )
        if solid is not None:
            ga = config.genalpha
            a_new = genalpha_recover_acceleration(D, state.solid, config.dt, ga)
            v_new = genalpha_recover_velocity(a_new, state.solid, config.dt, ga)
            u_if = interface_velocity(
                D, state.solid.d, state.u_iface,
                config.theta_interface, config.dt,
            )
            new_solid = SolidState(D.copy(), v_new, a_new)
        else:
            new_solid = SolidState(np.zeros(0), np.zeros(0), np.zeros(0))
            u_if = np.zeros(0)
        new_state = FsiState(
            time=t_new,
            step=n_step,
            U=U,
            P=P,
            A=A_new,
            solid=new_solid,
            u_iface=u_if,
            f_iface=force,
            d_space=d_geom.copy(),
        )
        report = StepReport(
            step=n_step, time=t_new, theta=theta,
            cycles=signals + 1, space_changes=signals, newton=attempts,
        )
        return new_state, report

    def run(
        self,
        state: FsiState | None = None,
        n_steps: int | None = None,
        on_step=None,
    ) -> tuple[list[FsiState], list[StepReport]]:
        """Take `n_steps` steps (the configured count by default) from
        `state` (the initial state by default), calling
        ``on_step(state, report)`` after each.

        Returns ``([final_state], reports)`` with one report per step.  Only
        the current state is kept, so a caller that needs the intermediate
        states collects them in `on_step`.
        """
        if state is None:
            state = self.initial_state()
        steps = self.config.n_steps if n_steps is None else n_steps
        reports: list[StepReport] = []
        for _ in range(steps):
            state, report = self.step(state)
            reports.append(report)
            if on_step is not None:
                on_step(state, report)
        return [state], reports


# ----------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, state: FsiState) -> None:
    """Versioned dump of every carried state vector and the step index.

    The file is a NumPy ``.npz`` archive with the arrays ``U, P, A`` (flow),
    ``d, v, a`` (structure), ``u_iface, f_iface, d_space`` (interface
    history), and scalars ``version, step, time``.  The cut configuration is
    not stored: it is a function of ``d_space``.  Reloading on the same
    platform reproduces the state, and the run resumed from it, bitwise.
    """
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        step=np.int64(state.step),
        time=np.float64(state.time),
        U=state.U,
        P=state.P,
        A=state.A,
        d=state.solid.d,
        v=state.solid.v,
        a=state.solid.a,
        u_iface=state.u_iface,
        f_iface=state.f_iface,
        d_space=state.d_space,
    )


def load_checkpoint(path) -> FsiState:
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        return FsiState(
            time=float(data["time"]),
            step=int(data["step"]),
            U=data["U"].copy(),
            P=data["P"].copy(),
            A=data["A"].copy(),
            solid=SolidState(data["d"].copy(), data["v"].copy(), data["a"].copy()),
            u_iface=data["u_iface"].copy(),
            f_iface=data["f_iface"].copy(),
            d_space=data["d_space"].copy(),
        )


# ----------------------------------------------------------------------------
# overlapping two-mesh flow solver


@dataclass
class OverlapSolution:
    U1: np.ndarray
    P1: np.ndarray
    U2: np.ndarray
    P2: np.ndarray
    cfg1: CutConfiguration
    cfg2: CutConfiguration
    iterations: int
    records: list[IterationRecord]


def patch_boundary_loop(grid: StructuredGrid) -> np.ndarray:
    """Counterclockwise rectangle along the outer boundary of a grid."""
    x0, y0 = grid.origin
    x1 = x0 + grid.spacing[0] * grid.counts[0]
    y1 = y0 + grid.spacing[1] * grid.counts[1]
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def assemble_overlap_system(
    background: FluidProblem,
    patch: FluidProblem,
    nitsche: NitscheParams,
    cfg1: CutConfiguration,
    cfg2: CutConfiguration,
    U1, P1, U2, P2,
    *,
    dt: float,
    plan: AssemblyPlan | None = None,
) -> CoupledSystem:
    """Four-block residual/tangent of two overlapping flow meshes.

    One implicit Euler step of length `dt` from rest, at time zero.  The
    background rows see the embedded boundary through the two-sided
    interface operator; the patch mesh is boundary-fitted and uncut.  The
    current velocities are the frozen convection fields; constraints are
    applied last, and `plan` is reused as in `assemble_coupled_system`.
    """
    c_res, c_jac = assemble_ff_coupling(
        background.grid, cfg1, patch.grid, background.params, nitsche,
        U1, U2, P2, U2, 1.0 / dt,
    )
    n1, n2 = background.grid.n_nodes, patch.grid.n_nodes
    system = BlockSystem({"u1": 2 * n1, "p1": n1, "u2": 2 * n2, "p2": n2})
    for u, p, fluid, cfg, U, P in (
        ("u1", "p1", background, cfg1, U1, P1),
        ("u2", "p2", patch, cfg2, U2, P2),
    ):
        rest = (np.zeros_like(U), np.zeros_like(U))
        _add_flow_blocks(
            system, u, p, fluid, cfg, U, P, rest, U, c_res,
            dt=dt, theta=1.0, time=0.0,
        )
    for key, block in c_jac.items():
        system.add(*key, block)

    fix_u1, fix_p1 = _fluid_fixed_masks(background, cfg1)
    fix_u2, fix_p2 = _fluid_fixed_masks(patch, cfg2)
    fixed = np.concatenate([fix_u1, fix_p1, fix_u2, fix_p2])
    return _solved(system, fixed, plan, np.zeros(0))


def solve_overlapping_fluid(
    background: FluidProblem,
    patch: FluidProblem,
    nitsche: NitscheParams,
    *,
    dt: float | None = None,
) -> OverlapSolution:
    """Solve the two-mesh flow system at one level with the Newton engine of
    the coupled solver, from rest and with its default tolerance and
    iteration limit.

    ``dt=None`` requests the stationary limit (the reactive time terms are
    switched off through a huge pseudo time step); otherwise one implicit
    Euler step from rest is taken.
    """
    if background.params.density != patch.params.density or (
        background.params.viscosity != patch.params.viscosity
    ):
        raise ValueError("overlapping meshes must share the fluid constants")
    dt_eff = 1e30 if dt is None else dt

    cfg1 = build_cut_configuration(
        background.grid, patch_boundary_loop(patch.grid)
    )
    cfg2 = build_cut_configuration(patch.grid, None)
    n1, n2 = background.grid.n_nodes, patch.grid.n_nodes
    plan = None

    def assemble(x):
        nonlocal plan
        _apply_fluid_values(background, cfg1, x["u1"], x["p1"], 0.0)
        _apply_fluid_values(patch, cfg2, x["u2"], x["p2"], 0.0)
        asm = assemble_overlap_system(
            background, patch, nitsche, cfg1, cfg2,
            x["u1"], x["p1"], x["u2"], x["p2"], dt=dt_eff, plan=plan,
        )
        plan = asm.system.plan
        return asm

    start = {
        "u1": np.zeros(2 * n1), "p1": np.zeros(n1),
        "u2": np.zeros(2 * n2), "p2": np.zeros(n2),
    }
    x, _, it, records, _ = _newton(
        start, assemble, DriverConfig.tol, DriverConfig.max_newton
    )
    return OverlapSolution(
        x["u1"], x["p1"], x["u2"], x["p2"], cfg1, cfg2, it, records
    )
