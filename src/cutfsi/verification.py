"""Acceptance verification: twelve named check suites with measured numbers.

Each suite builds its own small problem, computes the quantities it audits,
and returns a :class:`CheckResult` carrying pass/fail, a one-line summary,
and the measured values.  ``run_suites`` powers both the ``verify``
subcommand of the command line and the acceptance test battery.  The long
flap trajectory shared by the last two suites is computed once and cached.

``tol_scale`` multiplies error tolerances (useful to tighten or relax the
gates on unusual hardware); convergence-rate thresholds and iteration budgets
are structural claims and stay fixed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .coupling import NitscheParams, assemble_fs_coupling, interface_jump_norms
from .cutting import (
    NodeRole,
    avg,
    avg_conjugate,
    build_cut_configuration,
    jump,
)
from .driver import (
    DriverConfig,
    FluidProblem,
    FsiDriver,
    FsiProblem,
    SolidProblem,
    VelocityDirichlet,
    assemble_coupled_system,
    interface_velocity,
    solve_overlapping_fluid,
)
from .fluid import FluidParams, volume_batches
from .meshes import StructuredGrid, rectangle_fitted_mesh
from .output import evaluate_fitted_probe
from .projection import CFL_MESSAGE, ProjectionError, SpaceProjector
from .quadrature import signed_area
from .solid import (
    GenAlphaParams,
    NeoHookeanMaterial,
    SolidModel,
    SolidState,
    genalpha_displacement_residual,
    genalpha_effective_mass_scale,
    genalpha_recover_acceleration,
    genalpha_recover_velocity,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites"]


@dataclass
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"{self.status} — {self.name}: {self.summary}"


_SUITES: dict = {}


def _suite(name):
    def deco(fn):
        _SUITES[name] = fn
        return fn

    return deco


def run_suite(name: str, tol_scale: float = 1.0) -> CheckResult:
    """Run one named suite; ``tol_scale`` multiplies its error tolerances."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(_SUITES)}"
        ) from None
    start = _time.perf_counter()
    result = fn(float(tol_scale))
    result.elapsed = _time.perf_counter() - start
    return result


def run_suites(names=None, tol_scale: float = 1.0) -> list[CheckResult]:
    """Run several suites (all twelve by default) in their canonical order."""
    return [run_suite(n, tol_scale) for n in (names or list(_SUITES))]


# ---------------------------------------------------------------------------
# shared small helpers


def _perimeter(poly: np.ndarray) -> float:
    return float(np.hypot(*(np.roll(poly, -1, axis=0) - poly).T).sum())


def _flow_l2_errors(cfg, U, P, exact_u, exact_p, t) -> tuple[float, float]:
    """L2 errors of the discrete flow field over the physical domain, on the
    volume rules of the flow assembly; the exact fields get (M, 2) points."""
    grid = cfg.grid
    u = np.asarray(U, float).reshape(grid.n_nodes, 2)
    p = np.asarray(P, float).reshape(grid.n_nodes, 1)
    conn = grid.all_elem_nodes()
    err_u = err_p = 0.0
    for elems, pts, w, (N, *_) in volume_batches(cfg):
        flat = pts.reshape(-1, 2)
        du = N @ u[conn[elems]] - np.reshape(exact_u(flat, t), pts.shape)
        dp = N @ p[conn[elems]] - np.reshape(exact_p(flat, t), (*pts.shape[:2], 1))
        err_u += float(np.sum(w * np.sum(du * du, axis=-1)))
        err_p += float(np.sum(w * dp[..., 0] ** 2))
    return np.sqrt(err_u), np.sqrt(err_p)


def _rates(errors) -> list[float]:
    return [
        float(np.log2(errors[k] / errors[k + 1])) for k in range(len(errors) - 1)
    ]


# ---------------------------------------------------------------------------
# 1. geometry / quadrature partition


@_suite("geometry")
def _check_geometry(tol_scale: float) -> CheckResult:
    """Fluid area plus covered area equals the grid area, and the interface
    quadrature reproduces the polygon length, for 50 random placements."""
    tol = 1e-12 * tol_scale
    grid = StructuredGrid((0.0, 0.0), (1.0 / 16.0, 1.0 / 16.0), (16, 16))
    rng = np.random.default_rng(20260814)
    worst_area = worst_len = 0.0
    start = _time.perf_counter()
    for _ in range(50):
        cx, cy = rng.uniform(0.3, 0.7, size=2)
        ax, ay = rng.uniform(0.06, 0.2, size=2)
        phi = rng.uniform(0.0, 0.5 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        corners = np.array([[-ax, -ay], [ax, -ay], [ax, ay], [-ax, ay]])
        poly = corners @ np.array([[c, s], [-s, c]]) + (cx, cy)
        cfg = build_cut_configuration(grid, poly)
        covered = abs(signed_area(poly))
        worst_area = max(worst_area, abs(cfg.fluid_area() + covered - 1.0))
        worst_len = max(
            worst_len,
            abs(cfg.interface_length() - _perimeter(poly)) / _perimeter(poly),
        )
    elapsed = _time.perf_counter() - start
    passed = worst_area < tol and worst_len < tol and elapsed < 5.0
    return CheckResult(
        "geometry",
        passed,
        f"area defect {worst_area:.2e}, length defect {worst_len:.2e}, "
        f"{elapsed:.2f}s over 50 placements (tol {tol:.0e})",
        {"area_defect": worst_area, "length_defect": worst_len, "runtime": elapsed},
    )


# ---------------------------------------------------------------------------
# 2. jump / average product identity


@_suite("jump-average")
def _check_jump_average(tol_scale: float) -> CheckResult:
    """[[f g]] = [[f]] {g}_w + {f}_w^ [[g]] with conjugate weights, sampled."""
    tol = 1e-14 * tol_scale
    rng = np.random.default_rng(42)
    f1, f2, g1, g2 = rng.standard_normal((4, 1000))
    w1 = rng.uniform(0.0, 1.0, 1000)
    lhs = jump(f1 * g1, f2 * g2)
    rhs = jump(f1, f2) * avg(g1, g2, w1) + avg_conjugate(f1, f2, w1) * jump(g1, g2)
    worst = float(np.max(np.abs(lhs - rhs)))
    return CheckResult(
        "jump-average",
        worst < tol,
        f"max identity defect {worst:.2e} over 1000 samples (tol {tol:.0e})",
        {"max_defect": worst},
    )


# ---------------------------------------------------------------------------
# 3. solid statics: closed-form shear stress and tangent consistency


@_suite("solid-statics")
def _check_solid_statics(tol_scale: float) -> CheckResult:
    """Simple shear of the hyperelastic law against the closed form, plus a
    finite-difference audit of the analytic tangent."""
    tol_stress = 1e-10 * tol_scale
    tol_tangent = 1e-6 * tol_scale
    # unit shear modulus: E = 2 (1 + nu) mu
    material = NeoHookeanMaterial(young=2.6, poisson=0.3)
    F = np.array([[1.0, 0.1], [0.0, 1.0]])
    S = material.pk2_stress(F.T @ F)
    stress_err = max(abs(S[0, 0] + 0.01), abs(S[0, 1] - 0.1))

    model = SolidModel(
        rectangle_fitted_mesh(0.0, 0.0, 1.0, 0.5, 2, 1), material, density=1.0
    )
    rng = np.random.default_rng(3)
    d = 0.02 * rng.standard_normal(model.n_dofs)
    K = model.internal_force(d, tangent=True)[1].tocsr().toarray()
    fd = np.zeros_like(K)
    eps = 1e-6
    for j in range(model.n_dofs):
        dp, dm = d.copy(), d.copy()
        dp[j] += eps
        dm[j] -= eps
        fp = model.internal_force(dp, tangent=False)[0]
        fm = model.internal_force(dm, tangent=False)[0]
        fd[:, j] = (fp - fm) / (2.0 * eps)
    tangent_err = float(
        np.linalg.norm(K - fd) / max(np.linalg.norm(fd), 1e-30)
    )
    passed = stress_err < tol_stress and tangent_err < tol_tangent
    return CheckResult(
        "solid-statics",
        passed,
        f"shear stress error {stress_err:.2e} (tol {tol_stress:.0e}), "
        f"tangent FD error {tangent_err:.2e} (tol {tol_tangent:.0e})",
        {"stress_error": stress_err, "tangent_error": tangent_err},
    )


# ---------------------------------------------------------------------------
# 4. solid dynamics: temporal convergence of the one-unknown oscillator


@_suite("solid-dynamics")
def _check_solid_dynamics(tol_scale: float) -> CheckResult:
    """A single-dof mass-spring system integrated with the generalized-alpha
    scheme converges at second order in the step size."""
    del tol_scale  # rate thresholds are structural
    m = 1.0
    omega = 2.0 * np.pi
    k = m * omega**2
    p = GenAlphaParams(rho_inf=1.0)
    # not a multiple of the quarter period, so the leading period-error
    # term of the scheme is visible and the measured rate is the generic one
    horizon = 0.85
    errors = []
    for divisions in (40, 80, 160):
        dt = 1.0 / divisions  # the period is 1, so these are T/40, T/80, T/160
        state = SolidState(
            d=np.array([1.0]), v=np.array([0.0]), a=np.array([-k / m])
        )
        zero = np.zeros(1)
        steps = round(horizon / dt)
        for _ in range(steps):
            # residual is linear in the new displacement: solve it exactly
            coeff = genalpha_effective_mass_scale(dt, p) * m + (1.0 - p.alpha_f) * k
            r0 = genalpha_displacement_residual(
                state.d, state, dt, p,
                mass_apply=lambda a: m * a,
                f_int_new=k * state.d,
                f_int_old=k * state.d,
                f_ext=zero,
            )
            d_new = state.d - r0 / coeff
            a_new = genalpha_recover_acceleration(d_new, state, dt, p)
            v_new = genalpha_recover_velocity(a_new, state, dt, p)
            state = SolidState(d_new, v_new, a_new)
        errors.append(abs(float(state.d[0]) - np.cos(omega * horizon)))
    rates = _rates(errors)
    passed = min(rates) >= 1.9
    return CheckResult(
        "solid-dynamics",
        passed,
        f"temporal rates {rates[0]:.2f}, {rates[1]:.2f} (need >= 1.9); "
        f"errors {errors[0]:.2e} -> {errors[-1]:.2e}",
        {"rates": rates, "errors": errors},
    )


# ---------------------------------------------------------------------------
# 5. fitted transient flow with a manufactured solution


def _manufactured_transient(rho, mu):
    """Divergence-free vortex with homogeneous boundary values and the body
    force that makes it an exact transient solution."""
    import sympy

    x, y, t = sympy.symbols("x y t")
    g = 1 + sympy.sin(2 * sympy.pi * t) / 2
    psi = sympy.sin(sympy.pi * x) ** 2 * sympy.sin(sympy.pi * y) ** 2 * g
    u1 = sympy.diff(psi, y)
    u2 = -sympy.diff(psi, x)
    pr = sympy.sin(sympy.pi * x) * sympy.cos(sympy.pi * y) * g
    force = []
    for ui in (u1, u2):
        conv = u1 * sympy.diff(ui, x) + u2 * sympy.diff(ui, y)
        lap = sympy.diff(ui, x, 2) + sympy.diff(ui, y, 2)
        grad_p = sympy.diff(pr, (x, y)[len(force)])
        force.append(
            (rho * sympy.diff(ui, t) + rho * conv - mu * lap + grad_p) / rho
        )
    fn_u = sympy.lambdify((x, y, t), [u1, u2], "numpy")
    fn_dudt = sympy.lambdify(
        (x, y, t), [sympy.diff(u1, t), sympy.diff(u2, t)], "numpy"
    )
    fn_p = sympy.lambdify((x, y, t), pr, "numpy")
    fn_f = sympy.lambdify((x, y, t), force, "numpy")

    def as_field(fn):
        def call(pts, tv):
            pts = np.asarray(pts, float)
            out = fn(pts[:, 0], pts[:, 1], tv)
            return np.column_stack(
                [np.broadcast_to(c, pts.shape[0]) for c in out]
            )
        return call

    def p_field(pts, tv):
        pts = np.asarray(pts, float)
        return np.broadcast_to(
            fn_p(pts[:, 0], pts[:, 1], tv), (pts.shape[0],)
        ).astype(float)

    return as_field(fn_u), as_field(fn_dudt), p_field, as_field(fn_f)


@_suite("fitted-flow")
def _check_fitted_flow(tol_scale: float) -> CheckResult:
    """Spatial convergence of the stabilized equal-order flow kernel on
    boundary-fitted meshes under simultaneous space-time refinement."""
    del tol_scale
    rho, mu = 1.0, 0.1
    exact_u, exact_dudt, exact_p, body = _manufactured_transient(rho, mu)
    horizon = 0.5
    err_u, err_p = [], []
    start = _time.perf_counter()
    for n in (8, 16, 32):
        grid = StructuredGrid((0.0, 0.0), (1.0 / n, 1.0 / n), (n, n))
        problem = FluidProblem(
            grid,
            FluidParams(density=rho, viscosity=mu),
            dirichlet=[
                VelocityDirichlet(side, exact_u)
                for side in ("left", "right", "bottom", "top")
            ],
            body_force=body,
            pin_pressure=True,
        )
        dt = horizon * 8.0 / (16.0 * n)  # halves with h
        config = DriverConfig(
            dt=dt, n_steps=round(horizon / dt), theta=0.5,
            backward_euler_first_step=False,
        )
        driver = FsiDriver(FsiProblem(problem, None), config)
        coords = grid.node_coords()
        initial = replace(
            driver.initial_state(exact_u(coords, 0.0).ravel(), exact_p(coords, 0.0)),
            A=exact_dudt(coords, 0.0).ravel(),
        )
        states, _ = driver.run(initial)
        end = states[-1]
        eu, ep = _flow_l2_errors(
            driver.configuration(end), end.U, end.P, exact_u, exact_p, horizon
        )
        err_u.append(eu)
        err_p.append(ep)
    elapsed = _time.perf_counter() - start
    ru, rp = _rates(err_u), _rates(err_p)
    passed = min(ru) >= 1.8 and min(rp) >= 0.9 and elapsed < 120.0
    return CheckResult(
        "fitted-flow",
        passed,
        f"velocity rates {ru[0]:.2f}/{ru[1]:.2f} (need >= 1.8), pressure "
        f"rates {rp[0]:.2f}/{rp[1]:.2f} (need >= 0.9), {elapsed:.1f}s",
        {"err_u": err_u, "err_p": err_p, "rates_u": ru, "rates_p": rp},
    )


# ---------------------------------------------------------------------------
# 6. embedded channel flow resolved through the cut interface


def _poiseuille_problem(n: int, y_wall: float, u_max: float, mu: float):
    grid = StructuredGrid((0.0, 0.0), (1.0 / n, 1.0 / n), (n, n))
    wall = rectangle_fitted_mesh(-0.25, y_wall, 1.5, 0.5, 3, 1)
    solid = SolidProblem(
        SolidModel(wall, NeoHookeanMaterial(young=1.0, poisson=0.3), density=1.0),
        rigid=True,
    )

    def profile(pts, t):
        out = np.zeros((len(pts), 2))
        yy = pts[:, 1]
        out[:, 0] = 4.0 * u_max * yy * (y_wall - yy) / y_wall**2
        return out

    fluid = FluidProblem(
        grid,
        FluidParams(density=1.0, viscosity=mu),
        dirichlet=[VelocityDirichlet(s, profile) for s in ("left", "right", "bottom")],
        pin_pressure=True,
    )
    return FsiProblem(fluid, solid), profile


@_suite("embedded-channel")
def _check_embedded_channel(tol_scale: float) -> CheckResult:
    """Channel flow whose upper wall is a rigid embedded structure at an
    irrational height: the velocity converges at second order in space."""
    del tol_scale
    y_wall = 1.0 / np.sqrt(2.0)
    u_max, mu = 1.0, 1.0
    grad_p = -8.0 * mu * u_max / y_wall**2

    errors = []
    for n in (8, 16, 32):
        problem, profile = _poiseuille_problem(n, y_wall, u_max, mu)
        config = DriverConfig(dt=1e8, n_steps=1, nitsche=NitscheParams(gamma=35.0))
        driver = FsiDriver(problem, config)
        state, _ = driver.step(driver.initial_state())
        eu, _ = _flow_l2_errors(
            driver.configuration(state), state.U, state.P,
            profile, lambda pts, t: grad_p * pts[:, 0], 1.0,
        )
        errors.append(eu)
    rates = _rates(errors)
    passed = min(rates) >= 1.8
    return CheckResult(
        "embedded-channel",
        passed,
        f"velocity rates {rates[0]:.2f}, {rates[1]:.2f} (need >= 1.8); "
        f"errors {errors[0]:.2e} -> {errors[-1]:.2e}",
        {"errors": errors, "rates": rates},
    )


# ---------------------------------------------------------------------------
# 7. ghost penalties keep the conditioning cut-independent


def _sliver_condition(n: int, eps: float, ghost_on: bool) -> float:
    """Condition number of the steady creeping-flow system when the embedded
    wall leaves cut cells with a fluid sliver of relative height `eps`.

    The right side stays a natural outflow so the pressure level is set by
    the boundary rather than a pinned node, keeping the uncut baseline well
    conditioned; only then is the sliver's effect on the spectrum visible.
    """
    h = 1.0 / n
    y_wall = (n - 2 + eps) * h
    params = (
        FluidParams(density=1.0, viscosity=1.0)
        if ghost_on
        else FluidParams(
            density=1.0, viscosity=1.0,
            gamma_conv=0.0, gamma_div=0.0, gamma_press=0.0,
        )
    )
    grid = StructuredGrid((0.0, 0.0), (h, h), (n, n))
    wall = rectangle_fitted_mesh(-0.25, y_wall, 1.5, 0.5, 3, 1)
    solid = SolidProblem(
        SolidModel(wall, NeoHookeanMaterial(young=1.0, poisson=0.3), density=1.0),
        rigid=True,
    )
    fluid = FluidProblem(
        grid,
        params,
        dirichlet=[VelocityDirichlet("left"), VelocityDirichlet("bottom")],
    )
    problem = FsiProblem(fluid, solid)
    config = DriverConfig(dt=1e12, n_steps=1, nitsche=NitscheParams(gamma=35.0))
    driver = FsiDriver(problem, config)
    rest = driver.initial_state()
    asm = assemble_coupled_system(
        problem, config, driver.configuration(rest), rest.U, rest.P,
        rest.solid.d, driver.history(rest), time=1.0, theta=1.0,
    )
    n_f = 3 * grid.n_nodes
    dense = asm.matrix.toarray()[:n_f, :n_f]
    return float(np.linalg.cond(dense))


@_suite("conditioning")
def _check_conditioning(tol_scale: float) -> CheckResult:
    """The condition number stays flat across sliver cuts with the facet
    penalties on and collapses by orders of magnitude with them off."""
    del tol_scale
    offsets = (0.5, 0.1, 0.01, 0.001)
    cond_on = [_sliver_condition(8, eps, True) for eps in offsets]
    cond_off = [_sliver_condition(8, eps, False) for eps in offsets]
    spread_on = max(cond_on) / min(cond_on)
    spread_off = max(cond_off) / min(cond_off)
    passed = spread_on < 10.0 and spread_off > 1e3
    return CheckResult(
        "conditioning",
        passed,
        f"condition spread x{spread_on:.2f} with penalties (need < 10), "
        f"x{spread_off:.1e} without (need > 1e3)",
        {
            "offsets": list(offsets),
            "cond_on": cond_on,
            "cond_off": cond_off,
            "spread_on": spread_on,
            "spread_off": spread_off,
        },
    )


# ---------------------------------------------------------------------------
# 8. function-space transfer: identity, linear extension, one-cell rule


def _half_plane_cfg(grid, x_wall):
    poly = np.array(
        [[x_wall, -0.5], [2.5, -0.5], [2.5, 1.5], [x_wall, 1.5]]
    )
    return build_cut_configuration(grid, poly)


@_suite("projection")
def _check_projection(tol_scale: float) -> CheckResult:
    """A stationary interface transfers bitwise, freed values continue
    linear fields exactly, and a jump across two cell layers is refused."""
    tol = 1e-10 * tol_scale
    grid = StructuredGrid((0.0, 0.0), (0.1, 0.1), (10, 10))
    coords = grid.node_coords()

    cfg_a = _half_plane_cfg(grid, 0.55)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(2 * grid.n_nodes)
    projector = SpaceProjector(cfg_a, cfg_a)
    bitwise = np.array_equal(projector.apply(values), _zero_inactive(values, cfg_a))

    # interface recedes by half a cell: freshly active nodes get extended
    cfg_b = _half_plane_cfg(grid, 0.65)
    linear = (0.7 - 0.3 * coords[:, 0] + 0.2 * coords[:, 1]).repeat(2)
    linear[1::2] *= -0.5
    moved = SpaceProjector(cfg_a, cfg_b)
    extended = moved.apply(_zero_inactive(linear, cfg_a))
    fresh = np.flatnonzero(
        (cfg_b.node_role != NodeRole.INACTIVE)
        & (cfg_a.node_role == NodeRole.INACTIVE)
    )
    diff = extended.reshape(-1, 2)[fresh] - linear.reshape(-1, 2)[fresh]
    ext_err = float(np.max(np.abs(diff), initial=0.0))

    # a two-layer sweep must be refused with the step-size message
    cfg_far = _half_plane_cfg(grid, 0.95)
    try:
        SpaceProjector(cfg_a, cfg_far)
        cfl_raised = False
    except ProjectionError as err:
        cfl_raised = str(err) == CFL_MESSAGE
    passed = bitwise and ext_err < tol and cfl_raised
    return CheckResult(
        "projection",
        passed,
        f"stationary bitwise {bitwise}, linear extension error {ext_err:.2e} "
        f"(tol {tol:.0e}), step-rule raised {cfl_raised}",
        {"bitwise": bitwise, "extension_error": ext_err, "cfl_raised": cfl_raised},
    )


def _zero_inactive(values, cfg):
    out = values.reshape(-1, 2).copy()
    out[cfg.node_role == NodeRole.INACTIVE] = 0.0
    return out.ravel()


# ---------------------------------------------------------------------------
# 9. two overlapping flow meshes against a single mesh


def _manufactured_steady(rho, mu):
    import sympy

    x, y = sympy.symbols("x y")
    psi = sympy.sin(sympy.pi * x) ** 2 * sympy.sin(sympy.pi * y) ** 2
    u1 = sympy.diff(psi, y)
    u2 = -sympy.diff(psi, x)
    pr = sympy.sin(sympy.pi * x) * sympy.cos(sympy.pi * y)
    force = []
    for k, ui in enumerate((u1, u2)):
        conv = u1 * sympy.diff(ui, x) + u2 * sympy.diff(ui, y)
        lap = sympy.diff(ui, x, 2) + sympy.diff(ui, y, 2)
        force.append((rho * conv - mu * lap + sympy.diff(pr, (x, y)[k])) / rho)
    fn_u = sympy.lambdify((x, y), [u1, u2], "numpy")
    fn_f = sympy.lambdify((x, y), force, "numpy")

    def u_field(pts, t=0.0):
        pts = np.asarray(pts, float)
        out = fn_u(pts[:, 0], pts[:, 1])
        return np.column_stack([np.broadcast_to(c, pts.shape[0]) for c in out])

    def f_field(pts, t=0.0):
        pts = np.asarray(pts, float)
        out = fn_f(pts[:, 0], pts[:, 1])
        return np.column_stack([np.broadcast_to(c, pts.shape[0]) for c in out])

    return u_field, f_field


def _overlap_level(n: int, exact_u, body, rho, mu, gamma):
    params = FluidParams(density=rho, viscosity=mu)
    dirichlet = [VelocityDirichlet(s) for s in ("left", "right", "bottom", "top")]
    single = FluidProblem(
        StructuredGrid((0.0, 0.0), (1.0 / n, 1.0 / n), (n, n)),
        params, dirichlet=dirichlet, body_force=body, pin_pressure=True,
    )
    driver = FsiDriver(FsiProblem(single, None), DriverConfig(dt=1e8, n_steps=1))
    state, _ = driver.step(driver.initial_state())
    e_single, _ = _flow_l2_errors(
        driver.configuration(state), state.U, state.P,
        exact_u, lambda pts, t: np.zeros(len(pts)), 0.0,
    )

    background = FluidProblem(
        single.grid, params, dirichlet=dirichlet, body_force=body,
        pin_pressure=True,
    )
    m = round(0.36 * n) + 1
    patch = FluidProblem(
        StructuredGrid((0.305, 0.374), (0.36 / m, 0.31 / m), (m, m)),
        params, body_force=body,
    )
    sol = solve_overlapping_fluid(
        background, patch, NitscheParams(gamma=gamma), dt=None
    )
    zero_p = lambda pts, t: np.zeros(len(pts))
    e_bg, _ = _flow_l2_errors(sol.cfg1, sol.U1, sol.P1, exact_u, zero_p, 0.0)
    e_patch, _ = _flow_l2_errors(sol.cfg2, sol.U2, sol.P2, exact_u, zero_p, 0.0)
    e_overlap = float(np.hypot(e_bg, e_patch))
    defect = abs(
        interface_jump_norms(background.grid, sol.cfg1, patch.grid, sol.U1, sol.U2)[
            "mass_defect"
        ]
    )
    return e_single, e_overlap, defect


@_suite("overlap")
def _check_overlap(tol_scale: float) -> CheckResult:
    """An embedded overlapping mesh reproduces the single-mesh accuracy and
    its interface mass defect vanishes under refinement."""
    rho, mu = 1.0, 0.1
    exact_u, body = _manufactured_steady(rho, mu)
    e_single, e_overlap, defect_1 = _overlap_level(12, exact_u, body, rho, mu, 35.0)
    _, _, defect_2 = _overlap_level(24, exact_u, body, rho, mu, 35.0)
    ratio = e_overlap / e_single
    rate = float(np.log2(defect_1 / defect_2))
    passed = ratio <= 2.0 * tol_scale and rate >= 1.0
    return CheckResult(
        "overlap",
        passed,
        f"overlap/single velocity error ratio {ratio:.2f} (need <= 2), "
        f"mass-defect rate {rate:.2f} (need >= 1)",
        {
            "e_single": e_single,
            "e_overlap": e_overlap,
            "ratio": ratio,
            "defects": [defect_1, defect_2],
            "rate": rate,
        },
    )


# ---------------------------------------------------------------------------
# 10. coupled tangent audit and Newton behaviour on a micro-case


def _micro_flap_problem():
    grid = StructuredGrid((0.0, 0.0), (0.2, 0.2), (3, 3))
    flap = rectangle_fitted_mesh(0.27, 0.0, 0.1, 0.3, 1, 2, {"bottom": "clamped"})
    solid = SolidProblem(
        SolidModel(flap, NeoHookeanMaterial(young=500.0, poisson=0.3), density=10.0),
        rigid=False,
    )

    def inflow(pts, t):
        out = np.zeros((len(pts), 2))
        ramp = min(t / 0.4, 1.0)
        factor = 0.5 * (1.0 - np.cos(np.pi * ramp))
        yy = pts[:, 1]
        out[:, 0] = factor * 0.6 * yy * (0.6 - yy) / 0.09
        return out

    fluid = FluidProblem(
        grid,
        FluidParams(density=1.0, viscosity=0.1),
        dirichlet=[
            VelocityDirichlet("left", inflow),
            VelocityDirichlet("bottom"),
            VelocityDirichlet("top"),
        ],
    )
    return FsiProblem(fluid, solid)


@_suite("jacobian-newton")
def _check_jacobian_newton(tol_scale: float) -> CheckResult:
    """Finite differences confirm the monolithic tangent on a 3x3 moving-flap
    micro-case, and the nested iteration stays within its budgets."""
    tol_fd = 1e-6 * tol_scale
    problem = _micro_flap_problem()
    grid = problem.fluid.grid
    config = DriverConfig(dt=0.05, n_steps=1, nitsche=NitscheParams(gamma=35.0))
    driver = FsiDriver(problem, config)
    state0 = driver.initial_state()
    state, _ = driver.step(state0)

    # audit the tangent at a perturbed point with frozen stabilization
    # velocity and frozen geometry
    rng = np.random.default_rng(5)
    U = state.U + 0.01 * rng.standard_normal(state.U.shape)
    P = state.P + 0.01 * rng.standard_normal(state.P.shape)
    D = state.solid.d + 0.002 * rng.standard_normal(state.solid.d.shape)
    cfg = driver.configuration(state)
    history = driver.history(state0)
    frozen = U.copy()

    # audit the raw block system (before boundary-condition elimination):
    # the eliminated matrix has identity rows and zeroed columns at
    # constrained unknowns, which are not derivatives of anything
    def residual_at(u, p, d):
        asm = assemble_coupled_system(
            problem, config, cfg, u, p, d, history,
            time=config.dt, theta=1.0, advection=frozen,
        )
        return asm.system.residual.copy()

    asm = assemble_coupled_system(
        problem, config, cfg, U, P, D, history,
        time=config.dt, theta=1.0, advection=frozen,
    )
    matrix = asm.system.assemble().toarray()
    n_u, n_p = 2 * grid.n_nodes, grid.n_nodes
    total = matrix.shape[0]
    fd = np.zeros_like(matrix)
    eps = 1e-6
    for j in range(total):
        up, um = U.copy(), U.copy()
        pp, pm = P.copy(), P.copy()
        dp, dm = D.copy(), D.copy()
        if j < n_u:
            up[j] += eps
            um[j] -= eps
        elif j < n_u + n_p:
            pp[j - n_u] += eps
            pm[j - n_u] -= eps
        else:
            dp[j - n_u - n_p] += eps
            dm[j - n_u - n_p] -= eps
        fd[:, j] = (residual_at(up, pp, dp) - residual_at(um, pm, dm)) / (2 * eps)
    fd_err = float(np.linalg.norm(matrix - fd) / np.linalg.norm(fd))

    # twenty steps within the iteration and cycle budgets
    steps_ok = True
    worst_newton = 0
    worst_cycles = 0
    run_config = DriverConfig(
        dt=0.05, n_steps=20, nitsche=NitscheParams(gamma=35.0), max_newton=10
    )
    _, reports = FsiDriver(_micro_flap_problem(), run_config).run()
    for report in reports:
        worst_cycles = max(worst_cycles, report.cycles)
        for attempt in report.newton:
            worst_newton = max(worst_newton, attempt.iterations)
        if report.newton[-1].status != "converged":
            steps_ok = False
    passed = fd_err < tol_fd and steps_ok and worst_newton <= 10 and worst_cycles <= 5
    return CheckResult(
        "jacobian-newton",
        passed,
        f"tangent FD error {fd_err:.2e} (tol {tol_fd:.0e}); 20 steps: "
        f"max {worst_newton} iterations (<= 10), max {worst_cycles} cycles (<= 5)",
        {
            "fd_error": fd_err,
            "worst_newton": worst_newton,
            "worst_cycles": worst_cycles,
        },
    )


# ---------------------------------------------------------------------------
# 11 & 12. the coarse flap run and its interface force balance


_FLAP_HEIGHT = 0.63
_FLAP_DT = 0.01


@lru_cache(maxsize=1)
def _flap_trajectory():
    """Five hundred coupled steps of the coarse channel-with-flap case.

    Material and discretization constants: E = 500, nu = 0.4, solid density
    250, fluid density 1, dynamic viscosity 0.01, penalty 10, dt = 0.01,
    backward-Euler flow update.  Returns ``(failure, reports, tip,
    balance)``: the repr of the error that aborted the run (None if it
    completed), the step reports, and per step the tip displacement and the
    two interface force resultants with the stored-force check.  The last
    two are taken in `on_step`, so no state outlives its successor.  Cached
    so the force-balance audit reuses the same trajectory.
    """
    grid = StructuredGrid((0.0, 0.0), (0.1, 0.1), (30, 13))
    flap = rectangle_fitted_mesh(0.935, 0.0, 0.21, _FLAP_HEIGHT, 2, 6, {"bottom": "clamped"})
    solid = SolidProblem(
        SolidModel(flap, NeoHookeanMaterial(young=500.0, poisson=0.4), density=250.0),
        rigid=False,
    )
    height = 1.3

    def inflow(pts, t):
        out = np.zeros((len(pts), 2))
        factor = 0.5 * (1.0 - np.cos(np.pi * min(t, 1.0))) if t < 1.0 else 1.0
        yy = pts[:, 1]
        out[:, 0] = factor * 4.0 * yy * (height - yy) / height**2
        return out

    fluid = FluidProblem(
        grid,
        FluidParams(density=1.0, viscosity=0.01),
        dirichlet=[
            VelocityDirichlet("left", inflow),
            VelocityDirichlet("bottom"),
            VelocityDirichlet("top"),
        ],
    )
    problem = FsiProblem(fluid, solid)
    config = DriverConfig(
        dt=_FLAP_DT, n_steps=500, theta=1.0, nitsche=NitscheParams(gamma=10.0)
    )
    driver = FsiDriver(problem, config)
    tip, balance = [], []
    prev = driver.initial_state()

    def observe(state, report):
        nonlocal prev
        tip.append(
            evaluate_fitted_probe(
                flap, state.solid.d.reshape(-1, 2), (1.04, _FLAP_HEIGHT)
            )
        )
        u_if = interface_velocity(
            state.solid.d, prev.solid.d, prev.u_iface,
            config.theta_interface, config.dt,
        )
        res, _ = assemble_fs_coupling(
            grid, driver.configuration(state), fluid.params, config.nitsche,
            state.U, state.P, state.U, solid.loop_nodes, u_if,
            config.theta_interface, config.dt,
            1.0 / (report.theta * config.dt),
            tangent=False,
        )
        stored_ok = np.array_equal(-res["d"], state.f_iface)
        f_fluid = res["u"].reshape(-1, 2).sum(axis=0)
        f_solid = res["d"].reshape(-1, 2).sum(axis=0)
        balance.append((f_fluid, f_solid, stored_ok))
        prev = state

    failure, reports = None, []
    try:
        _, reports = driver.run(prev, on_step=observe)
    except Exception as err:  # noqa: BLE001 - the suite reports any failure
        failure = repr(err)
    return failure, reports, np.asarray(tip, dtype=float).reshape(-1, 2), balance


@_suite("flap-run")
def _check_flap_run(tol_scale: float) -> CheckResult:
    """The coarse flap case runs 500 steps with every Newton solve
    converging and a bounded, smooth tip-displacement history."""
    del tol_scale
    failure, reports, tip, _ = _flap_trajectory()
    if failure is not None:
        return CheckResult(
            "flap-run", False, f"run aborted: {failure}", {"failure": failure}
        )
    converged = all(r.newton[-1].status == "converged" for r in reports)
    magnitude = np.hypot(tip[:, 0], tip[:, 1])
    bound = 0.5 * _FLAP_HEIGHT
    bounded = float(magnitude.max()) <= bound
    increments = np.abs(np.diff(tip, axis=0, prepend=tip[:1])).max(axis=1)
    smooth_limit = 5.0 * _FLAP_DT  # five peak-velocity units per step
    smooth = float(increments.max()) <= smooth_limit
    passed = converged and bounded and smooth and len(reports) == 500
    return CheckResult(
        "flap-run",
        passed,
        f"500 steps converged {converged}; max |tip| {magnitude.max():.4f} "
        f"(bound {bound:.3f}); max step change {increments.max():.2e} "
        f"(bound {smooth_limit:.2e})",
        {
            "max_tip": float(magnitude.max()),
            "max_increment": float(increments.max()),
            "steps": len(reports),
        },
    )


@_suite("force-balance")
def _check_force_balance(tol_scale: float) -> CheckResult:
    """At every converged level of the flap run the two interface force
    resultants cancel to round-off relative to their size."""
    tol = 1e-10 * tol_scale
    failure, _, _, balance = _flap_trajectory()
    if failure is not None:
        return CheckResult(
            "force-balance",
            False,
            f"flap run aborted: {failure}",
            {"failure": failure},
        )
    worst = 0.0
    stored_all = True
    for f_fluid, f_solid, stored_ok in balance:
        stored_all = stored_all and stored_ok
        norm = max(np.linalg.norm(f_fluid), np.linalg.norm(f_solid))
        if norm == 0.0:
            continue
        worst = max(worst, float(np.linalg.norm(f_fluid + f_solid) / norm))
    passed = worst < tol and stored_all
    return CheckResult(
        "force-balance",
        passed,
        f"worst relative force defect {worst:.2e} over {len(balance)} "
        f"steps (tol {tol:.0e}); stored forces reproduced {stored_all}",
        {"worst_defect": worst, "stored_reproduced": stored_all},
    )


SUITE_NAMES = tuple(_SUITES)
