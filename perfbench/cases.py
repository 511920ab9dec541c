"""The three benchmark workloads, their seeded inputs and correctness checks.

Each workload runs one *trajectory* at a time: a fixed amount of work that
starts from a fresh case.  A trajectory returns its set-up time, the wall
time of its timed loop, one wall time per step, and a fingerprint (Newton
iterations and restarts per step plus a final physical value) that must
repeat for the same seed.

The seed moves the structure (flap root, or overlapping patch origin) by
less than one background cell, so the interface crosses the grid lines at
another place while every case constant stays fixed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from tracing import clock

DEFAULT_SEED = 0


def seed_shift(seed: int, size: int, low: float = -0.4, high: float = 0.4) -> np.ndarray:
    """Offsets in background cells, uniform in [low, high)."""
    return np.random.default_rng(seed).uniform(low, high, size)


class Trajectory:
    def __init__(self):
        self.setup_s = None
        self.run_s = None
        self.step_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: list[tuple] = []  # report_counts() of every step
        self.value = None  # final physical value checked against the reference

    def fail(self, message: str, steps: int = 1) -> None:
        self.failed += steps
        self.errors.append(message)

    def fingerprint(self) -> dict:
        return {"counts": [list(c[:2]) for c in self.counts], "value": self.value}


def report_counts(report) -> tuple[int, int, int, int]:
    """(Newton iterations, restarts, iterations of converged attempts,
    increment halvings) of one accepted FsiDriver step."""
    attempts = report.newton
    iters = sum(a.iterations for a in attempts)
    useful = sum(a.iterations for a in attempts if a.status == "converged")
    halvings = sum(
        round(-math.log2(r.step_scale)) for a in attempts for r in a.records
    )
    return iters, report.space_changes, useful, halvings


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


# ---------------------------------------------------------------------------
# flap-churn: the coupled-flap demo case, refined, through `cutfsi run`


class FlapChurn:
    """``demos/05_coupled_flap.py`` on a 24x12 grid (h = 0.05), run through
    ``cutfsi.cli.main(["run", ini])`` with a snapshot at every step."""

    name = "flap-churn"
    steps = 24
    h = 0.05
    root_x = 0.57
    tip = (0.60, 0.35)

    def __init__(self, seed: int, workdir: Path):
        self.shift_cells = seed_shift(seed, 1)
        self.dx = float(self.shift_cells[0]) * self.h
        self.workdir = workdir
        self.prepare()

    def prepare(self) -> None:
        from cutfsi import rectangle_fitted_mesh, write_mesh_text

        self.workdir.mkdir(parents=True, exist_ok=True)
        flap = rectangle_fitted_mesh(
            self.root_x + self.dx, 0.0, 0.06, 0.35, 1, 4, {"bottom": "clamped"}
        )
        write_mesh_text(self.workdir / "flap.txt", flap)
        height, peak = 0.6, 0.5
        a1 = 4.0 * peak / height
        a2 = -4.0 * peak / height**2
        self.ini = self.workdir / "flap.ini"
        self.ini.write_text(
            f"""
[geometry]
background_origin = 0.0 0.0
background_spacing = {self.h!r} {self.h!r}
background_counts = 24 12
solid_mesh = flap.txt

[materials]
young = 500.0
poisson = 0.4
solid_density = 50.0
fluid_viscosity = 0.02
fluid_density = 1.0

[boundaries]
inlet_side = left
inlet_profile = 0.0 {a1!r} {a2!r}
inlet_curve = cosine-ramp
ramp_duration = 0.4
noslip_sides = bottom top

[solver]
dt = 0.02
n_steps = {self.steps}
gamma = 20.0

[output]
directory = run
stride = 1
probe_tip = {self.tip[0] + self.dx!r} {self.tip[1]!r}
"""
        )

    def _main(self, rec, steps: int):
        from cutfsi import cli

        out = Path(tempfile.mkdtemp(prefix="run-", dir=self.workdir))
        try:
            rec.reset()
            printed = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(printed):
                code = cli.main(
                    ["run", str(self.ini), "--output-dir", str(out), "--steps", str(steps)]
                )
            if code == 0 and not printed.getvalue().startswith(f"completed {steps} steps"):
                code = -1
            return code, t0, _read_rows(out / "diagnostics.csv"), _count_vtk(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def setup_only(self, rec) -> float:
        code, t0, _, _ = self._main(rec, 0)
        if code != 0 or rec.run_entry is None:
            raise RuntimeError("cutfsi run --steps 0 failed")
        return rec.run_entry - t0

    def trajectory(self, rec) -> Trajectory:
        traj = Trajectory()
        code, t0, rows, n_vtk = self._main(rec, self.steps)
        done = len(rec.step_times)
        traj.attempted = min(done + (code != 0), self.steps)
        traj.step_s = list(rec.step_times)
        traj.counts = [report_counts(r[1]) for r in rec.reports]
        if rec.run_entry is not None:
            traj.setup_s = rec.run_entry - t0
            traj.run_s = rec.run_exit - rec.run_entry
        if code != 0:
            traj.fail("cutfsi run exited with code %d" % code)
            return traj
        if len(rows) != self.steps:
            traj.fail(f"diagnostics.csv has {len(rows)} rows, expected {self.steps}")
        elif n_vtk != 2 * (self.steps + 1):
            traj.fail(f"{n_vtk} VTK snapshots written, expected {2 * (self.steps + 1)}")
        else:
            last = rows[-1]
            tip = [float(last["tip_dx"]), float(last["tip_dy"])]
            logged = [(int(r["newton_iterations"]), int(r["space_changes"])) for r in rows]
            if logged != [c[:2] for c in traj.counts]:
                traj.fail("diagnostics.csv disagrees with the FsiDriver step reports")
            elif not _finite(tip):
                traj.fail("non-finite tip displacement")
            traj.value = tip
        return traj


def _read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _count_vtk(directory: Path) -> int:
    return sum(1 for _ in directory.glob("*.vtk"))


# ---------------------------------------------------------------------------
# flap-fine: the flap-run acceptance case on a 60x26 grid, through the API


class FlapFine:
    """The ``flap-run`` suite case (30x13 at h = 0.1) refined to 60x26 at
    h = 0.05, stepped from rest with ``FsiDriver``."""

    name = "flap-fine"
    steps = 5
    h = 0.05
    root_x = 0.935
    tip = (1.04, 0.63)

    def __init__(self, seed: int, workdir: Path):
        # The flap sides sit 0.7 and 0.9 cells past a grid line; shifting
        # left by at most 0.4 cells keeps both at least 0.1 cells from any
        # line, so five steps from rest never change the active space (a
        # side within 0.001 cells of a line does).
        self.shift_cells = seed_shift(seed, 1, -0.4, 0.0)
        self.dx = float(self.shift_cells[0]) * self.h

    def build(self):
        from cutfsi import (
            DriverConfig, FluidParams, FluidProblem, FsiDriver, FsiProblem,
            NeoHookeanMaterial, NitscheParams, SolidModel, SolidProblem,
            StructuredGrid, VelocityDirichlet, rectangle_fitted_mesh,
        )

        height = 1.3

        def inflow(pts, t):
            out = np.zeros((len(pts), 2))
            factor = 0.5 * (1.0 - np.cos(np.pi * min(t, 1.0))) if t < 1.0 else 1.0
            yy = pts[:, 1]
            out[:, 0] = factor * 4.0 * yy * (height - yy) / height**2
            return out

        grid = StructuredGrid((0.0, 0.0), (self.h, self.h), (60, 26))
        self.flap = rectangle_fitted_mesh(
            self.root_x + self.dx, 0.0, 0.21, 0.63, 2, 6, {"bottom": "clamped"}
        )
        solid = SolidProblem(
            SolidModel(
                self.flap, NeoHookeanMaterial(young=500.0, poisson=0.4), density=250.0
            )
        )
        fluid = FluidProblem(
            grid,
            FluidParams(density=1.0, viscosity=0.01),
            dirichlet=[
                VelocityDirichlet("left", inflow),
                VelocityDirichlet("bottom"),
                VelocityDirichlet("top"),
            ],
        )
        config = DriverConfig(
            dt=0.01, n_steps=self.steps, theta=1.0, nitsche=NitscheParams(gamma=10.0)
        )
        driver = FsiDriver(FsiProblem(fluid, solid), config)
        return driver, driver.initial_state()

    def setup_only(self, rec) -> float:
        t0 = clock()
        self.build()
        return clock() - t0

    def trajectory(self, rec) -> Trajectory:
        from cutfsi import evaluate_fitted_probe

        traj = Trajectory()
        rec.reset()
        t0 = clock()
        try:
            driver, state = self.build()
            states, _ = driver.run(state, self.steps)
        except Exception as err:  # noqa: BLE001 - a failed step is counted
            traj.step_s = list(rec.step_times)
            traj.attempted = len(rec.step_times) + 1
            traj.fail(f"step {len(rec.step_times) + 1} raised {err!r}")
            return traj
        traj.setup_s = rec.run_entry - t0
        traj.run_s = rec.run_exit - rec.run_entry
        traj.step_s = list(rec.step_times)
        traj.attempted = self.steps
        traj.counts = [report_counts(r[1]) for r in rec.reports]
        final = states[-1]
        if not _finite(final.U, final.P, final.solid.d):
            traj.fail("non-finite state")
        tip = evaluate_fitted_probe(
            self.flap, final.solid.d.reshape(-1, 2), (self.tip[0] + self.dx, self.tip[1])
        )
        traj.value = [float(tip[0]), float(tip[1])]
        return traj


# ---------------------------------------------------------------------------
# overlap: the overlap suite's n = 24 level, solved repeatedly


def manufactured_flow(rho: float, mu: float):
    """Exact velocity and body force of the overlap suite's steady
    manufactured solution (stream function sin^2(pi x) sin^2(pi y))."""
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

    def field(fn):
        def call(pts, t=0.0):
            pts = np.asarray(pts, float)
            out = fn(pts[:, 0], pts[:, 1])
            return np.column_stack([np.broadcast_to(c, pts.shape[0]) for c in out])

        return call

    return field(fn_u), field(fn_f)


def velocity_l2_error(grid, cfg, U, exact_u) -> float:
    """L2 velocity error over the fluid part of every active element."""
    from cutfsi.cutting import ElemStatus
    from cutfsi.fluid import basis_tables
    from cutfsi.quadrature import polygon_rule, rectangle_rule

    u = np.asarray(U, float).reshape(grid.n_nodes, 2)
    hx, hy = grid.spacing
    total = 0.0
    for e in cfg.active_elems:
        x0, y0, _, _ = grid.elem_bbox(e)
        if cfg.status[e] == ElemStatus.CUT:
            rules = [polygon_rule(p) for p in cfg.pieces.get(e, [])]
        else:
            rules = [rectangle_rule(x0, y0, hx, hy, 3)]
        nodes = grid.elem_nodes(e)
        for rule in rules:
            if not len(rule):
                continue
            s = (rule.points[:, 0] - x0) / hx
            t = (rule.points[:, 1] - y0) / hy
            N = basis_tables(hx, hy, s, t)[0]
            du = N @ u[nodes] - exact_u(rule.points)
            total += float(rule.weights @ np.sum(du * du, axis=1))
    return math.sqrt(total)


class Overlap:
    """One steady two-mesh solve of the ``overlap`` suite's n = 24 level
    (24x24 background, 10x10 patch, manufactured body force); the timed loop
    repeats the solve."""

    name = "overlap"
    solves = 3
    n = 24
    rho, mu, gamma = 1.0, 0.1, 35.0
    # L2 velocity error of the background grid alone (no patch) at n = 24,
    # solved as the overlap suite's single-mesh reference; the case is not
    # seeded.  The overlap error may be at most twice as large.
    single_mesh_error = 0.024897363097380783
    max_error_ratio = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.shift_cells = seed_shift(seed, 2)
        self.offset = self.shift_cells / self.n
        self.exact_u, self.force = manufactured_flow(self.rho, self.mu)
        self.body_force = self.force

    def build(self):
        from cutfsi import FluidParams, FluidProblem, StructuredGrid, VelocityDirichlet

        n = self.n
        params = FluidParams(density=self.rho, viscosity=self.mu)
        walls = [VelocityDirichlet(s) for s in ("left", "right", "bottom", "top")]
        background = FluidProblem(
            StructuredGrid((0.0, 0.0), (1.0 / n, 1.0 / n), (n, n)),
            params, dirichlet=walls, body_force=self.body_force, pin_pressure=True,
        )
        m = round(0.36 * n) + 1
        origin = (0.305 + self.offset[0], 0.374 + self.offset[1])
        patch = FluidProblem(
            StructuredGrid(origin, (0.36 / m, 0.31 / m), (m, m)),
            params, body_force=self.body_force,
        )
        return background, patch

    def setup_only(self, rec) -> float:
        t0 = clock()
        self.build()
        return clock() - t0

    def trajectory(self, rec) -> Trajectory:
        from cutfsi import NitscheParams
        from cutfsi.coupling import interface_jump_norms
        from cutfsi.driver import solve_overlapping_fluid

        traj = Trajectory()
        rec.reset()
        t0 = clock()
        background, patch = self.build()
        nitsche = NitscheParams(gamma=self.gamma)
        t1 = clock()
        traj.setup_s = t1 - t0
        sols = []
        for _ in range(self.solves):
            traj.attempted += 1
            try:
                sols.append(
                    rec.timed_step(
                        solve_overlapping_fluid, background, patch, nitsche, dt=None
                    )
                )
            except Exception as err:  # noqa: BLE001 - a failed solve is counted
                traj.fail(f"solve {traj.attempted} raised {err!r}")
        traj.run_s = clock() - t1
        traj.step_s = list(rec.step_times)
        values = []
        for sol in sols:
            # one converged attempt, no restart, no structure to halve
            traj.counts.append((sol.iterations, 0, sol.iterations, 0))
            e_bg = velocity_l2_error(background.grid, sol.cfg1, sol.U1, self.exact_u)
            e_patch = velocity_l2_error(patch.grid, sol.cfg2, sol.U2, self.exact_u)
            e_overlap = math.hypot(e_bg, e_patch)
            defect = interface_jump_norms(
                background.grid, sol.cfg1, patch.grid, sol.U1, sol.U2
            )["mass_defect"]
            ratio = e_overlap / self.single_mesh_error
            if not ratio <= self.max_error_ratio:
                traj.fail(f"overlap/single velocity error ratio {ratio:.3f} > 2")
            if not math.isfinite(defect):
                traj.fail("non-finite interface mass defect")
            values.append([e_overlap, float(defect)])
        if values:
            if any(v != values[0] for v in values[1:]):
                traj.fail("repeated solves of one case disagree", len(values) - 1)
            traj.value = values[0]
        return traj


WORKLOADS = {cls.name: cls for cls in (FlapChurn, FlapFine, Overlap)}
