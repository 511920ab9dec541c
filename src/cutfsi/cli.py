"""Command-line surface.

``cutfsi run <config>`` executes the monolithic time loop of a configured
case, writing VTK snapshots, an append-only diagnostics table with the
configured structural probes, and (optionally) a checkpoint for later
resumption.  ``cutfsi verify [suite ...]`` executes the named verification
suites (all twelve by default) and prints one pass/fail line per suite with
the measured numbers.  ``cutfsi inspect-cut <config>`` classifies the
background mesh against the configured structure and prints the element
counts, ghost-facet count, fluid area, and interface length.

Exit codes: 0 on success, 1 on any runtime or configuration error, 2 on a
usage error (unknown subcommand, malformed flags).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_config
from .cutting import ElemStatus
from .driver import (
    FsiDriver,
    assemble_coupled_system,
    load_checkpoint,
    save_checkpoint,
)
from .linalg import export_matrix_market
from .output import DiagnosticsWriter, evaluate_fitted_probe, write_snapshot
from .verification import SUITE_NAMES, run_suites

__all__ = ["main"]

# historical spelling accepted for the quadrature/geometry checks
_SUITE_ALIASES = {"quadrature": "geometry"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as err:  # noqa: BLE001 - one-line diagnostics, exit 1
        print(f"error: {err}", file=sys.stderr)
        return 1


# -- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutfsi",
        description="Cut-cell fluid-structure interaction on a fixed "
        "background grid: run configured cases, verify the build, inspect "
        "cut configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the time loop of a case")
    _add_config_arguments(run_p)
    run_p.add_argument(
        "--output-dir",
        help="snapshot/diagnostics directory (default from the config)",
    )
    run_p.add_argument(
        "--steps",
        type=int,
        help="total number of time steps (default from the config); with "
        "--resume the run continues until this step count is reached",
    )
    run_p.add_argument(
        "--checkpoint",
        type=Path,
        help="write the final state to this checkpoint file",
    )
    run_p.add_argument(
        "--resume",
        type=Path,
        help="restart from a checkpoint written by an earlier run",
    )
    run_p.add_argument(
        "--dump-matrix",
        type=Path,
        metavar="DIR",
        help="debug: export the matrix of the converged Newton iteration of "
        "every accepted step in MatrixMarket format",
    )
    run_p.set_defaults(handler=_cmd_run)

    verify_p = sub.add_parser(
        "verify", help="run the named verification suites (default: all)"
    )
    verify_p.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help=f"suite names; known: {', '.join(SUITE_NAMES)}",
    )
    verify_p.add_argument(
        "--verify-tol-scale",
        type=float,
        default=1.0,
        help="multiply error tolerances (rate thresholds stay fixed)",
    )
    verify_p.set_defaults(handler=_cmd_verify)

    inspect_p = sub.add_parser(
        "inspect-cut", help="summarize the cut configuration of a case"
    )
    _add_config_arguments(inspect_p)
    inspect_p.add_argument(
        "--time",
        type=float,
        default=0.0,
        help="advance the coupled problem to this time before classifying "
        "(default: the initial configuration)",
    )
    inspect_p.set_defaults(handler=_cmd_inspect)
    return parser


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "config", nargs="?", type=Path, help="case configuration file"
    )
    parser.add_argument(
        "--config",
        dest="config_flag",
        type=Path,
        help="case configuration file (alternative to the positional form)",
    )


def _resolve_config_path(args) -> Path:
    given = [p for p in (args.config, args.config_flag) if p is not None]
    if len(given) != 1:
        raise ConfigError(
            "give the configuration file exactly once "
            "(either positional or --config)"
        )
    return given[0]


# -- run ---------------------------------------------------------------------


def _cmd_run(args) -> int:
    config_path = _resolve_config_path(args)
    case = parse_config(config_path)
    problem = case.build_problem(base=config_path.parent)
    dconfig = case.build_driver_config()
    if args.steps is not None:
        dconfig = dataclasses.replace(dconfig, n_steps=args.steps)
    if case.probes and problem.solid is None:
        raise ConfigError("structural probes configured but no solid mesh")

    driver = FsiDriver(problem, dconfig)
    state = driver.initial_state()
    if args.resume is not None:
        state = _resumed(args.resume, state)
    remaining = dconfig.n_steps - state.step
    if remaining < 0:
        raise ConfigError(
            f"checkpoint is already at step {state.step}, past the "
            f"requested {dconfig.n_steps}"
        )

    outdir = Path(args.output_dir) if args.output_dir else Path(case.output_directory)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.dump_matrix is not None:
        args.dump_matrix.mkdir(parents=True, exist_ok=True)

    probe_names = sorted(case.probes)
    columns = ["step", "time", "cycles", "newton_iterations", "space_changes"]
    for name in probe_names:
        columns += [f"{name}_dx", f"{name}_dy"]
    diagnostics = DiagnosticsWriter(outdir / "diagnostics.csv", columns)

    mesh = problem.solid.model.mesh if problem.solid is not None else None

    def snapshot(s, index):
        write_snapshot(
            outdir,
            index,
            driver.configuration(s),
            s.U,
            s.P,
            mesh=mesh,
            d=s.solid.d if mesh is not None else None,
            v=s.solid.v if mesh is not None else None,
        )

    written = 0
    if state.step == 0:
        snapshot(state, 0)
        written += 1

    def on_step(s, report):
        nonlocal written
        if report.step % case.output_stride == 0:
            snapshot(s, report.step)
            written += 1
        row = {
            "step": report.step,
            "time": repr(float(s.time)),
            "cycles": report.cycles,
            "newton_iterations": sum(a.iterations for a in report.newton),
            "space_changes": report.space_changes,
        }
        if probe_names:
            d_nodal = s.solid.d.reshape(-1, 2)
            for name in probe_names:
                dx, dy = evaluate_fitted_probe(mesh, d_nodal, case.probes[name])
                row[f"{name}_dx"] = repr(float(dx))
                row[f"{name}_dy"] = repr(float(dy))
        diagnostics.append(row)
        if args.dump_matrix is not None:
            _dump_matrix(driver, s, report, args.dump_matrix)

    states, reports = driver.run(state, remaining, on_step)
    final = states[-1]
    if args.checkpoint is not None:
        save_checkpoint(args.checkpoint, final)
    print(
        f"completed {len(reports)} steps to t = {final.time:g}; "
        f"wrote {written} snapshots to {outdir}"
    )
    return 0


def _resumed(path: Path, initial):
    """The state of the checkpoint at `path`, refused unless every vector
    has the size it has in `initial`, the case's initial state."""
    state = load_checkpoint(path)
    for name, got, want in (
        ("U", state.U, initial.U),
        ("P", state.P, initial.P),
        ("A", state.A, initial.A),
        ("d", state.solid.d, initial.solid.d),
        ("v", state.solid.v, initial.solid.v),
        ("a", state.solid.a, initial.solid.a),
        ("u_iface", state.u_iface, initial.u_iface),
        ("f_iface", state.f_iface, initial.f_iface),
        ("d_space", state.d_space, initial.d_space),
    ):
        if got.shape != want.shape:
            raise ConfigError(
                f"checkpoint {path} does not fit the case: {name} has "
                f"{got.size} entries, the case needs {want.size}"
            )
    return state


def _dump_matrix(driver: FsiDriver, state, report, directory: Path) -> None:
    """Reassemble the coupled system at an accepted state and export it.

    The tangent does not depend on the step's previous-level history (it
    only shifts the residual), so the history of a step taken from the
    accepted state reproduces the matrix of the converged iteration, the
    one its last increment was solved with. The converged iteration used
    the widened ghost facets when the step had frozen its active space.
    The driver's plan is reused when it fits.
    """
    asm = assemble_coupled_system(
        driver.problem,
        driver.config,
        driver.configuration(state),
        state.U,
        state.P,
        state.solid.d,
        driver.history(state),
        time=state.time,
        theta=report.theta,
        widened=driver.space_frozen(report.space_changes),
        plan=driver.plan,
    )
    export_matrix_market(
        directory / f"system_{report.step:06d}.mtx",
        asm.matrix,
        comment=f"assembled coupled system, step {report.step}, "
        f"time {state.time:g}",
    )


# -- verify -------------------------------------------------------------------


def _cmd_verify(args) -> int:
    names = [_SUITE_ALIASES.get(n, n) for n in args.suites] or list(SUITE_NAMES)
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown suite(s) {', '.join(unknown)}; "
            f"known: {', '.join(SUITE_NAMES)}"
        )
    results = []
    for name in names:
        (result,) = run_suites([name], tol_scale=args.verify_tol_scale)
        print(f"{result.line()}  [{result.elapsed:.2f}s]")
        sys.stdout.flush()
        results.append(result)
    passed = sum(r.passed for r in results)
    print(f"{passed} of {len(results)} suites passed")
    return 0 if passed == len(results) else 1


# -- inspect-cut ---------------------------------------------------------------


def _cmd_inspect(args) -> int:
    config_path = _resolve_config_path(args)
    case = parse_config(config_path)
    problem = case.build_problem(base=config_path.parent)
    dconfig = case.build_driver_config()
    driver = FsiDriver(problem, dconfig)
    state = driver.initial_state()
    while state.time < args.time - 1e-12:
        state, _ = driver.step(state)
    cfg = driver.configuration(state)

    status = cfg.status
    n_fluid = int(np.sum(status == ElemStatus.FLUID))
    n_cut = int(np.sum(status == ElemStatus.CUT))
    n_covered = int(np.sum(status == ElemStatus.COVERED))
    print(f"time: {state.time:g}")
    print(f"elements: {status.size} total")
    print(f"  uncut fluid: {n_fluid}")
    print(f"  cut: {n_cut}")
    print(f"  covered: {n_covered}")
    print(f"ghost facets: {len(cfg.ghost_facets())}")
    print(f"active nodes: {len(cfg.active_nodes)}")
    print(f"fluid area: {cfg.fluid_area()!r}")
    print(f"interface length: {cfg.interface_length()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
