"""Measure one workload and print its metrics.

With ``--trace 0`` the run times whole trajectories with only the step and
run entry points hooked, and reports the end-to-end metrics.  With
``--trace 1`` it runs one trajectory without layer spans (the base of the
tracing overhead), then traced trajectories, and reports the per-layer
metrics.  Both modes check every trajectory against the recorded reference
of its seed, count numpy warnings, and print a JSON result as the last line
of standard output.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
from cases import DEFAULT_SEED, WORKLOADS, Overlap, Trajectory
from tracing import Recorder, clock

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
REFERENCES = Path(__file__).with_name("reference")

# Step-time percentile reported as step_s.tail: the highest one with at least
# ten samples beyond it in a 30 s run at the seed commit (overlap has too few
# samples for any above the median; see README.md).
TAIL_PERCENTILE = {"flap-churn": 75, "flap-fine": 50, "overlap": 50}

# Set-up is timed on its own for this share of the run (at least
# SETUP_MIN_REPEATS times), on top of the set-up of every trajectory;
# setup_s is the median of all of them.
SETUP_SHARE = 0.05
SETUP_MIN_REPEATS = 5

# A recorded final value matches when within this relative distance.
VALUE_RTOL = 1e-8

# Per-layer metric that must be non-zero ("works") or zero ("idle") on a
# workload; anything else is allowed either way.
COVERAGE = {
    "flap-churn": {
        "works": [
            "cutting.calls", "projection.calls", "driver.restarts",
            "fluid.ns.calls", "quadrature.calls", "fluid.ghost.calls",
            "coupling.fs.calls", "coupling.segments", "solid.calls",
            "linalg.factor.calls", "output.calls", "output.bytes",
            "config.busy_s",
        ],
        "idle": ["coupling.ff.calls", "fluid.body_force_calls"],
    },
    "flap-fine": {
        "works": [
            "cutting.calls", "projection.calls", "fluid.ns.calls",
            "quadrature.calls", "fluid.ghost.calls", "coupling.fs.calls",
            "coupling.segments", "solid.calls", "linalg.factor.calls",
        ],
        "idle": [
            "coupling.ff.calls", "fluid.body_force_calls", "driver.restarts",
            "projection.extended_nodes", "output.calls", "config.busy_s",
        ],
    },
    "overlap": {
        "works": [
            "cutting.calls", "fluid.ns.calls", "fluid.body_force_calls",
            "quadrature.calls", "fluid.ghost.calls", "coupling.ff.calls",
            "linalg.factor.calls",
        ],
        "idle": [
            "coupling.fs.calls", "solid.calls", "projection.calls",
            "driver.restarts", "output.calls", "config.busy_s",
        ],
    },
}


class BenchError(RuntimeError):
    """The benchmark cannot run or contradicts its own accounting."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn in this process",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", type=int, nargs="+", metavar="SEED",
        help="store the fingerprints of these seeds in reference/<workload>.json "
        "and exit",
    )
    return parser.parse_args(argv)


# -- references ------------------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict | None:
    """The committed fingerprint of (workload, seed), else the one an earlier
    run in this checkout stored, else None."""
    path = REFERENCES / f"{workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    entry = table.get(str(seed))
    if entry is not None:
        return entry
    cached = OUT / "reference" / f"{workload}-{seed}.json"
    return json.loads(cached.read_text()) if cached.exists() else None


def store_cached_reference(workload: str, seed: int, fingerprint: dict) -> None:
    path = OUT / "reference" / f"{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint))


def value_close(a, b) -> bool:
    if a is None or b is None or len(a) != len(b):
        return False
    return all(abs(x - y) <= VALUE_RTOL * max(abs(x), abs(y)) for x, y in zip(a, b))


def check_against(traj: Trajectory, ref: dict) -> None:
    counts = [tuple(c) for c in ref["counts"]]
    mine = [c[:2] for c in traj.counts]
    if mine != counts:
        bad = sum(a != b for a, b in zip(mine, counts)) + abs(len(mine) - len(counts))
        traj.fail(f"Newton iterations/restarts differ from the reference at {bad} step(s)", bad)
    elif not value_close(traj.value, ref["value"]):
        traj.fail(f"final value {traj.value} differs from the reference {ref['value']}")


# -- environment stamp -------------------------------------------------------------


def blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob

    import scipy

    out = {}
    for mod in (np, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[mod.__name__] = fn()
                    break
    return out


def source_id() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        return {"git_sha": sha}
    except (OSError, subprocess.SubprocessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        return {"git_sha": None, "src_sha256": digest.hexdigest()}


def stamp() -> dict:
    import scipy

    return {
        **source_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# -- measuring ---------------------------------------------------------------------


class Run:
    """One benchmark run: trajectories until the time budget is used."""

    def __init__(self, args):
        self.name = args.workload
        workdir = OUT / f"work-{self.name}-{args.seed}-{os.getpid()}"
        self.case = WORKLOADS[self.name](args.seed, workdir)
        self.workdir = workdir
        self.reference = load_reference(self.name, args.seed)
        self.trajectories: list[Trajectory] = []
        self.warnings: Counter = Counter()
        self.setups: list[float] = []

    def trajectory(self, rec: Recorder) -> Trajectory:
        traj = self.case.trajectory(rec)
        first = self.trajectories[0] if self.trajectories else None
        if self.reference is not None:
            check_against(traj, self.reference)
        elif first is not None:
            check_against(traj, first.fingerprint())
        self.trajectories.append(traj)
        return traj

    def setup_repeats(self, rec: Recorder, budget: float) -> None:
        start = clock()
        while len(self.setups) < SETUP_MIN_REPEATS or clock() - start < budget:
            self.setups.append(self.case.setup_only(rec))

    def until(self, deadline: float, rec: Recorder) -> list[Trajectory]:
        """Trajectories until the next one would end more than half its
        length past the deadline; always at least one."""
        done = []
        while True:
            t0 = clock()
            traj = self.trajectory(rec)
            done.append(traj)
            length = clock() - t0
            if traj.failed or clock() + 0.5 * length > deadline:
                return done


def end_to_end(run: Run, trajs: list[Trajectory]) -> dict:
    steps = [s for t in trajs for s in t.step_s]
    setups = run.setups + [t.setup_s for t in trajs if t.setup_s is not None]
    runs = [t.run_s for t in trajs if t.run_s is not None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": (statistics.median(runs), "s"),
        "step_s.p50": (statistics.median(steps), "s"),
        "step_s.tail": (float(np.percentile(steps, TAIL_PERCENTILE[run.name])), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def newton_metrics(trajs: list[Trajectory]) -> dict:
    counts = [c for t in trajs for c in t.counts]
    n = max(len(counts), 1)
    iters, restarts, useful, halvings = (sum(c[k] for c in counts) for k in range(4))
    return {
        "driver.newton_iters": (iters / n, "count"),
        "driver.restarts": (restarts / n, "count"),
        "driver.useful_iter_ratio": (useful / iters if iters else 1.0, "ratio"),
        "driver.halvings": (halvings / n, "count"),
    }


def per_layer(run: Run, rec: Recorder, traced: list[Trajectory], overhead: float) -> dict:
    rec.check_nesting()
    t = rec.layer_totals()
    steps = t["steps"]
    if steps == 0:
        raise BenchError("the traced run recorded no step")
    calls, busy, self_time, c = t["calls"], t["busy"], t["self"], rec.counters

    def per_step(x):
        return x / steps

    m = {}
    for layer, kind in tracing.STEP_LAYERS.items():
        m[f"{layer}.calls"] = (per_step(calls[layer]), "count")
        seconds = busy[layer] if kind == "busy" else self_time[layer]
        m[f"{layer}.{kind}_s"] = (per_step(seconds), "s")
    m["driver.other_s"] = (per_step(t["other"]), "s")
    m["cutting.repeat_ratio"] = (
        c["cutting.repeats"] / calls["cutting"] if calls["cutting"] else 0.0, "ratio"
    )
    m["cutting.cut_elems"] = (per_step(c["cutting.cut_elems"]), "count")
    m["projection.extended_nodes"] = (per_step(c["projection.extended_nodes"]), "count")
    m["coupling.segments"] = (per_step(c["coupling.segments"]), "count")
    m["fluid.body_force_calls"] = (per_step(c["fluid.body_force_calls"]), "count")
    factors = calls["linalg.factor"]
    m["linalg.dofs"] = (c["linalg.dofs"] / factors if factors else 0.0, "count")
    m["linalg.nnz"] = (c["linalg.nnz"] / factors if factors else 0.0, "count")

    loop_spans = [s for s in rec.spans if s[4] >= 0 and s[0].startswith("output")]
    m["output.calls"] = (per_step(sum(s[0] != "output" for s in loop_spans)), "count")
    m["output.busy_s"] = (
        per_step(sum(s[2] - s[1] for s in loop_spans if s[0] == "output")), "s"
    )
    m["output.bytes"] = (per_step(c["output.bytes"]), "B")
    config = sum(s[2] - s[1] for s in rec.spans if s[0] == "config" and s[3] < 0)
    m["config.busy_s"] = (config / len(traced), "s")
    m.update(newton_metrics(traced))
    m["numpy.warnings"] = (per_step(c["numpy.warnings"]), "count")
    m["trace_overhead"] = (overhead, "ratio")

    # Accounting guard: reported in-step layer times plus the uncovered rest
    # must add up to the measured step time.
    covered = sum(m[f"{layer}.{kind}_s"][0] for layer, kind in tracing.STEP_LAYERS.items())
    step_mean = per_step(t["step_total"])
    gap = covered + m["driver.other_s"][0] - step_mean
    if abs(gap) > tracing.ACCOUNTING_TOL * step_mean:
        raise BenchError(
            f"layer times + driver.other_s miss the step time by {gap:.3e} s "
            f"of {step_mean:.3e} s"
        )
    unmapped = set(calls) - set(tracing.STEP_LAYERS)
    if unmapped:
        raise BenchError(f"spans inside steps with no layer metric: {sorted(unmapped)}")
    return m


def check_coverage(name: str, metrics: dict) -> None:
    table = COVERAGE[name]
    silent = [k for k in table["works"] if k in metrics and metrics[k][0] == 0]
    if silent:
        raise BenchError(f"{name}: expected work but recorded none in {silent}")
    fired = [k for k in table["idle"] if k in metrics and metrics[k][0] != 0]
    if fired:
        raise BenchError(f"{name}: predicted idle but recorded work in {fired}")


def measure(args) -> tuple[dict, Run]:
    run = Run(args)
    rec = Recorder(traced=False)
    deadline = clock() + args.seconds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            tracing.install(rec)
            run.setup_repeats(rec, SETUP_SHARE * args.seconds)
            if args.trace:
                plain = run.trajectory(rec)
                rec.restore()
                rec = Recorder(traced=True)
                tracing.install(rec)
                if isinstance(run.case, Overlap):
                    run.case.body_force = tracing.counted(rec, run.case.force)
            n_before = len(caught)
            timed = run.until(deadline, rec)
            rec.counters["numpy.warnings"] = len(caught) - n_before
        finally:
            rec.restore()
    run.warnings.update(
        f"{w.category.__name__}: {Path(w.filename).name}:{w.lineno}" for w in caught
    )
    first = run.trajectories[0]
    if run.reference is None and not first.failed:
        store_cached_reference(run.name, args.seed, first.fingerprint())
    if any(t.failed for t in run.trajectories):
        return {}, run

    if not args.trace:
        metrics = end_to_end(run, timed)
        check_coverage(run.name, newton_metrics(timed))
    else:
        traced_s = statistics.median([t.run_s for t in timed])
        metrics = per_layer(run, rec, timed, traced_s / plain.run_s - 1.0)
        check_coverage(run.name, metrics)
        rec.write_spans(OUT / f"spans-{run.name}-{args.seed}.csv")
    return metrics, run


def record_reference(args) -> int:
    """Run one trajectory per seed and store its fingerprint."""
    path = REFERENCES / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for seed in args.record_reference:
        args.seed = seed
        run = Run(args)
        rec = Recorder(traced=False)
        tracing.install(rec)
        try:
            traj = run.case.trajectory(rec)
        finally:
            rec.restore()
            shutil.rmtree(run.workdir, ignore_errors=True)
        if traj.failed:
            print(f"seed {seed}: " + "; ".join(traj.errors), file=sys.stderr)
            return 1
        table[str(seed)] = traj.fingerprint()
        print(json.dumps({seed: table[str(seed)]}), flush=True)
    write_reference(path, table)
    return 0


def write_reference(path: Path, table: dict) -> None:
    """One line per seed, in seed order."""
    lines = [
        f"{json.dumps(seed)}: {json.dumps(table[seed], sort_keys=True)}"
        for seed in sorted(table, key=int)
    ]
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def run_workload(args) -> dict:
    """Measure args.workload, print its metric table and record line, and
    return its result object."""
    try:
        metrics, run = measure(args)
    finally:
        shutil.rmtree(OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}", ignore_errors=True)
    trajs = run.trajectories
    attempted = sum(t.attempted for t in trajs)
    failed = sum(min(t.failed, t.attempted) for t in trajs)
    errors = [e for t in trajs for e in t.errors]
    record = {
        "workload": run.name,
        "seed": args.seed,
        "trace": args.trace,
        "shift_cells": run.case.shift_cells.tolist(),
        "trajectories": len(trajs),
        "steps": sum(len(t.step_s) for t in trajs),
        "tail_percentile": TAIL_PERCENTILE[run.name],
        "setup_samples": len(run.setups) + len(trajs),
        "reference": "recorded" if run.reference is not None else "first trajectory",
        "numpy_warnings": sum(run.warnings.values()),
        "warning_sources": dict(run.warnings),
        "errors": errors,
        "stamp": stamp(),
    }
    print(f"# {run.name}, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'fail_ratio':28s} {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted} steps)")
    print("record " + json.dumps(record, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{run.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    if errors:
        print(f"error: {run.name}: " + "; ".join(errors), file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cutfsi" / "__init__.py").is_file():
        print(f"error: no cutfsi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_reference:
        if args.workload == "all":
            print("error: record references one workload at a time", file=sys.stderr)
            return 2
        return record_reference(args)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
