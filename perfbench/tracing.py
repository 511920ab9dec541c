"""Step timing and per-layer spans, recorded from outside the package.

Every hook replaces a name where its caller looks it up: a function imported
into ``cutfsi.driver``, ``cutfsi.fluid`` or ``cutfsi.cli`` is patched in that
module's namespace, and a method is patched on its class.  The package itself
is never edited.  :class:`Recorder` always times accepted steps; with
``traced=True`` it also keeps one span per hooked call (name, start, end,
parent, step window) in memory, to be written out when the run ends.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from pathlib import Path

clock = time.perf_counter

# Layer spans inside a step and the metric that reports their time: "busy"
# is the inclusive duration, "self" the duration minus hooked children.
STEP_LAYERS = {
    "cutting": "busy",
    "projection": "busy",
    "fluid.ns": "self",
    "quadrature": "busy",
    "fluid.ghost": "busy",
    "coupling.fs": "busy",
    "coupling.ff": "busy",
    "solid": "busy",
    "linalg.factor": "busy",
    "linalg.compose": "busy",
    "driver.assemble": "self",
}

# Layer self times plus driver.other_s must reproduce the summed step wall
# time to this share; only a span that no metric reports, or spans that
# overlap, can break the sum.
ACCOUNTING_TOL = 1e-3


class GuardError(RuntimeError):
    """A span or counter contradicts the benchmark's own accounting."""


class Recorder:
    """Collects step times, step reports, and (when traced) layer spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []  # [name, start, end, parent, window]
        self._stack: list[int] = []
        self.window = -1  # index of the current step window, -1 in set-up
        self.in_loop = False
        self.counters: Counter = Counter()
        self._cut_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Start a new trajectory: step records and markers are cleared,
        spans and counters accumulate across trajectories."""
        self.step_times: list[float] = []
        self.reports: list = []
        self.run_entry = None
        self.run_exit = None

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------

    def open_span(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        window = self.window if self.in_loop else -1
        record = [name, clock(), 0.0, parent, window]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close_span(self, record: list) -> None:
        record[2] = clock()
        self._stack.pop()

    def span(self, name: str, fn, note=None):
        """Wrap `fn` in a span; `note(args, kwargs, result)` runs after the
        span closes and may add to the counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close_span(record)
            if note is not None:
                note(args, kwargs, out)
            return out

        return wrapper

    def count_in_step(self, key: str, amount=1) -> None:
        if self.in_step():
            self.counters[key] += amount

    def in_step(self) -> bool:
        return any(self.spans[i][0] == "step" for i in self._stack)

    def note_cut(self, loop_vertices, cfg, status_cut) -> None:
        if not self.in_step():
            return
        key = None if loop_vertices is None else bytes(loop_vertices.tobytes())
        if key in self._cut_keys:
            self.counters["cutting.repeats"] += 1
        self._cut_keys.add(key)
        self.counters["cutting.cut_elems"] += int((cfg.status == status_cut).sum())

    # -- steps ---------------------------------------------------------------

    def begin_step(self):
        self.window += 1
        self._cut_keys = set()
        return self.open_span("step") if self.traced else clock()

    def end_step(self, token, report=None) -> None:
        if self.traced:
            self.close_span(token)
            self.step_times.append(token[2] - token[1])
        else:
            self.step_times.append(clock() - token)
        self.reports.append(report)

    def timed_step(self, fn, *args, **kwargs):
        token = self.begin_step()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            if self.traced:
                self.close_span(token)
            raise
        self.end_step(token, out)
        return out

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per-layer call counts and summed times over every traced step,
        plus the step total and the time no span inside a step covers."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        inside = [False] * n
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                inside[i] = inside[parent] or spans[parent][0] == "step"
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_time: Counter = Counter()
        step_total = other = 0.0
        n_steps = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == "step":
                n_steps += 1
                step_total += end - start
                other += end - start - child_time[i]
            elif inside[i]:
                calls[name] += 1
                busy[name] += end - start
                self_time[name] += end - start - child_time[i]
        return {
            "steps": n_steps,
            "calls": calls,
            "busy": busy,
            "self": self_time,
            "step_total": step_total,
            "other": other,
        }

    def check_nesting(self) -> None:
        """Every span lies inside its parent and siblings do not overlap."""
        last_end: dict[int, float] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                raise GuardError(f"span {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    raise GuardError(f"span {name} leaves its parent {p[0]}")
            if start < last_end.get(parent, -math.inf):
                raise GuardError(f"span {name} overlaps an earlier sibling")
            last_end[parent] = end

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write("index,name,start_s,end_s,parent,step\n")
            for i, (name, start, end, parent, window) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{window}\n"
                )


def install(recorder: Recorder) -> None:
    """Hook the step and run entry points, and with tracing every layer."""
    from cutfsi import cli, config, cutting, driver, fluid, linalg, output
    from cutfsi import projection, solid

    rec = recorder
    step_orig = driver.FsiDriver.step
    run_orig = driver.FsiDriver.run

    def step(self, state):
        return rec.timed_step(step_orig, self, state)

    def run(self, state=None, n_steps=None, on_step=None):
        rec.run_entry = clock()
        rec.in_loop = True
        if rec.traced and on_step is not None:
            on_step = rec.span("output", on_step)
        try:
            return run_orig(self, state, n_steps, on_step)
        finally:
            rec.in_loop = False
            rec.run_exit = clock()

    rec.patch(driver.FsiDriver, "step", step)
    rec.patch(driver.FsiDriver, "run", run)
    if not rec.traced:
        return

    def on_cut(args, kwargs, cfg):
        loop = args[1] if len(args) > 1 else kwargs.get("loop_vertices")
        rec.note_cut(loop, cfg, cutting.ElemStatus.CUT)

    def on_projector(args, kwargs, _):
        rec.count_in_step(
            "projection.extended_nodes",
            int(args[0].correspondence.extension_nodes.size),
        )

    def on_fs(args, kwargs, _):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        rec.count_in_step("coupling.segments", len(cfg.segments))

    def on_factor(args, kwargs, _):
        A = args[0]
        rec.count_in_step("linalg.dofs", int(A.shape[0]))
        rec.count_in_step("linalg.nnz", int(A.nnz))

    def on_snapshot(args, kwargs, paths):
        if rec.in_loop:
            rec.counters["output.bytes"] += sum(Path(p).stat().st_size for p in paths)

    def append(self, row):
        before = self.path.stat().st_size
        append_orig(self, row)
        if rec.in_loop:
            rec.counters["output.bytes"] += self.path.stat().st_size - before

    span = rec.span
    rec.patch(
        driver, "build_cut_configuration",
        span("cutting", driver.build_cut_configuration, on_cut),
    )
    rec.patch(
        projection.SpaceProjector, "__init__",
        span("projection", projection.SpaceProjector.__init__, on_projector),
    )
    rec.patch(
        projection.SpaceProjector, "apply",
        span("projection", projection.SpaceProjector.apply),
    )
    rec.patch(driver, "assemble_navier_stokes", span("fluid.ns", driver.assemble_navier_stokes))
    rec.patch(fluid, "polygon_rule", span("quadrature", fluid.polygon_rule))
    rec.patch(
        driver, "assemble_ghost_penalties",
        span("fluid.ghost", driver.assemble_ghost_penalties),
    )
    rec.patch(
        driver, "assemble_fs_coupling",
        span("coupling.fs", driver.assemble_fs_coupling, on_fs),
    )
    rec.patch(driver, "assemble_ff_coupling", span("coupling.ff", driver.assemble_ff_coupling))
    for name in ("internal_force", "mass_matrix"):
        rec.patch(solid.SolidModel, name, span("solid", getattr(solid.SolidModel, name)))
    rec.patch(driver, "factor_solve", span("linalg.factor", driver.factor_solve, on_factor))
    rec.patch(linalg.BlockSystem, "assemble", span("linalg.compose", linalg.BlockSystem.assemble))
    for name in ("assemble_coupled_system", "assemble_overlap_system"):
        rec.patch(driver, name, span("driver.assemble", getattr(driver, name)))
    rec.patch(cli, "parse_config", span("config", cli.parse_config))
    for name in ("build_problem", "build_driver_config"):
        rec.patch(config.CaseConfig, name, span("config", getattr(config.CaseConfig, name)))
    rec.patch(cli, "write_snapshot", span("output.snapshot", cli.write_snapshot, on_snapshot))
    append_orig = output.DiagnosticsWriter.append
    rec.patch(output.DiagnosticsWriter, "append", span("output.diagnostics", append))


def counted(recorder: Recorder, fn):
    """Count in-step calls of a callable the workload hands to the program."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count_in_step("fluid.body_force_calls")
        return fn(*args, **kwargs)

    return wrapper
