"""The benchmark reaches the program: `perfbench/run.py` patches program
names and wraps `driver.factor_solve`, passing its keywords through, so a
renamed name or a dropped keyword makes a traced run fail, and a flow
assembly that bypasses the patched name leaves `fluid.ns.calls` at 0.  A
converged Newton attempt refines its last increment on the previous LU, so
every workload factorises less often than it iterates.  The traced interface
segment count per step is `len(cfg.segments)` at every fluid-solid coupling
call, pinned at seed 0 so that it stays the number of segments."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# `coupling.segments` per step at seed 0: 3008 segments over the 24 steps of
# one flap-churn trajectory, 630 over the 5 of flap-fine, none on overlap
SEGMENTS_PER_STEP = {"overlap": 0.0, "flap-churn": 3008 / 24, "flap-fine": 630 / 5}


@pytest.mark.parametrize("workload", ["overlap", "flap-churn", "flap-fine"])
def test_traced_bench_run_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0.1", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["fluid.ns.calls"]["value"] > 0
    assert metrics["linalg.factor.calls"]["value"] < metrics["driver.newton_iters"]["value"]
    assert metrics["coupling.segments"]["value"] == SEGMENTS_PER_STEP[workload]
