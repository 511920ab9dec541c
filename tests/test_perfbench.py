"""The benchmark reaches the program: `perfbench/run.py` patches program
names and wraps `driver.factor_solve`, passing its keywords through, so a
renamed name or a dropped keyword makes a traced run fail, and a flow
assembly that bypasses the patched name leaves `fluid.ns.calls` at 0.  A
converged Newton attempt refines its last increment on the previous LU, so
every workload factorises less often than it iterates."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
