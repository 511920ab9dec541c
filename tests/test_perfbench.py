"""The benchmark reaches the program: `perfbench/run.py` patches program
names and wraps `driver.factor_solve`, passing its keywords through, so a
renamed name or a dropped keyword makes a traced run fail."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["overlap", "flap-churn"])
def test_traced_bench_run_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0.1", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
