"""The benchmark's workloads at their small --smoke sizes.

Each workload runs once in a fresh process, exactly as the benchmark
starts it, and every checked operation must match the committed
reference values.  This catches a change that moves an output off the
reference before a full benchmark run does.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


@pytest.mark.parametrize("workload", ["rho6", "certify", "deep7"])
def test_smoke_workload_matches_reference(workload):
    with open(REFERENCE) as fh:
        expected = len(json.load(fh)["smoke"][workload])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "child.py"),
         "--workload", workload, "--seed", "1", "--smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == expected
