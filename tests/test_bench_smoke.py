"""One short benchmark run per workload: every op checked, no timing gate.

``perfbench/run.py`` checks each op against its integer oracle and the
pass digest against ``perfbench/digests.json``, and exits 1 on either
failure; seed 3 is a recorded seed of every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["tuple-sweep", "matrix-certify", "cli"])
def test_bench_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)
    assert last["attempted"] > 0
