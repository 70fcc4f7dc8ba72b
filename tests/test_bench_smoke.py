"""One short benchmark run per workload: every op checked, no timing gate.

``perfbench/run.py`` checks each op against its integer oracle and the
pass digest against ``perfbench/digests.json``, and exits 1 on either
failure; seed 3 is a recorded seed of every workload.
"""

import json
import os
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


def test_matrix_certify_runs_without_a_tracer():
    # The op reads hopfglue.sweep from sys.modules; importing the package
    # loads it, so no tracer has to import it first.
    probe = """
import workloads
workloads.import_for("matrix-certify")
workload = workloads.WORKLOADS["matrix-certify"](3)
workload.run(workload.pool[0])
print("ok")
"""
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
