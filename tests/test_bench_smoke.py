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


def _traced_seed3_metrics(workload):
    """The metrics of a one-second traced seed-3 run that checked every op."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)
    return {name: metric["value"] for name, metric in last["metrics"].items()}


#: Seed-3 per-layer counts of matrix-certify's three traced pool passes.
TRACED_MATRIX_CERTIFY_COUNTS = {
    "linalg.random_sl3.calls": 3600,
    "gluing.certificate_failure.calls": 2640,
    "linalg.determinant.calls": 7920,
    "linalg.UnimodularMatrix.constructed": 7920,
    "gluing.certificate_factors": 10152,
}


def test_matrix_certify_traced_run_makes_the_pinned_calls():
    metrics = _traced_seed3_metrics("matrix-certify")
    counts = {name: metrics[name] for name in TRACED_MATRIX_CERTIFY_COUNTS}
    assert counts == TRACED_MATRIX_CERTIFY_COUNTS


#: Seed-3 per-layer counts of tuple-sweep's three traced pool passes: mu is
#: closed-form, so no SNF, presentation, pi_1 or random gluing is computed.
TRACED_TUPLE_SWEEP_COUNTS = {
    "sweep.sweep.calls": 90,
    "sweep.cells_grid": 39690,
    "sweep.cells_evaluated": 29988,
    "linalg.smith_normal_form.calls": 0,
    "abelian.group_from_presentation.calls": 0,
    "gluing.pi1_two_log_transforms.calls": 0,
    "linalg.random_sl3.calls": 0,
}


def test_tuple_sweep_traced_run_makes_the_pinned_calls():
    metrics = _traced_seed3_metrics("tuple-sweep")
    counts = {name: metrics[name] for name in TRACED_TUPLE_SWEEP_COUNTS}
    assert counts == TRACED_TUPLE_SWEEP_COUNTS
    # The tracer still wraps summarize, so its self time is measured.
    assert metrics["sweep.summarize.self_ms"] > 0
