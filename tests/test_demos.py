"""The four demos run to completion and print exactly what they printed
when this test was recorded (sha256 of each stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_exact_integer_linalg.py":
        "ddaa13349a61aba36f2095ec5933a6410a63f8d96de293f879d28dd1dec84882",
    "02_fundamental_groups.py":
        "bc59cafe5149188ec5b9b61d97dc4d9d1755bc5d39a448a8053de608f9d9b93c",
    "03_reduction_certificates.py":
        "dddf2feeacc1dc834a497f2fdbaf3ae1cb878f7e0a7e5eeea6a75e96124d3c4d",
    "04_parameter_sweep.py":
        "708f47198d9e2b8d34fefe858fd8948c06cfef428ff8ea50f7428447cad9fe4e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
