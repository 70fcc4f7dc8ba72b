"""The package namespace: eager layers, and the abelian and sweep names loaded on first use.

The checks that depend on what is already imported run in a fresh
interpreter, so no earlier import can hide what loading the package does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(probe):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sweep_stays_the_function_after_the_submodule_is_imported():
    probe = """
import sys, types
import hopfglue.sweep
from hopfglue import sweep
import hopfglue.sweep as sw
module = sys.modules["hopfglue.sweep"]
assert isinstance(module, types.ModuleType)
assert sweep is module.sweep and sw is sweep
assert callable(sweep) and not isinstance(sweep, types.ModuleType)
print("ok")
"""
    assert _run(probe) == "ok\n"


def test_sweep_names_are_the_submodule_objects():
    probe = """
import sys, hopfglue
assert "hopfglue.sweep" not in sys.modules
assert hopfglue.SweepSpec is sys.modules["hopfglue.sweep"].SweepSpec
module = sys.modules["hopfglue.sweep"]
for name in ("SweepRecord", "SweepSpecError", "SweepSummary", "count_skipped",
             "iter_sweep", "summarize", "sweep"):
    assert getattr(hopfglue, name) is getattr(module, name), name
print("ok")
"""
    assert _run(probe) == "ok\n"


def test_importing_the_package_leaves_abelian_unloaded():
    probe = """
import sys, hopfglue
print("hopfglue.abelian" in sys.modules, "dataclasses" in sys.modules)
"""
    assert _run(probe) == "False False\n"


def test_abelian_names_are_the_submodule_objects():
    probe = """
import sys, hopfglue
assert "hopfglue.abelian" not in sys.modules
assert hopfglue.FgAbelianGroup is sys.modules["hopfglue.abelian"].FgAbelianGroup
module = sys.modules["hopfglue.abelian"]
for name in ("Presentation", "group_from_presentation", "is_isomorphic",
             "torsion_order"):
    assert getattr(hopfglue, name) is getattr(module, name), name
assert "hopfglue.sweep" not in sys.modules
print("ok")
"""
    assert _run(probe) == "ok\n"


def test_star_import_binds_every_exported_name():
    probe = """
import hopfglue
names = {}
exec("from hopfglue import *", names)
missing = [n for n in hopfglue.__all__ if n not in names]
assert missing == [], missing
assert names["sweep"] is hopfglue.sweep
print("ok")
"""
    assert _run(probe) == "ok\n"


def test_dir_lists_every_exported_name_before_any_is_loaded():
    probe = """
import sys, hopfglue
listed = dir(hopfglue)
assert "hopfglue.sweep" not in sys.modules
missing = [n for n in hopfglue.__all__ if n not in listed]
assert missing == [], missing
assert listed == sorted(listed)
print("ok")
"""
    assert _run(probe) == "ok\n"


def test_dir_lists_the_lazy_names_before_their_modules_load():
    probe = """
import sys, hopfglue
listed = dir(hopfglue)
lazy = ("FgAbelianGroup", "Presentation", "group_from_presentation",
        "is_isomorphic", "torsion_order", "SweepRecord", "SweepSpec",
        "SweepSpecError", "SweepSummary", "count_skipped", "iter_sweep",
        "summarize", "sweep")
assert not {"hopfglue.abelian", "hopfglue.sweep"} & set(sys.modules)
missing = [n for n in lazy if n not in listed]
assert missing == [], missing
assert not {"hopfglue.abelian", "hopfglue.sweep"} & set(sys.modules)
print(len(lazy))
"""
    assert _run(probe) == "13\n"


def test_unknown_attribute_raises_attribute_error():
    import hopfglue

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hopfglue.no_such_name
    assert not hasattr(hopfglue, "SweepSpecs")
