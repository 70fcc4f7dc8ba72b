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


# Each exported name with the submodule that defines it, in ``__all__`` order.
EXPORTED = [
    ("CONVENTION", "gluing"), ("FgAbelianGroup", "abelian"),
    ("GluingMatrix", "gluing"), ("IntMatrix", "linalg"),
    ("LogTransformParams", "gluing"), ("NormalForm", "gluing"),
    ("NotHomologyHopfError", "gluing"), ("NotPrimitiveError", "linalg"),
    ("NotUnimodularError", "linalg"), ("OrientationError", "gluing"),
    ("Presentation", "abelian"), ("ReductionCertificate", "gluing"),
    ("ReductionError", "gluing"), ("ShapeError", "linalg"), ("SnfResult", "linalg"),
    ("SweepRecord", "sweep"), ("SweepSpec", "sweep"), ("SweepSpecError", "sweep"),
    ("SweepSummary", "sweep"), ("UnimodularMatrix", "linalg"),
    ("calibrated_zeta_variant", "gluing"), ("certificate_failure", "gluing"),
    ("complete_primitive_to_sl3", "linalg"), ("compose_two_fiber", "gluing"),
    ("count_skipped", "sweep"), ("determinant", "linalg"), ("extended_gcd", "linalg"),
    ("framing_block", "gluing"), ("gcd_of_k_minors", "linalg"),
    ("group_from_presentation", "abelian"), ("inverse_unimodular", "linalg"),
    ("is_extendable", "gluing"), ("is_homology_hopf", "gluing"),
    ("is_isomorphic", "abelian"), ("iter_sweep", "sweep"), ("multiply", "linalg"),
    ("normalize_to_sl3", "gluing"), ("pi1_single_gluing", "gluing"),
    ("pi1_two_log_transforms", "gluing"), ("random_completion", "gluing"),
    ("random_sl3", "linalg"), ("reduce_to_normal_form", "gluing"),
    ("reduce_to_standard", "gluing"), ("sl2_carry_to_e1", "linalg"),
    ("smith_normal_form", "linalg"), ("standard_gluing_matrix", "gluing"),
    ("summarize", "sweep"), ("sweep", "sweep"), ("torsion_order", "abelian"),
    ("verify_certificate", "gluing"), ("zeta_matrix", "gluing"),
]


def test_all_is_the_export_list_and_each_name_is_the_defining_object():
    probe = f"""
import sys, hopfglue
exported = {EXPORTED!r}
assert hopfglue.__all__ == [name for name, _ in exported], hopfglue.__all__
for name, module in exported:
    served = getattr(hopfglue, name)
    assert served is getattr(sys.modules["hopfglue." + module], name), name
print(len(hopfglue.__all__))
"""
    assert _run(probe) == "51\n"


def test_importing_the_package_loads_exactly_gluing_and_linalg():
    probe = """
import sys, hopfglue
print(sorted(m for m in sys.modules if m.split(".")[0] == "hopfglue"))
"""
    assert _run(probe) == "['hopfglue', 'hopfglue.gluing', 'hopfglue.linalg']\n"
