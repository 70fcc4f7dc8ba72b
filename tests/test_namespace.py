"""The package namespace: every layer loaded with the package, each name bound once.

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
module = sys.modules["hopfglue.sweep"]
for name in ("SweepRecord", "SweepSpec", "SweepSpecError", "SweepSummary", "count_skipped",
             "iter_sweep", "summarize", "sweep"):
    assert getattr(hopfglue, name) is getattr(module, name), name
print("ok")
"""
    assert _run(probe) == "ok\n"


def test_importing_the_package_leaves_dataclasses_and_inspect_unloaded():
    probe = """
import sys, hopfglue
print([m for m in ("dataclasses", "inspect") if m in sys.modules])
"""
    assert _run(probe) == "[]\n"


def test_abelian_names_are_the_submodule_objects():
    probe = """
import sys, hopfglue
module = sys.modules["hopfglue.abelian"]
for name in ("FgAbelianGroup", "Presentation", "group_from_presentation", "is_isomorphic",
             "torsion_order"):
    assert getattr(hopfglue, name) is getattr(module, name), name
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
import hopfglue
listed = dir(hopfglue)
missing = [n for n in hopfglue.__all__ if n not in listed]
assert missing == [], missing
assert listed == sorted(listed)
print("ok")
"""
    assert _run(probe) == "ok\n"


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


def test_importing_the_package_loads_exactly_the_four_layers():
    probe = """
import sys, hopfglue
print(sorted(m for m in sys.modules if m.split(".")[0] == "hopfglue"))
"""
    assert _run(probe) == ("['hopfglue', 'hopfglue.abelian', 'hopfglue.gluing', "
                           "'hopfglue.linalg', 'hopfglue.sweep']\n")


def test_only_selftest_and_a_smith_form_call_compile_the_elimination():
    # Outside selftest no command computes a Smith form, so no command
    # loads hopfglue._smith; the first smith_normal_form call does.
    probe = """
import contextlib, io, sys
from hopfglue import IntMatrix, smith_normal_form
from hopfglue.cli import main

def run(*argv, stdin=""):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    assert "hopfglue._smith" not in sys.modules, argv
    return out.getvalue()

run("classify", "--matrix", "1,0,2,0,1,1,0,0,1")
run("compose", "--plus", "1,0,2", "--minus", "0,1,3")
cert = run("reduce", "--standard", "--matrix", "1,0,2,0,1,1,0,0,1")
assert run("verify", stdin=cert) == "VALID\\n"
run("sweep", "--direction-plus", "1,0", "--direction-minus", "0,1",
    "--p-range=-3:3", "--q-range=-3:3", "--format", "csv")
run("sweep", "--random", "5", "--seed", "2", "--word-length", "12")
assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal() == (2, 4)
print(sorted(m for m in sys.modules if m.startswith("hopfglue._")))
"""
    assert _run(probe) == "['hopfglue._smith']\n"
    probe = """
import contextlib, io, sys
from hopfglue.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["selftest"]) == 0
print("hopfglue._smith" in sys.modules)
"""
    assert _run(probe) == "True\n"
