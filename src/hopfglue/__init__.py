"""Exact invariants of 4-manifolds glued from two copies of T^2 x D^2.

The package has four layers:

* :mod:`hopfglue.linalg` — exact arbitrary-precision integer matrices:
  products, determinants, unimodular inverses, extended gcd, Smith normal
  form with transformation matrices, minor gcds, primitive-vector
  completion;
* :mod:`hopfglue.abelian` — finitely generated abelian groups as rank plus
  invariant factors, computed from relation matrices;
* :mod:`hopfglue.gluing` — the topology: gluing matrices of the boundary
  3-torus, fundamental groups, the homology-S^1xS^3 criterion, composition
  of two fiber surgeries, and certified reduction to normal form;
* :mod:`hopfglue.sweep` — deterministic parameter sweeps and summaries.

A command-line interface lives in :mod:`hopfglue.cli` (installed as the
``hopfglue`` script).

Importing the package loads :mod:`hopfglue.linalg`,
:mod:`hopfglue.abelian` and :mod:`hopfglue.gluing`.  Every exported name
is listed once, under its submodule, in ``_EXPORTS``, and is bound on
first access (PEP 562) together with the other names of that submodule.
The names from :mod:`hopfglue.sweep` import their module then, so
commands other than ``sweep`` never load it.  The function
``hopfglue.sweep`` shares its name with that submodule, and stays the
function after the submodule is imported.
"""

import sys
import types
from importlib import import_module

from . import abelian, gluing, linalg

#: Each submodule with the names the package exports from it.
_EXPORTS = {
    "linalg": (
        "IntMatrix", "NotPrimitiveError", "NotUnimodularError", "ShapeError",
        "SnfResult", "UnimodularMatrix", "complete_primitive_to_sl3",
        "determinant", "extended_gcd", "gcd_of_k_minors", "inverse_unimodular",
        "multiply", "random_sl3", "sl2_carry_to_e1", "smith_normal_form",
    ),
    "gluing": (
        "CONVENTION", "GluingMatrix", "LogTransformParams", "NormalForm",
        "NotHomologyHopfError", "OrientationError", "ReductionCertificate",
        "ReductionError", "calibrated_zeta_variant", "certificate_failure",
        "compose_two_fiber", "framing_block", "is_extendable",
        "is_homology_hopf", "normalize_to_sl3", "pi1_single_gluing",
        "pi1_two_log_transforms", "random_completion", "reduce_to_normal_form",
        "reduce_to_standard", "standard_gluing_matrix", "verify_certificate",
        "zeta_matrix",
    ),
    "abelian": (
        "FgAbelianGroup", "Presentation", "group_from_presentation",
        "is_isomorphic", "torsion_order",
    ),
    "sweep": (
        "SweepRecord", "SweepSpec", "SweepSpecError", "SweepSummary",
        "count_skipped", "iter_sweep", "summarize", "sweep",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    submodule = _MODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module("." + submodule, __name__)
    names = globals()
    for n in _EXPORTS[submodule]:
        names[n] = getattr(module, n)
    return names[name]


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


class _Package(types.ModuleType):
    """The package module: importing the submodule ``sweep`` keeps the function."""

    def __setattr__(self, name, value):
        # The import system binds each loaded submodule as an attribute of
        # its package; for hopfglue.sweep that would hide the function.
        if name == "sweep" and isinstance(value, types.ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
