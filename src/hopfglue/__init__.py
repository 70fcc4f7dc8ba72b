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

Importing the package loads :mod:`hopfglue.linalg` and
:mod:`hopfglue.gluing`.  The names exported here from
:mod:`hopfglue.abelian` and :mod:`hopfglue.sweep` load their module on
first access (PEP 562), and so does building the first group, so
``reduce`` and ``verify``, which build none, import neither.  The
function ``hopfglue.sweep`` shares its name with that submodule, and
stays the function after the submodule is imported.
"""

import sys
import types
from importlib import import_module

from .gluing import (
    CONVENTION,
    GluingMatrix,
    LogTransformParams,
    NormalForm,
    NotHomologyHopfError,
    OrientationError,
    ReductionCertificate,
    ReductionError,
    calibrated_zeta_variant,
    certificate_failure,
    compose_two_fiber,
    framing_block,
    is_extendable,
    is_homology_hopf,
    normalize_to_sl3,
    pi1_single_gluing,
    pi1_two_log_transforms,
    random_completion,
    reduce_to_normal_form,
    reduce_to_standard,
    standard_gluing_matrix,
    verify_certificate,
    zeta_matrix,
)
from .linalg import (
    IntMatrix,
    NotPrimitiveError,
    NotUnimodularError,
    ShapeError,
    SnfResult,
    UnimodularMatrix,
    complete_primitive_to_sl3,
    determinant,
    extended_gcd,
    gcd_of_k_minors,
    inverse_unimodular,
    multiply,
    random_sl3,
    sl2_carry_to_e1,
    smith_normal_form,
)

#: The exported names loaded on first access, each with its submodule.
_LAZY = {
    "FgAbelianGroup": "abelian",
    "Presentation": "abelian",
    "group_from_presentation": "abelian",
    "is_isomorphic": "abelian",
    "torsion_order": "abelian",
    "SweepRecord": "sweep",
    "SweepSpec": "sweep",
    "SweepSpecError": "sweep",
    "SweepSummary": "sweep",
    "count_skipped": "sweep",
    "iter_sweep": "sweep",
    "summarize": "sweep",
    "sweep": "sweep",
}

__version__ = "0.1.0"

__all__ = [
    "CONVENTION",
    "FgAbelianGroup",
    "GluingMatrix",
    "IntMatrix",
    "LogTransformParams",
    "NormalForm",
    "NotHomologyHopfError",
    "NotPrimitiveError",
    "NotUnimodularError",
    "OrientationError",
    "Presentation",
    "ReductionCertificate",
    "ReductionError",
    "ShapeError",
    "SnfResult",
    "SweepRecord",
    "SweepSpec",
    "SweepSpecError",
    "SweepSummary",
    "UnimodularMatrix",
    "calibrated_zeta_variant",
    "certificate_failure",
    "complete_primitive_to_sl3",
    "compose_two_fiber",
    "count_skipped",
    "determinant",
    "extended_gcd",
    "framing_block",
    "gcd_of_k_minors",
    "group_from_presentation",
    "inverse_unimodular",
    "is_extendable",
    "is_homology_hopf",
    "is_isomorphic",
    "iter_sweep",
    "multiply",
    "normalize_to_sl3",
    "pi1_single_gluing",
    "pi1_two_log_transforms",
    "random_completion",
    "random_sl3",
    "reduce_to_normal_form",
    "reduce_to_standard",
    "sl2_carry_to_e1",
    "smith_normal_form",
    "standard_gluing_matrix",
    "summarize",
    "sweep",
    "torsion_order",
    "verify_certificate",
    "zeta_matrix",
]


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module("." + submodule, __name__)
    names = globals()
    for n, m in _LAZY.items():
        if m == submodule:
            names[n] = getattr(module, n)
    return names[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


class _Package(types.ModuleType):
    """The package module: importing the submodule ``sweep`` keeps the function."""

    def __setattr__(self, name, value):
        # The import system binds each loaded submodule as an attribute of
        # its package; for hopfglue.sweep that would hide the function.
        if name == "sweep" and isinstance(value, types.ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
