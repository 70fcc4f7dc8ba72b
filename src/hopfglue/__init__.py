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

Importing the package loads all four layers, and the names below are
plain module attributes.  The function ``hopfglue.sweep`` shares its name
with the submodule: the import below binds the function over the module
the import system sets, and since the submodule is loaded only once it is
never set again.
"""

from .linalg import (
    IntMatrix, NotPrimitiveError, NotUnimodularError, ShapeError, SnfResult,
    UnimodularMatrix, complete_primitive_to_sl3, determinant, extended_gcd,
    gcd_of_k_minors, inverse_unimodular, multiply, random_sl3, sl2_carry_to_e1,
    smith_normal_form,
)
from .abelian import (
    FgAbelianGroup, Presentation, group_from_presentation, is_isomorphic,
    torsion_order,
)
from .gluing import (
    CONVENTION, GluingMatrix, LogTransformParams, NormalForm, NotHomologyHopfError,
    OrientationError, ReductionCertificate, calibrated_zeta_variant,
    certificate_failure, compose_two_fiber, is_extendable, is_homology_hopf,
    normalize_to_sl3, pi1_single_gluing, pi1_two_log_transforms,
    random_completion, reduce_to_normal_form, reduce_to_standard,
    standard_gluing_matrix, verify_certificate,
)
from .sweep import (
    SweepRecord, SweepSpec, SweepSpecError, SweepSummary, count_skipped,
    iter_sweep, summarize, sweep,
)

__version__ = "0.2.0"

#: Every name imported above; the submodules themselves are not exported.
__all__ = sorted(name for name in globals()
                 if name[0] != "_" and name not in ("abelian", "gluing", "linalg"))
