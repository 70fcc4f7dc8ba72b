"""The five result records are immutable value classes with dataclass manners.

``Presentation``, ``SnfResult``, ``NormalForm``, ``ReductionCertificate`` and
``SweepSummary`` keep the behaviour they had as frozen dataclasses: the same
fields, construction, repr, equality, hash and immutability.  The reprs
below were recorded while they were still dataclasses.
"""

import copy
import dataclasses
import pickle

import pytest

from hopfglue.abelian import Presentation
from hopfglue.gluing import (
    GluingMatrix,
    NormalForm,
    ReductionCertificate,
    normalize_to_sl3,
    reduce_to_normal_form,
    reduce_to_standard,
    standard_gluing_matrix,
)
from hopfglue.linalg import IntMatrix, ShapeError, SnfResult, random_sl3, smith_normal_form
from hopfglue.sweep import SweepSummary, summarize

_GLUING = normalize_to_sl3(GluingMatrix(random_sl3(5, 12)))


def _values():
    """(value, its repr as a frozen dataclass, its fields in order)."""
    nf, cert = reduce_to_normal_form(_GLUING)
    std = reduce_to_standard(standard_gluing_matrix())
    snf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    n0 = IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    return [
        (Presentation(3, [(1, 0, -1), (0, 0, 1)]),
         "Presentation(num_generators=3, relations=((1, 0, -1), (0, 0, 1)))",
         (3, ((1, 0, -1), (0, 0, 1)))),
        (Presentation(0), "Presentation(num_generators=0, relations=())", (0, ())),
        (snf,
         "SnfResult(u=UnimodularMatrix([[1, 0], [3, -1]]), d=IntMatrix([[2, 0], [0, 4]]),"
         " v=UnimodularMatrix([[1, -2], [0, 1]]))",
         (snf.u, snf.d, snf.v)),
        (nf, "NormalForm(block=IntMatrix([[1, -1], [-3, 4]]))", (nf.block,)),
        (NormalForm([[1, 0], [0, 1]]), "NormalForm(block=IntMatrix([[1, 0], [0, 1]]))",
         (IntMatrix([[1, 0], [0, 1]]),)),
        (cert,
         "ReductionCertificate(input=IntMatrix([[-3, 0, 2], [0, 2, -1], [-1, 1, 0]]),"
         " left_factors=(IntMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]]),"
         " IntMatrix([[0, -1, 0], [1, 2, 0], [0, 0, 1]])),"
         " right_factors=(IntMatrix([[1, 0, 0], [0, 1, 0], [1, 1, 1]]),),"
         " output=IntMatrix([[1, -1, 1], [-3, 4, 0], [0, 0, 1]]))",
         (cert.input, cert.left_factors, cert.right_factors, cert.output)),
        (std,
         "ReductionCertificate(input=IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),"
         " left_factors=(), right_factors=(),"
         " output=IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))",
         (n0, (), (), n0)),
        (ReductionCertificate(IntMatrix.identity(3)),
         "ReductionCertificate(input=IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),"
         " left_factors=(), right_factors=(), output=None)",
         (IntMatrix.identity(3), (), (), None)),
        (SweepSummary(3, 1, ((0, 1), (1, 1), (5, 1))),
         "SweepSummary(total=3, homology_hopf_count=1, mu_counts=((0, 1), (1, 1), (5, 1)))",
         (3, 1, ((0, 1), (1, 1), (5, 1)))),
        (summarize([]), "SweepSummary(total=0, homology_hopf_count=0, mu_counts=())",
         (0, 0, ())),
    ]


VALUES = _values()
IDS = [f"{type(v).__name__}-{i}" for i, (v, _, _) in enumerate(VALUES)]


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_repr_is_the_recorded_dataclass_repr(value, text, fields):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_fields_equality_and_hash(value, text, fields):
    cls = type(value)
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields
    assert cls.__match_args__ == cls.__slots__
    twin = cls(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields and value != object()
    assert twin == cls(**dict(zip(cls.__slots__, fields)))


def test_a_differing_field_makes_values_unequal():
    assert Presentation(2, [(1, 0)]) != Presentation(2, [(2, 0)])
    assert SweepSummary(1, 0) != SweepSummary(1, 1)
    assert NormalForm([[1, 1], [0, 1]]) != NormalForm([[1, 0], [0, 1]])
    i3 = IntMatrix.identity(3)
    assert ReductionCertificate(i3) != ReductionCertificate(i3, output=i3)
    # Same fields in another class are not equal either.
    assert Presentation(0) != SweepSummary(0, 0)


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text, fields):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    assert tuple(getattr(value, name) for name in type(value).__slots__) == fields


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal_values(value, text, fields):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_construction_defaults_and_conversions():
    assert Presentation(num_generators=2).relations == ()
    assert Presentation(2, [[1, 2]]).relations == ((1, 2),)
    assert SweepSummary(total=4, homology_hopf_count=2).mu_counts == ()
    cert = ReductionCertificate(input=IntMatrix.identity(3), left_factors=[], right_factors=[])
    assert (cert.left_factors, cert.right_factors, cert.output) == ((), (), None)
    assert NormalForm(block=[[2, 1], [1, 1]]).block == IntMatrix([[2, 1], [1, 1]])


def test_construction_keeps_its_validation():
    with pytest.raises(ValueError, match="generators must be >= 0"):
        Presentation(-1)
    with pytest.raises(ShapeError):
        Presentation(3, [(1, 2)])
    with pytest.raises(ValueError, match="2x2"):
        NormalForm(IntMatrix.identity(3))
    with pytest.raises(ValueError, match="determinant 1"):
        NormalForm([[1, 0], [0, -1]])
    with pytest.raises(TypeError):
        SnfResult(None, None)


def test_they_are_no_longer_dataclasses():
    for value, _, _ in VALUES:
        assert not dataclasses.is_dataclass(value)
