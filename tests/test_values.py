"""The eight result types are immutable value classes with dataclass manners.

``Presentation``, ``FgAbelianGroup``, ``SnfResult``, ``NormalForm``,
``ReductionCertificate``, ``SweepSpec``, ``SweepRecord`` and ``SweepSummary``
keep the behaviour they had as frozen dataclasses: the same fields,
construction, repr, equality, hash and immutability.  The reprs below were
recorded while they were still dataclasses.  Each is now a tuple of its
fields, which it names in order as ``__match_args__``.
"""

import copy
import dataclasses
import operator
import pickle

import pytest

from hopfglue.abelian import FgAbelianGroup, Presentation
from hopfglue.gluing import (
    GluingMatrix,
    NormalForm,
    ReductionCertificate,
    group_of_mu,
    normalize_to_sl3,
    reduce_to_normal_form,
    reduce_to_standard,
    standard_gluing_matrix,
)
from hopfglue.linalg import (
    IntMatrix,
    ShapeError,
    SnfResult,
    _Value,
    random_sl3,
    smith_normal_form,
)
from hopfglue.sweep import SweepRecord, SweepSpec, SweepSummary, summarize, sweep

_GLUING = normalize_to_sl3(GluingMatrix(random_sl3(5, 12)))


def _values():
    """(value, its repr as a frozen dataclass, its fields in order)."""
    nf, cert = reduce_to_normal_form(_GLUING)
    std = reduce_to_standard(standard_gluing_matrix())
    snf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    n0 = IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    tuple_record = sweep(SweepSpec.tuples((1, 1), (0, 0), (0, 2), (1, 1), (0, 0), (0, 2)))[4]
    matrix_record = sweep(SweepSpec.matrices(1, seed=2))[0]
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
        (FgAbelianGroup(1, ()), "FgAbelianGroup(rank=1, invariant_factors=())", (1, ())),
        (FgAbelianGroup(0, [2, 6]), "FgAbelianGroup(rank=0, invariant_factors=(2, 6))",
         (0, (2, 6))),
        # built by group_of_mu, through the checked constructor
        (group_of_mu(6), "FgAbelianGroup(rank=1, invariant_factors=(6,))", (1, (6,))),
        (SweepSpec(),
         "SweepSpec(mode='tuple', a_range=(0, 0), b_range=(0, 0), p_range=(0, 0),"
         " c_range=(0, 0), d_range=(0, 0), q_range=(0, 0), sample_count=0, seed=0,"
         " word_length=12, homology_hopf_only=False)",
         ("tuple", (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), 0, 0, 12, False)),
        (SweepSpec.tuples([1, 1], (0, 0), (0, 2), (1, 1), (0, 0), (0, 2),
                          homology_hopf_only=True),
         "SweepSpec(mode='tuple', a_range=(1, 1), b_range=(0, 0), p_range=(0, 2),"
         " c_range=(1, 1), d_range=(0, 0), q_range=(0, 2), sample_count=0, seed=0,"
         " word_length=12, homology_hopf_only=True)",
         ("tuple", (1, 1), (0, 0), (0, 2), (1, 1), (0, 0), (0, 2), 0, 0, 12, True)),
        (SweepSpec.matrices(5, seed=3, word_length=7),
         "SweepSpec(mode='matrix', a_range=(0, 0), b_range=(0, 0), p_range=(0, 0),"
         " c_range=(0, 0), d_range=(0, 0), q_range=(0, 0), sample_count=5, seed=3,"
         " word_length=7, homology_hopf_only=False)",
         ("matrix", (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), 5, 3, 7, False)),
        # built unchecked by the tuple and the matrix sweep
        (tuple_record,
         "SweepRecord(mu=3, homology_hopf=False,"
         " group=FgAbelianGroup(rank=1, invariant_factors=(3,)),"
         " params=(1, 0, 1, 1, 0, 1), matrix=None)",
         (3, False, FgAbelianGroup(1, (3,)), (1, 0, 1, 1, 0, 1), None)),
        (matrix_record,
         "SweepRecord(mu=1, homology_hopf=True,"
         " group=FgAbelianGroup(rank=1, invariant_factors=()), params=None,"
         " matrix=IntMatrix([[7, 10, 3], [3, 5, 1], [-1, -2, 0]]))",
         (1, True, FgAbelianGroup(1, ()), None,
          IntMatrix([[7, 10, 3], [3, 5, 1], [-1, -2, 0]]))),
        (SweepRecord(5, False, FgAbelianGroup(1, (5,))),
         "SweepRecord(mu=5, homology_hopf=False,"
         " group=FgAbelianGroup(rank=1, invariant_factors=(5,)), params=None, matrix=None)",
         (5, False, FgAbelianGroup(1, (5,)), None, None)),
    ]


VALUES = _values()

#: Each class's field names, in order, as the dataclasses declared them.
FIELD_NAMES = {
    Presentation: ("num_generators", "relations"),
    FgAbelianGroup: ("rank", "invariant_factors"),
    SnfResult: ("u", "d", "v"),
    NormalForm: ("block",),
    ReductionCertificate: ("input", "left_factors", "right_factors", "output"),
    SweepSpec: ("mode", "a_range", "b_range", "p_range", "c_range", "d_range", "q_range",
                "sample_count", "seed", "word_length", "homology_hopf_only"),
    SweepRecord: ("mu", "homology_hopf", "group", "params", "matrix"),
    SweepSummary: ("total", "homology_hopf_count", "mu_counts"),
}
IDS = [f"{type(v).__name__}-{i}" for i, (v, _, _) in enumerate(VALUES)]


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_repr_is_the_recorded_dataclass_repr(value, text, fields):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_fields_equality_and_hash(value, text, fields):
    cls = type(value)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
    assert cls.__slots__ == ()
    assert cls.__match_args__ == FIELD_NAMES[cls]
    twin = cls(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields and value != object()
    assert twin == cls(**dict(zip(cls.__match_args__, fields)))


def test_a_differing_field_makes_values_unequal():
    assert Presentation(2, [(1, 0)]) != Presentation(2, [(2, 0)])
    assert SweepSummary(1, 0) != SweepSummary(1, 1)
    assert NormalForm([[1, 1], [0, 1]]) != NormalForm([[1, 0], [0, 1]])
    i3 = IntMatrix.identity(3)
    assert ReductionCertificate(i3) != ReductionCertificate(i3, output=i3)
    assert FgAbelianGroup(1, (2,)) != FgAbelianGroup(1, (4,))
    assert SweepSpec() != SweepSpec(homology_hopf_only=True)
    g = FgAbelianGroup(1, ())
    assert SweepRecord(1, True, g) != SweepRecord(1, True, g, params=(1, 0, 0, 0, 1, 0))
    # Same fields in another class are not equal either.
    assert Presentation(0) != SweepSummary(0, 0)
    assert FgAbelianGroup(0) != Presentation(0)


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text, fields):
    for name in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    assert tuple(getattr(value, name) for name in type(value).__match_args__) == fields


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal_values(value, text, fields):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


# --- manners that come with holding the fields as tuple items -----------------


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_a_value_is_the_tuple_of_its_fields(value, text, fields):
    assert isinstance(value, tuple) and tuple(value) == fields
    assert len(value) == len(type(value).__match_args__)
    assert type(value + ()) is tuple and value + () == fields
    assert type(value * 1) is tuple


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_a_value_never_equals_another_tuple(value, text, fields):
    plain = tuple(value)
    assert value != plain and plain != value
    assert not (value == plain) and not (plain == value)
    # A value of another class with the same fields is not equal either.
    other_class = type("Other", (_Value,), {"__slots__": (),
                                            "__match_args__": type(value).__match_args__})
    other = tuple.__new__(other_class, fields)
    assert value != other and other != value
    assert not (value == other) and not (other == value)


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_values_are_not_ordered(value, text, fields):
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError, match="not supported between instances"):
            compare(value, value)


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_pickles_on_every_protocol_rebuild_the_value(value, text, fields):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(value, protocol))
        assert type(twin) is type(value) and twin == value and repr(twin) == text


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_a_class_pattern_binds_the_first_fields(value, text, fields):
    cls = type(value)
    match value:
        case NormalForm(block):
            bound = (block,)
        case cls(first, second):
            bound = (first, second)
        case _:
            bound = None
    assert bound == fields[:2]
    match tuple(value):
        case cls():
            pytest.fail("a plain tuple matched a value class pattern")


def test_construction_defaults_and_conversions():
    assert Presentation(num_generators=2).relations == ()
    assert Presentation(2, [[1, 2]]).relations == ((1, 2),)
    assert SweepSummary(total=4, homology_hopf_count=2).mu_counts == ()
    cert = ReductionCertificate(input=IntMatrix.identity(3), left_factors=[], right_factors=[])
    assert (cert.left_factors, cert.right_factors, cert.output) == ((), (), None)
    assert NormalForm(block=[[2, 1], [1, 1]]).block == IntMatrix([[2, 1], [1, 1]])
    assert FgAbelianGroup(rank=2) == FgAbelianGroup(2, ())
    assert FgAbelianGroup(rank=0, invariant_factors=[2, 4]).invariant_factors == (2, 4)
    record = SweepRecord(mu=0, homology_hopf=False, group=FgAbelianGroup(2))
    assert (record.params, record.matrix) == (None, None)
    assert SweepSpec(mode="matrix", sample_count=3) == SweepSpec.matrices(3)


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
