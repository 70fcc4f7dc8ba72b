import dataclasses
import itertools
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from oracles import loop_summarize

from hopfglue import gluing
from hopfglue.abelian import FgAbelianGroup, Presentation, group_from_presentation, torsion_order
from hopfglue.sweep import (
    SweepRecord,
    SweepSpec,
    SweepSpecError,
    SweepSummary,
    count_skipped,
    iter_sweep,
    summarize,
    sweep,
)

sweep_module = sys.modules["hopfglue.sweep"]

SRC = Path(__file__).resolve().parent.parent / "src"


def nine_cell_spec(**kw):
    return SweepSpec.tuples(
        a=(1, 1), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2), **kw
    )


def with_hopf_only(spec, hopf_only=True):
    """The tuple spec ``spec`` with its ``homology_hopf_only`` set."""
    return SweepSpec.tuples(spec.a_range, spec.b_range, spec.p_range,
                            spec.c_range, spec.d_range, spec.q_range,
                            homology_hopf_only=hopf_only)


def test_empty_matrix_sweep():
    assert sweep(SweepSpec.matrices(0)) == []


def test_nine_cell_mu_table():
    records = sweep(nine_cell_spec())
    assert len(records) == 9
    for r in records:
        _, _, p, _, _, q = r.params
        assert r.mu == abs(p + q + p * q)
        assert r.homology_hopf == (r.mu == 1)


def test_tuple_sweep_order_is_lexicographic():
    records = sweep(nine_cell_spec())
    params = [r.params for r in records]
    assert params == sorted(params)


def test_records_are_internally_consistent():
    for r in sweep(nine_cell_spec()) + sweep(SweepSpec.matrices(50, seed=5)):
        if r.group.rank == 2:
            assert r.mu == 0
        else:
            assert r.group.rank == 1
            assert r.mu == torsion_order(r.group)
        assert r.homology_hopf == (r.mu == 1)


def test_sweep_determinism():
    a = sweep(nine_cell_spec())
    b = sweep(nine_cell_spec())
    assert a == b
    c = sweep(SweepSpec.matrices(40, seed=9))
    d = sweep(SweepSpec.matrices(40, seed=9))
    assert c == d


def test_parallel_equals_serial():
    spec = SweepSpec.tuples(a=(-1, 1), b=(-1, 1), p=(0, 2), c=(1, 1), d=(0, 1), q=(0, 2))
    assert sweep(spec, parallel=True) == sweep(spec, parallel=False)
    mspec = SweepSpec.matrices(60, seed=3)
    assert sweep(mspec, parallel=True) == sweep(mspec, parallel=False)


def test_non_primitive_cells_are_skipped_and_counted():
    spec = SweepSpec.tuples(a=(0, 0), b=(0, 0), p=(0, 2), c=(0, 0), d=(0, 0), q=(1, 1))
    # (0,0,p) is primitive only for p = 1; (0,0,1) always primitive
    records = sweep(spec)
    assert len(records) == 1
    assert records[0].params == (0, 0, 1, 0, 0, 1)
    assert count_skipped(spec) == 2


def test_homology_hopf_filter():
    records = sweep(nine_cell_spec(homology_hopf_only=True))
    assert [r.params for r in records] == [
        (1, 0, 0, 1, 0, 1),
        (1, 0, 1, 1, 0, 0),
    ]


def test_matrix_mode_records_carry_matrices():
    records = sweep(SweepSpec.matrices(10, seed=2))
    assert len(records) == 10
    for r in records:
        assert r.params is None
        assert r.matrix is not None
        assert (r.matrix.rows, r.matrix.cols) == (3, 3)


def test_matrix_sweep_from_a_negative_seed_repeats_mirrored_samples():
    # Sample i has seed -2 + i, and seeds -s and s give one matrix.
    matrices = [r.matrix for r in sweep(SweepSpec.matrices(6, seed=-2))]
    assert matrices[0] == matrices[4] and matrices[1] == matrices[3]
    assert len(set(map(str, matrices))) == 4


def test_summarize_counts():
    assert summarize([]) == summarize([])
    s = summarize([])
    assert s.total == 0 and s.homology_hopf_count == 0 and s.mu_counts == ()

    records = sweep(nine_cell_spec())
    s = summarize(records)
    assert s.total == 9
    assert s.homology_hopf_count == 2
    assert s.mu_histogram() == {0: 1, 1: 2, 2: 2, 3: 1, 5: 2, 8: 1}
    assert sum(n for _, n in s.mu_counts) == s.total


def test_invalid_specs_raise():
    with pytest.raises(SweepSpecError):
        SweepSpec.tuples(a=(1, 0), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2))
    with pytest.raises(SweepSpecError):
        SweepSpec.matrices(-1)
    with pytest.raises(SweepSpecError):
        SweepSpec(mode="bogus")


@pytest.mark.parametrize("make", [
    lambda: SweepSpec.matrices(2.5),
    lambda: SweepSpec.matrices(True, seed=True),
    lambda: SweepSpec.matrices(3, seed=0.5),
    lambda: SweepSpec.matrices(3, word_length=2.5),
    lambda: SweepSpec.matrices(3, word_length=False),
    lambda: SweepSpec.tuples(a=(0, 1.0), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2)),
    lambda: SweepSpec.tuples(a=(0, 1), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0.5, 2)),
    lambda: SweepSpec.tuples(a=(0, 1), b=(False, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2)),
    lambda: SweepSpec(mode="matrix", sample_count=3, a_range=(0, 1.5)),
    lambda: SweepSpec.tuples(a=(0, 1.0, 2), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2)),
], ids=["count-float", "count-and-seed-bool", "seed-float", "word-length-float",
        "word-length-bool", "a-end-float", "q-start-float", "b-start-bool",
        "unused-range-float", "a-triple-float"])
def test_spec_rejects_non_int_values(make):
    with pytest.raises(TypeError, match="must be int"):
        make()


@pytest.mark.parametrize("name, bad", [
    ("a", (1, 2, 3)),
    ("a", (1,)),
    ("a", ()),
    ("q", (0, 1, 2, 3)),
    ("d", [5]),
], ids=["a-triple", "a-single", "a-empty", "q-four", "d-list-single"])
def test_spec_rejects_a_range_that_is_not_a_pair(name, bad):
    ranges = dict(a=(1, 1), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2))
    ranges[name] = bad
    with pytest.raises(SweepSpecError, match=f"range for {name} must be a"):
        SweepSpec.tuples(**ranges)


@pytest.mark.parametrize("make, message", [
    (lambda: SweepSpec(mode="matrix", sample_count=1, a_range=(5,)),
     "range for a must be a"),
    (lambda: SweepSpec(mode="matrix", sample_count=1, a_range=(3, 1)),
     "empty range for a: 3:1"),
    (lambda: SweepSpec(sample_count=-3), "sample_count must be >= 0"),
], ids=["matrix-single-range", "matrix-reversed-range", "tuple-negative-count"])
def test_spec_checks_every_field_in_both_modes(make, message):
    with pytest.raises(SweepSpecError, match=message):
        make()


@pytest.mark.parametrize("make, kind", [
    # a truthy str once kept only the mu = 1 cells: 2 of the 16
    (lambda: SweepSpec.tuples((1, 1), (0, 0), (0, 3), (1, 1), (0, 0), (0, 3),
                              homology_hopf_only="no"), "str"),
    (lambda: SweepSpec.matrices(5, seed=1, homology_hopf_only=0.0), "float"),
    (lambda: SweepSpec.matrices(5, homology_hopf_only=1), "int"),
    (lambda: SweepSpec(homology_hopf_only=None), "NoneType"),
], ids=["tuples-str", "matrices-float", "matrices-int", "none"])
def test_spec_rejects_a_hopf_only_flag_that_is_not_bool(make, kind):
    with pytest.raises(TypeError, match=f"^homology_hopf_only must be bool, got {kind}$"):
        make()


def test_matrix_spec_stores_a_list_range_as_a_hashable_pair():
    spec = SweepSpec(mode="matrix", sample_count=1, d_range=[5, 6])
    assert spec.d_range == (5, 6)
    assert hash(spec) == hash(SweepSpec(mode="matrix", sample_count=1, d_range=(5, 6)))


# Both halves vary and both hold non-primitive triples: zero directions,
# gcd-2 and gcd-3 directions, and multiplicities sharing their factors.
ASYMMETRIC_SPECS = [
    SweepSpec.tuples(a=(-2, 2), b=(0, 2), p=(-1, 3), c=(0, 4), d=(-2, 0), q=(2, 2)),
    SweepSpec.tuples(a=(0, 0), b=(2, 4), p=(-4, 4), c=(-3, 1), d=(0, 0), q=(0, 6)),
    SweepSpec.tuples(a=(0, 3), b=(0, 0), p=(-2, 2), c=(2, 2), d=(-2, 2), q=(-3, 3)),
]


def grid_walk(spec):
    """The kept cells and the skipped count, by a brute-force six-deep walk."""
    ranges = (spec.a_range, spec.b_range, spec.p_range,
              spec.c_range, spec.d_range, spec.q_range)
    kept, skipped = [], 0
    for t in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        if math.gcd(*t[:3]) == 1 and math.gcd(*t[3:]) == 1:
            kept.append(t)
        else:
            skipped += 1
    return kept, skipped


@pytest.mark.parametrize("hopf_only", [False, True])
@pytest.mark.parametrize("spec", ASYMMETRIC_SPECS)
def test_count_skipped_matches_grid_walk(spec, hopf_only):
    spec = with_hopf_only(spec, hopf_only)
    kept, skipped = grid_walk(spec)
    assert 0 < skipped < len(kept) + skipped
    assert count_skipped(spec) == skipped
    records = sweep(with_hopf_only(spec, False))
    assert [r.params for r in records] == kept
    if hopf_only:
        assert sweep(spec) == [r for r in records if r.homology_hopf]


def test_count_skipped_is_zero_in_matrix_mode():
    assert count_skipped(SweepSpec.matrices(20, seed=1)) == 0


@pytest.mark.parametrize("spec", [
    nine_cell_spec(),
    nine_cell_spec(homology_hopf_only=True),
    ASYMMETRIC_SPECS[0],
    SweepSpec.matrices(30, seed=4),
    SweepSpec.matrices(30, seed=4, homology_hopf_only=True),
    SweepSpec.matrices(0),
])
def test_iter_sweep_yields_the_sweep_records(spec):
    assert list(iter_sweep(spec)) == sweep(spec)


def test_iter_sweep_is_lazy():
    def too_slow(signum, frame):
        raise TimeoutError("iter_sweep did not yield its first record at once")

    spec = SweepSpec.tuples(a=(1, 1), b=(0, 0), p=(0, 10**12),
                            c=(1, 1), d=(0, 0), q=(0, 2))
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    try:
        records = iter_sweep(spec)
        first = [next(records) for _ in range(4)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [r.params for r in first] == [
        (1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 1), (1, 0, 0, 1, 0, 2), (1, 0, 1, 1, 0, 0),
    ]


# --- the bounded minus half ---------------------------------------------------


def test_huge_minus_half_yields_at_once_in_bounded_memory():
    def too_slow(signum, frame):
        raise TimeoutError("iter_sweep did not yield its first record at once")

    spec = SweepSpec.tuples(a=(1, 1), b=(0, 0), p=(0, 0),
                            c=(1, 1), d=(0, 0), q=(0, 10**9))
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    tracemalloc.start()
    try:
        first = next(iter_sweep(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert first.params == (1, 0, 0, 1, 0, 0)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("spec", [
    ASYMMETRIC_SPECS[0],
    ASYMMETRIC_SPECS[1],
    with_hopf_only(ASYMMETRIC_SPECS[2]),
])
def test_regenerated_minus_half_gives_the_same_records(monkeypatch, spec):
    held = list(iter_sweep(spec))
    minus = sum(1 for _ in sweep_module._primitive_triples(
        spec.c_range, spec.d_range, spec.q_range))
    assert minus > 3
    monkeypatch.setattr(sweep_module, "_MINUS_HELD", 3)
    assert list(iter_sweep(spec)) == held


# --- records and groups built unchecked ----------------------------------------


EQUIVALENCE_SPECS = ASYMMETRIC_SPECS + [
    nine_cell_spec(),  # mu = 0 at p = q = 0
    nine_cell_spec(homology_hopf_only=True),
    SweepSpec.matrices(40, seed=11),
    SweepSpec.matrices(40, seed=11, word_length=192),
    SweepSpec.matrices(40, seed=11, homology_hopf_only=True),
]


def public_copy(r):
    """The record rebuilt through the public, validating constructors."""
    group = FgAbelianGroup(r.group.rank, r.group.invariant_factors)
    fields = {name: getattr(r, name) for name in SweepRecord.__match_args__}
    return SweepRecord(**dict(fields, group=group))


@pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
def test_unchecked_records_equal_public_ones(spec):
    records = sweep(spec)
    assert records
    for r in records:
        public = public_copy(r)
        assert r == public and public == r
        assert hash(r) == hash(public)
        assert repr(r) == repr(public)
        assert r.group == public.group and hash(r.group) == hash(public.group)
        assert repr(r.group) == repr(public.group)
        assert not hasattr(r, "__dict__") and not hasattr(r.group, "__dict__")


def test_unchecked_records_stay_frozen_values():
    r = sweep(nine_cell_spec())[3]
    fields = tuple(getattr(r, name) for name in SweepRecord.__match_args__)
    assert SweepRecord(*fields) == r
    assert fields == tuple(getattr(public_copy(r), name) for name in SweepRecord.__match_args__)
    with pytest.raises(AttributeError, match="^cannot assign to field 'mu'$"):
        r.mu = 5
    with pytest.raises(AttributeError, match="^cannot assign to field 'rank'$"):
        r.group.rank = 0
    with pytest.raises(AttributeError, match="^cannot delete field 'group'$"):
        del r.group
    # Value classes, not dataclasses: the dataclasses helpers refuse them.
    with pytest.raises(TypeError):
        dataclasses.replace(r, mu=99)
    with pytest.raises(TypeError):
        dataclasses.asdict(r.group)
    assert tuple(getattr(r, name) for name in SweepRecord.__match_args__) == fields


# --- the one-pass summary -----------------------------------------------------


@pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
def test_summary_matches_the_loop_oracle(spec):
    records = sweep(spec)
    assert summarize(records) == loop_summarize(records)
    assert summarize(iter_sweep(spec)) == loop_summarize(iter_sweep(spec))


def test_summary_of_no_records_matches_the_loop_oracle():
    assert summarize([]) == loop_summarize([]) == SweepSummary(0, 0, ())
    assert summarize(iter([])) == loop_summarize(iter([]))


def test_homology_hopf_count_counts_the_records_with_mu_one():
    records = sweep(BOX)
    s = summarize(records)
    assert 0 < s.homology_hopf_count < s.total
    assert s.homology_hopf_count == sum(1 for r in records if r.mu == 1)
    # The count follows mu, the documented rule, not the record's flag.
    flipped = [SweepRecord(r.mu, not r.homology_hopf, r.group, r.params, r.matrix)
               for r in records]
    assert summarize(flipped) == s


# --- one group-cache read per cell ---------------------------------------------


def assert_records_share_the_cached_groups(records):
    for r in records:
        public = public_copy(r)
        assert r == public and repr(r) == repr(public)
        assert r.group is gluing.group_of_mu(r.mu)


#: A tuple sweep in a fresh interpreter, whose group cache starts empty.
_FRESH_CACHE_PROBE = """
from hopfglue import gluing
from hopfglue.abelian import FgAbelianGroup
from hopfglue.sweep import SweepRecord, SweepSpec, sweep
assert gluing._GROUPS == {}
records = sweep(SweepSpec.tuples(a=(-2, 2), b=(0, 2), p=(-1, 3), c=(0, 4), d=(-2, 0), q=(2, 2)))
for r in records:
    group = FgAbelianGroup(r.group.rank, r.group.invariant_factors)
    fields = {name: getattr(r, name) for name in SweepRecord.__match_args__}
    public = SweepRecord(**dict(fields, group=group))
    assert r == public and repr(r) == repr(public)
    assert r.group is gluing.group_of_mu(r.mu)
print(len(records), sorted(gluing._GROUPS))
"""


def test_sweep_groups_from_an_empty_cache_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _FRESH_CACHE_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    records = sweep(ASYMMETRIC_SPECS[0])
    mus = sorted({0, 1} | {r.mu for r in records})
    assert proc.stdout == f"{len(records)} {mus}\n"


def test_sweep_reads_a_rebound_cache(monkeypatch):
    spec = ASYMMETRIC_SPECS[2]
    monkeypatch.setattr(gluing, "_GROUPS", {})
    before = sweep(spec)
    assert_records_share_the_cached_groups(before)
    monkeypatch.setattr(gluing, "_GROUPS", {})
    after = sweep(spec)
    assert after == before
    assert all(a.group is not b.group for a, b in zip(after, before))
    assert_records_share_the_cached_groups(after)
    assert set(gluing._GROUPS) == {0, 1} | {r.mu for r in after}


def test_sweep_past_a_lowered_cache_bound(monkeypatch):
    fresh = {mu: g for mu, g in gluing._GROUPS.items() if mu < 2}
    monkeypatch.setattr(gluing, "_GROUPS", fresh)
    monkeypatch.setattr(gluing, "_GROUPS_MAX", 4)
    records = sweep(ASYMMETRIC_SPECS[0])
    assert len({r.mu for r in records}) > 4
    kept = [r for r in records if r.mu in fresh]
    assert kept and len(kept) < len(records)
    assert_records_share_the_cached_groups(kept)
    for r in records:
        if r.mu not in fresh:
            assert r == public_copy(r)
            assert r.group == gluing.group_of_mu(r.mu) and r.group is not gluing.group_of_mu(r.mu)
    assert len(fresh) == 4


# --- the inline tuple loop -----------------------------------------------------


BOX = SweepSpec.tuples(*[(-2, 2)] * 6)


@pytest.fixture(scope="module")
def box_groups():
    """Every primitive pair of the [-2, 2]^6 box, in lexicographic order, with
    its group from the Smith normal form of the two surgery relations."""
    groups = {}
    for a, b, p, c, d, q in itertools.product(range(-2, 3), repeat=6):
        if math.gcd(a, b, p) == 1 and math.gcd(c, d, q) == 1:
            groups[(a, b, p, c, d, q)] = group_from_presentation(
                Presentation(3, ((a + p, b, -p), (c, d, q))))
    return groups


@pytest.mark.parametrize("held", [True, False], ids=["held", "regenerated"])
@pytest.mark.parametrize("hopf_only", [False, True], ids=["all", "hopf-only"])
def test_inline_tuple_loop_over_the_whole_box(monkeypatch, box_groups, held, hopf_only):
    assert len(box_groups) == 9604 and count_skipped(BOX) == 15625 - 9604
    if not held:
        monkeypatch.setattr(sweep_module, "_MINUS_HELD", 3)
    records = list(iter_sweep(with_hopf_only(BOX, hopf_only)))
    want = [params for params, g in box_groups.items()
            if not hopf_only or g == FgAbelianGroup(1, ())]
    assert [r.params for r in records] == want
    for r in records:
        assert r.mu == gluing._two_log_mu(*r.params)
        assert r.group == box_groups[r.params]
        public = public_copy(r)
        assert r == public and hash(r) == hash(public) and repr(r) == repr(public)


def test_group_cache_stays_at_its_bound(monkeypatch):
    fresh = {mu: g for mu, g in gluing._GROUPS.items() if mu < 2}
    monkeypatch.setattr(gluing, "_GROUPS", fresh)
    bound = gluing._GROUPS_MAX
    for mu in range(2, 2 * bound):
        g = gluing.group_of_mu(mu)
        assert g == FgAbelianGroup(1, (mu,))
        assert hash(g) == hash(FgAbelianGroup(1, (mu,)))
    assert len(fresh) == bound
    assert gluing.group_of_mu(2) is gluing.group_of_mu(2)
    assert gluing.group_of_mu(0) == FgAbelianGroup(2, ())
    assert gluing.group_of_mu(1) == FgAbelianGroup(1, ())
    assert len(fresh) == bound


#: Builds groups in a fresh interpreter, first the one for mu = argv[1], then
#: enough others to fill the cache, and checks the free groups stay shared.
_SHARED_GROUPS_PROBE = """
import sys
from hopfglue import gluing
assert gluing._GROUPS == {} and "hopfglue.abelian" not in sys.modules
gluing.group_of_mu(int(sys.argv[1]))
free = gluing.group_of_mu(0), gluing.group_of_mu(1)
assert gluing.group_of_mu(0) is free[0] and gluing.group_of_mu(1) is free[1]
for mu in range(2, 2 * gluing._GROUPS_MAX):
    gluing.group_of_mu(mu)
assert len(gluing._GROUPS) == gluing._GROUPS_MAX
assert gluing.group_of_mu(0) is free[0] and gluing.group_of_mu(1) is free[1]
print(free[0], "|", free[1])
"""


@pytest.mark.parametrize("first_mu", [0, 1, 6])
def test_free_groups_are_shared_from_the_first_group_built(first_mu):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _SHARED_GROUPS_PROBE, str(first_mu)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Z + Z | Z\n"


def test_public_group_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        FgAbelianGroup(1, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(1, (0,))
    with pytest.raises(ValueError):
        FgAbelianGroup(-1, ())
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (2, 3))
    with pytest.raises(ValueError):
        gluing.group_of_mu(-4)


def test_package_sweep_name_is_the_function():
    from hopfglue import sweep as package_sweep

    assert package_sweep is sweep and callable(package_sweep)
    module = sys.modules["hopfglue.sweep"]
    assert module is sweep_module and module.sweep is package_sweep
    assert module.SweepSpec is SweepSpec
