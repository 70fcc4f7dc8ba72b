import dataclasses
import itertools
import math
import signal

import pytest

from hopfglue.abelian import torsion_order
from hopfglue.sweep import (
    SweepSpec,
    SweepSpecError,
    count_skipped,
    iter_sweep,
    summarize,
    sweep,
)


def nine_cell_spec(**kw):
    return SweepSpec.tuples(
        a=(1, 1), b=(0, 0), p=(0, 2), c=(1, 1), d=(0, 0), q=(0, 2), **kw
    )


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
    spec = dataclasses.replace(spec, homology_hopf_only=hopf_only)
    kept, skipped = grid_walk(spec)
    assert 0 < skipped < len(kept) + skipped
    assert count_skipped(spec) == skipped
    records = sweep(dataclasses.replace(spec, homology_hopf_only=False))
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
