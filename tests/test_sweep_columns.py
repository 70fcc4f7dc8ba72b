"""The tuple sweep's (x, y) column walk: against an independent oracle, and
at the edges of its ranges, where a gcd-0 or gcd-1 direction reads no z."""

import itertools
import math
import signal
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import minors_gcd

from hopfglue.gluing import group_of_mu
from hopfglue.sweep import SweepSpec, count_skipped, iter_sweep, sweep

sweep_module = sys.modules["hopfglue.sweep"]

RANGE_NAMES = ("a_range", "b_range", "p_range", "c_range", "d_range", "q_range")


def oracle_rows(spec):
    """``(params, mu)`` of every primitive cell of a tuple spec, from a
    six-deep product, ``math.gcd`` and the gcd of the 2-minors."""
    ranges = [getattr(spec, name) for name in RANGE_NAMES]
    return [((a, b, p, c, d, q), minors_gcd([[a + p, b, -p], [c, d, q]], 2))
            for a, b, p, c, d, q in itertools.product(
                *(range(lo, hi + 1) for lo, hi in ranges))
            if math.gcd(a, b, p) == 1 and math.gcd(c, d, q) == 1]


# An inclusive range inside [-4, 4], at most four values long.
small_ranges = st.tuples(st.integers(-4, 4), st.integers(0, 3)).map(
    lambda t: (t[0], min(t[0] + t[1], 4)))


@pytest.mark.parametrize("minus_held", [None, 3, 0], ids=["held", "held-3", "regenerated"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(*[small_ranges] * 6), st.booleans())
# zero, gcd-2, gcd-3 and gcd-4 directions, on either half
@example(((1, 1), (-1, 1), (-2, 1), (0, 0), (0, 0), (-1, 2)), False)
@example(((0, 0), (0, 0), (-1, 1), (2, 2), (-2, 0), (-3, 0)), False)
@example(((3, 3), (0, 0), (-4, -1), (3, 4), (-3, 0), (0, 3)), True)
@example(((-4, -4), (-4, 0), (1, 4), (4, 4), (0, 0), (1, 4)), False)
def test_column_walk_matches_the_product_oracle(minus_held, ranges, hopf_only):
    spec = SweepSpec.tuples(*ranges, homology_hopf_only=hopf_only)
    rows = oracle_rows(spec)
    want = [row for row in rows if not hopf_only or row[1] == 1]
    with pytest.MonkeyPatch.context() as mp:
        if minus_held is not None:
            mp.setattr(sweep_module, "_MINUS_HELD", minus_held)
        records = list(iter_sweep(spec))
        skipped = count_skipped(spec)
    assert [(r.params, r.mu) for r in records] == want
    for r in records:
        assert r.homology_hopf == (r.mu == 1) and r.matrix is None
        assert r.group is group_of_mu(r.mu)
    assert skipped == math.prod(hi - lo + 1 for lo, hi in ranges) - len(rows)


def at_once(fn, *args):
    """``fn(*args)``, which must return within two seconds."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{fn.__name__} did not return at once")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


HUGE = 10**12


def test_a_zero_minus_direction_reads_no_multiplicity():
    spec = SweepSpec.tuples(a=(1, 1), b=(0, 0), p=(0, 2),
                            c=(0, 0), d=(0, 0), q=(-HUGE, HUGE))
    records = at_once(sweep, spec)
    assert [r.params for r in records] == [
        (1, 0, p, 0, 0, q) for p in (0, 1, 2) for q in (-1, 1)]
    assert [r.mu for r in records] == [1 + p for p in (0, 1, 2) for _ in (-1, 1)]
    assert at_once(count_skipped, spec) == 3 * (2 * HUGE + 1) - 6


def test_a_zero_plus_direction_reads_no_multiplicity():
    spec = SweepSpec.tuples(a=(0, 0), b=(0, 0), p=(-HUGE, HUGE),
                            c=(1, 1), d=(0, 0), q=(0, 2))
    records = at_once(sweep, spec)
    assert [r.params for r in records] == [
        (0, 0, p, 1, 0, q) for p in (-1, 1) for q in (0, 1, 2)]
    assert at_once(count_skipped, spec) == (2 * HUGE + 1) * 3 - 6


@pytest.mark.parametrize("q", [(-HUGE, HUGE), (0, 10**30)], ids=["1e12", "past-ssize_t"])
def test_a_primitive_direction_is_counted_without_reading_its_range(q):
    spec = SweepSpec.tuples(a=(0, 0), b=(0, 0), p=(-HUGE, HUGE),
                            c=(1, 1), d=(0, 0), q=q)
    n = q[1] - q[0] + 1
    assert at_once(count_skipped, spec) == (2 * HUGE + 1) * n - 2 * n
    first = at_once(next, iter_sweep(spec))
    assert first.params == (0, 0, -1, 1, 0, q[0])


def test_huge_gcd_two_minus_column_yields_at_once_in_bounded_memory():
    spec = SweepSpec.tuples(a=(1, 1), b=(0, 0), p=(0, 0),
                            c=(2, 2), d=(0, 0), q=(0, 10**9))
    tracemalloc.start()
    try:
        records = at_once(iter_sweep, spec)
        first = [at_once(next, records) for _ in range(3)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.params for r in first] == [(1, 0, 0, 2, 0, q) for q in (1, 3, 5)]
    assert [r.mu for r in first] == [1, 3, 5]
    assert peak < 32 * 2**20
