"""Deterministic parameter sweeps over surgery tuples and gluing matrices.

A sweep walks a rectangular grid of direction/multiplicity tuples
(a, b, p, c, d, q), or a seeded sample of random unimodular gluings, and
records the torsion order mu and the homology classification of each
cell.  Output order is canonical (lexicographic in the parameters, or by
sample index), so two runs of the same spec produce identical results.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, islice
from operator import itemgetter

from . import gluing
from .abelian import FgAbelianGroup
from .gluing import group_of_mu
from .linalg import IntMatrix, _require_int, _Value, random_sl3

TUPLE_MODE = "tuple"
MATRIX_MODE = "matrix"


class SweepSpecError(ValueError):
    """The sweep specification is malformed."""


def _check_range(name, r):
    if len(r) != 2:
        raise SweepSpecError(f"range for {name} must be a (lo, hi) pair, got {r!r}")
    lo, hi = r
    if lo > hi:
        raise SweepSpecError(f"empty range for {name}: {lo}:{hi}")
    return (lo, hi)


class SweepSpec(_Value):
    """What to sweep.

    Tuple mode iterates all (a, b, p, c, d, q) in the six inclusive
    ranges, skipping tuples whose halves are not primitive.  Matrix mode
    evaluates ``sample_count`` seeded random gluing matrices.  A true
    ``homology_hopf_only`` (a bool) keeps only the cells with mu = 1.
    """

    __slots__ = ()
    __match_args__ = ("mode", "a_range", "b_range", "p_range", "c_range", "d_range",
                      "q_range", "sample_count", "seed", "word_length",
                      "homology_hopf_only")

    def __new__(cls, mode: str = TUPLE_MODE,
                a_range: tuple = (0, 0), b_range: tuple = (0, 0),
                p_range: tuple = (0, 0), c_range: tuple = (0, 0),
                d_range: tuple = (0, 0), q_range: tuple = (0, 0),
                sample_count: int = 0, seed: int = 0, word_length: int = 12,
                homology_hopf_only: bool = False):
        if mode not in (TUPLE_MODE, MATRIX_MODE):
            raise SweepSpecError(f"unknown mode {mode!r}")
        ranges = [tuple(r) for r in (a_range, b_range, p_range,
                                     c_range, d_range, q_range)]
        _require_int(
            (*chain.from_iterable(ranges), sample_count, seed, word_length),
            "range ends, sample_count, seed and word_length",
        )
        ranges = [_check_range(name, r) for name, r in zip("abpcdq", ranges)]
        if sample_count < 0:
            raise SweepSpecError("sample_count must be >= 0")
        if not isinstance(homology_hopf_only, bool):
            raise TypeError("homology_hopf_only must be bool, "
                            f"got {type(homology_hopf_only).__name__}")
        return tuple.__new__(cls, (mode, *ranges, sample_count, seed, word_length,
                                   homology_hopf_only))

    @classmethod
    def tuples(cls, a, b, p, c, d, q, homology_hopf_only=False):
        return cls(
            mode=TUPLE_MODE,
            a_range=a, b_range=b, p_range=p,
            c_range=c, d_range=d, q_range=q,
            homology_hopf_only=homology_hopf_only,
        )

    @classmethod
    def matrices(cls, sample_count, seed=0, word_length=12,
                 homology_hopf_only=False):
        return cls(
            mode=MATRIX_MODE,
            sample_count=sample_count,
            seed=seed,
            word_length=word_length,
            homology_hopf_only=homology_hopf_only,
        )


class SweepRecord(_Value):
    """One evaluated cell: its parameters or matrix, and its invariants.

    ``mu`` is the torsion order of the fundamental group, with 0 encoding
    the rank-2 case; ``homology_hopf`` is equivalent to ``mu == 1``, which
    every record the library builds keeps and ``summarize`` relies on.
    ``summarize`` also relies on the field order: it reads ``mu`` as item
    0, so ``mu`` stays the first field.
    ``group`` equals ``gluing.group_of_mu(mu)``, and is that shared instance
    while the bounded group cache holds it: a tuple sweep reads the cache
    once per cell and builds a group only on a miss.
    """

    __slots__ = ()
    __match_args__ = ("mu", "homology_hopf", "group", "params", "matrix")

    def __new__(cls, mu: int, homology_hopf: bool, group: FgAbelianGroup,
                params: tuple = None, matrix: IntMatrix = None):
        return tuple.__new__(cls, (mu, homology_hopf, group, params, matrix))


class SweepSummary(_Value):
    """Counts over a sweep: cells, homology-Hopf cells, and cells by mu.

    ``mu_counts`` holds ``(mu, count)`` pairs in ascending ``mu``.
    """

    __slots__ = ()
    __match_args__ = ("total", "homology_hopf_count", "mu_counts")

    def __new__(cls, total: int, homology_hopf_count: int, mu_counts: tuple = ()):
        return tuple.__new__(cls, (total, homology_hopf_count, mu_counts))

    def mu_histogram(self) -> dict:
        return dict(self.mu_counts)


def _primitive_triples(xr, yr, zr):
    """The primitive triples of three inclusive ranges, lexicographically."""
    zs = range(zr[0], zr[1] + 1)
    for x in range(xr[0], xr[1] + 1):
        for y in range(yr[0], yr[1] + 1):
            g = math.gcd(x, y)
            for z in zs:
                if math.gcd(g, z) == 1:
                    yield (x, y, z)


def count_skipped(spec: SweepSpec) -> int:
    """How many grid cells a tuple sweep skips as non-primitive.

    The grid size minus |primitive plus-triples| * |primitive minus-triples|.
    """
    if spec.mode != TUPLE_MODE:
        return 0
    ranges = (spec.a_range, spec.b_range, spec.p_range,
              spec.c_range, spec.d_range, spec.q_range)
    grid = math.prod(hi - lo + 1 for lo, hi in ranges)
    plus = sum(1 for _ in _primitive_triples(*ranges[:3]))
    minus = sum(1 for _ in _primitive_triples(*ranges[3:]))
    return grid - plus * minus


def _record(mu: int, matrix: IntMatrix) -> SweepRecord:
    # The fields are values the sweep just computed, so the record, a tuple
    # of its fields, is built unchecked: one tuple.__new__ call, which
    # skips SweepRecord.__new__ and its argument binding.
    return tuple.__new__(SweepRecord, (mu, mu == 1, group_of_mu(mu), None, matrix))


#: The most primitive minus-triples a tuple sweep holds in memory; past
#: this many it generates them again for each plus triple instead.
_MINUS_HELD = 1 << 16


def _tuple_records(spec: SweepSpec):
    """The records of a tuple sweep, built inline one plus triple at a time.

    Each cell reads its group from ``gluing._GROUPS`` with one ``dict.get``
    and calls ``group_of_mu`` only on a miss, so that function stays the
    only writer of the bounded cache.  The dict is looked up through the
    module once per sweep, so a rebound cache is seen by the next sweep.
    """
    ranges = (spec.c_range, spec.d_range, spec.q_range)
    held = tuple(islice(_primitive_triples(*ranges), _MINUS_HELD + 1))
    if len(held) > _MINUS_HELD:
        held = None
    gcd = math.gcd
    cached = gluing._GROUPS.get
    new = tuple.__new__
    for tp in _primitive_triples(spec.a_range, spec.b_range, spec.p_range):
        a, b, p = tp
        r0 = a + p
        for tm in (held if held is not None else _primitive_triples(*ranges)):
            c, d, q = tm
            # gluing._two_log_mu, with a + p hoisted out of the minus loop
            mu = gcd(r0 * d - b * c, r0 * q + p * c, b * q + p * d)
            # built unchecked, as _record builds it; a group is a two-item
            # tuple, so always true, and `or` falls through only on a miss
            yield new(SweepRecord, (mu, mu == 1, cached(mu) or group_of_mu(mu),
                                    tp + tm, None))


def iter_sweep(spec: SweepSpec):
    """Yield the records of ``sweep(spec)`` lazily, in the same order.

    Tuple mode crosses the primitive plus-triples (a, b, p), iterated
    lazily, with the primitive minus-triples (c, d, q), and computes each
    cell's mu inline with the plus half hoisted.  Up to 2**16 minus
    triples are held in memory; beyond that they are regenerated for each
    plus triple, so memory stays bounded however large the ranges are.
    Matrix mode reads mu = gcd(g, h) straight off each sampled matrix.
    """
    if spec.mode == TUPLE_MODE:
        records = _tuple_records(spec)
    else:
        records = (
            _record(math.gcd(m[0, 2], m[1, 2]), m)
            for m in (random_sl3(spec.seed + i, spec.word_length).m
                      for i in range(spec.sample_count))
        )
    if spec.homology_hopf_only:
        return (r for r in records if r.homology_hopf)
    return records


def sweep(spec: SweepSpec) -> list:
    """All records of ``iter_sweep(spec)`` as a list, in canonical order.

    Non-primitive tuples are skipped (count them with ``count_skipped``).
    """
    return list(iter_sweep(spec))


def summarize(records) -> SweepSummary:
    """Exact counts: total, homology-Hopf cells, and a histogram by mu.

    ``records`` may be any iterable of ``SweepRecord``s, such as
    ``iter_sweep(spec)``; it is read once, in a single C-level pass that
    reads ``mu`` as item 0 of each record and keeps one count per distinct
    mu.  So it takes records, not arbitrary objects with a ``.mu``
    attribute.  The homology-Hopf count is the count of ``mu == 1``, by
    the ``SweepRecord`` rule that ``homology_hopf`` is ``mu == 1``.
    """
    counts = Counter(map(itemgetter(0), records))
    return SweepSummary(
        total=counts.total(),
        homology_hopf_count=counts[1],
        mu_counts=tuple(sorted(counts.items())),
    )
