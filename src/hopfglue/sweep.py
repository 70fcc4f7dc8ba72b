"""Deterministic parameter sweeps over surgery tuples and gluing matrices.

A sweep walks a rectangular grid of direction/multiplicity tuples
(a, b, p, c, d, q), or a seeded sample of random unimodular gluings, and
records the torsion order mu and the homology classification of each
cell.  Output order is canonical (lexicographic in the parameters, or by
sample index), so two runs of the same spec produce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .abelian import FgAbelianGroup, torsion_order
from .gluing import GluingMatrix, _two_log_mu, group_of_mu, pi1_single_gluing
from .linalg import IntMatrix, random_sl3

TUPLE_MODE = "tuple"
MATRIX_MODE = "matrix"


class SweepSpecError(ValueError):
    """The sweep specification is malformed."""


def _check_range(name, r):
    lo, hi = r
    if lo > hi:
        raise SweepSpecError(f"empty range for {name}: {lo}:{hi}")
    return (lo, hi)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep.

    Tuple mode iterates all (a, b, p, c, d, q) in the six inclusive
    ranges, skipping tuples whose halves are not primitive.  Matrix mode
    evaluates ``sample_count`` seeded random gluing matrices.
    """

    mode: str = TUPLE_MODE
    a_range: tuple = (0, 0)
    b_range: tuple = (0, 0)
    p_range: tuple = (0, 0)
    c_range: tuple = (0, 0)
    d_range: tuple = (0, 0)
    q_range: tuple = (0, 0)
    sample_count: int = 0
    seed: int = 0
    word_length: int = 12
    homology_hopf_only: bool = False

    def __post_init__(self):
        if self.mode not in (TUPLE_MODE, MATRIX_MODE):
            raise SweepSpecError(f"unknown mode {self.mode!r}")
        if self.mode == TUPLE_MODE:
            for name in ("a", "b", "p", "c", "d", "q"):
                r = getattr(self, name + "_range")
                object.__setattr__(self, name + "_range", _check_range(name, tuple(r)))
        else:
            if self.sample_count < 0:
                raise SweepSpecError("sample_count must be >= 0")

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


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated cell: its parameters or matrix, and its invariants.

    ``mu`` is the torsion order of the fundamental group, with 0 encoding
    the rank-2 case; ``homology_hopf`` is equivalent to ``mu == 1``.
    """

    mu: int
    homology_hopf: bool
    group: FgAbelianGroup
    params: tuple = None
    matrix: IntMatrix = None


@dataclass(frozen=True)
class SweepSummary:
    total: int
    homology_hopf_count: int
    mu_counts: tuple = field(default=())  # ((mu, count), ...) ascending

    def mu_histogram(self) -> dict:
        return dict(self.mu_counts)


def _is_primitive(x, y, z) -> bool:
    return math.gcd(math.gcd(x, y), z) == 1


def _iter_tuples(spec: SweepSpec):
    ar, br, pr, cr, dr, qr = (
        spec.a_range, spec.b_range, spec.p_range,
        spec.c_range, spec.d_range, spec.q_range,
    )
    for a in range(ar[0], ar[1] + 1):
        for b in range(br[0], br[1] + 1):
            for p in range(pr[0], pr[1] + 1):
                for c in range(cr[0], cr[1] + 1):
                    for d in range(dr[0], dr[1] + 1):
                        for q in range(qr[0], qr[1] + 1):
                            yield (a, b, p, c, d, q)


def count_skipped(spec: SweepSpec) -> int:
    """How many grid cells a tuple sweep skips as non-primitive."""
    if spec.mode != TUPLE_MODE:
        return 0
    return sum(
        1
        for (a, b, p, c, d, q) in _iter_tuples(spec)
        if not (_is_primitive(a, b, p) and _is_primitive(c, d, q))
    )


def _mu_of(group: FgAbelianGroup) -> int:
    return 0 if group.rank == 2 else torsion_order(group)


def _eval_tuple(params) -> SweepRecord:
    # The grid filter has already checked both triples for primitivity.
    mu = _two_log_mu(*params)
    return SweepRecord(
        mu=mu, homology_hopf=(mu == 1), group=group_of_mu(mu), params=params
    )


def _eval_matrix(gm: GluingMatrix) -> SweepRecord:
    group = pi1_single_gluing(gm)
    mu = _mu_of(group)
    return SweepRecord(
        mu=mu, homology_hopf=(mu == 1), group=group, matrix=gm.matrix
    )


def sweep(spec: SweepSpec, parallel: bool = False) -> list:
    """Evaluate the sweep; one record per tuple/sample, canonical order.

    Non-primitive tuples are skipped (count them with ``count_skipped``).
    ``parallel`` is accepted for compatibility and changes nothing: cells
    cost microseconds, so evaluating them on threads only adds overhead.
    """
    if spec.mode == TUPLE_MODE:
        cells = [
            t
            for t in _iter_tuples(spec)
            if _is_primitive(*t[:3]) and _is_primitive(*t[3:])
        ]
        evaluate = _eval_tuple
    else:
        cells = [
            GluingMatrix(random_sl3(spec.seed + i, spec.word_length))
            for i in range(spec.sample_count)
        ]
        evaluate = _eval_matrix

    records = [evaluate(c) for c in cells]
    if spec.homology_hopf_only:
        records = [r for r in records if r.homology_hopf]
    return records


def summarize(records) -> SweepSummary:
    """Exact counts: total, homology-Hopf cells, and a histogram by mu."""
    counts = {}
    hopf = 0
    for r in records:
        counts[r.mu] = counts.get(r.mu, 0) + 1
        if r.homology_hopf:
            hopf += 1
    return SweepSummary(
        total=len(records),
        homology_hopf_count=hopf,
        mu_counts=tuple(sorted(counts.items())),
    )
