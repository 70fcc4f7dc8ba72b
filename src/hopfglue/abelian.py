"""Finitely generated abelian groups in invariant-factor normal form.

A group is stored as a free rank plus an ascending chain of invariant
factors (each >= 2, each dividing the next), which makes isomorphism a
field-by-field comparison.  Groups are computed from integer relation
matrices as cokernels, via Smith normal form.  The constructor
validates its input, also for the groups the library builds itself.
"""

from __future__ import annotations

import math

from .linalg import IntMatrix, ShapeError, _require_int, _Value, smith_normal_form


class Presentation(_Value):
    """Generators and abelian relation rows.

    Each relation is a vector of exponents over the generators; only the
    abelianization is modeled, so commutators are implicit.

    >>> Presentation(3, [(1, 0, -1), (0, 0, 1)]).relations
    ((1, 0, -1), (0, 0, 1))
    """

    __slots__ = ()
    __match_args__ = ("num_generators", "relations")

    def __new__(cls, num_generators: int, relations: tuple = ()):
        _require_int((num_generators,), "num_generators")
        relations = tuple(tuple(row) for row in relations)
        if num_generators < 0:
            raise ValueError("number of generators must be >= 0")
        for row in relations:
            if len(row) != num_generators:
                raise ShapeError(
                    f"relation {row!r} has {len(row)} entries, "
                    f"expected {num_generators}"
                )
            _require_int(row, "relation entries")
        return tuple.__new__(cls, (num_generators, relations))


class FgAbelianGroup(_Value):
    """Rank plus invariant factors; equal fields mean isomorphic groups.

    Factors of 1 are never stored, and a zero invariant factor contributes
    to the rank instead of the factor list.

    >>> FgAbelianGroup(1, ())          # the infinite cyclic group
    FgAbelianGroup(rank=1, invariant_factors=())
    """

    __slots__ = ()
    __match_args__ = ("rank", "invariant_factors")

    def __new__(cls, rank: int, invariant_factors: tuple = ()):
        factors = tuple(invariant_factors)
        _require_int((rank, *factors), "rank and invariant factors")
        if rank < 0:
            raise ValueError("rank must be >= 0")
        for f in factors:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2 is not stored")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"factors must form a divisibility chain: {factors}")
        return tuple.__new__(cls, (rank, factors))

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{f}" for f in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def group_from_presentation(p: Presentation) -> FgAbelianGroup:
    """Cokernel of the relation matrix, in normal form.

    The rank is the number of generators minus the number of nonzero
    diagonal entries of the Smith form; diagonal entries > 1 become the
    invariant factors.
    """
    if p.num_generators == 0 or not p.relations:
        return FgAbelianGroup(p.num_generators, ())
    diag = smith_normal_form(IntMatrix(p.relations)).diagonal()
    nonzero = [x for x in diag if x != 0]
    return FgAbelianGroup(
        rank=p.num_generators - len(nonzero),
        invariant_factors=tuple(x for x in nonzero if x > 1),
    )


def is_isomorphic(g1: FgAbelianGroup, g2: FgAbelianGroup) -> bool:
    """True iff rank and factor chain coincide (normal-form uniqueness)."""
    return g1 == g2


def torsion_order(g: FgAbelianGroup) -> int:
    """Order of the torsion subgroup: the product of the invariant factors."""
    return math.prod(g.invariant_factors)
