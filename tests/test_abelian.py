import math
import random

import pytest

from hopfglue.abelian import (
    FgAbelianGroup,
    Presentation,
    group_from_presentation,
    is_isomorphic,
    torsion_order,
)
from hopfglue.linalg import ShapeError

from oracles import minors_gcd


def test_free_group():
    assert group_from_presentation(Presentation(2)) == FgAbelianGroup(2, ())


def test_trivial_double_surgery_presentation_gives_z():
    g = group_from_presentation(Presentation(3, [(1, 0, -1), (0, 0, 1)]))
    assert g == FgAbelianGroup(1, ())


def test_diagonal_relations_merge_into_invariant_factor():
    g = group_from_presentation(Presentation(2, [(2, 0), (0, 3)]))
    assert g == FgAbelianGroup(0, (6,))


def test_presentation_rejects_ragged_rows():
    with pytest.raises(ShapeError):
        Presentation(3, [(1, 2)])


def test_group_normal_form_is_validated():
    with pytest.raises(ValueError):
        FgAbelianGroup(1, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(1, (0,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 6))  # 4 does not divide 6


def test_is_isomorphic():
    g = group_from_presentation(Presentation(2, [(2, 0), (0, 3)]))
    h = group_from_presentation(Presentation(2, [(6, 0), (0, 1)]))
    assert is_isomorphic(g, g)
    assert is_isomorphic(g, h)
    assert not is_isomorphic(FgAbelianGroup(1, ()), FgAbelianGroup(2, ()))


def test_torsion_order():
    assert torsion_order(FgAbelianGroup(1, ())) == 1
    assert torsion_order(FgAbelianGroup(0, (6,))) == 6
    assert torsion_order(FgAbelianGroup(0, (2, 4))) == 8


def test_str_form():
    assert str(FgAbelianGroup(1, ())) == "Z"
    assert str(FgAbelianGroup(1, (3,))) == "Z + Z/3"
    assert str(FgAbelianGroup(0, ())) == "0"


# --- invariance of the group under presentation moves ---------------------


def _random_presentation(rng):
    gens = rng.randint(1, 3)
    rows = rng.randint(1, 3)
    rels = [
        tuple(rng.randint(-3, 3) for _ in range(gens)) for _ in range(rows)
    ]
    return Presentation(gens, rels)


def test_invariance_under_row_moves():
    rng = random.Random(37)
    for _ in range(500):
        p = _random_presentation(rng)
        g = group_from_presentation(p)
        rels = list(p.relations)

        shuffled = rels[:]
        rng.shuffle(shuffled)
        assert group_from_presentation(Presentation(p.num_generators, shuffled)) == g

        i = rng.randrange(len(rels))
        negated = rels[:]
        negated[i] = tuple(-x for x in negated[i])
        assert group_from_presentation(Presentation(p.num_generators, negated)) == g

        if len(rels) > 1:
            j = rng.randrange(len(rels))
            while j == i:
                j = rng.randrange(len(rels))
            added = rels[:]
            added[i] = tuple(x + y for x, y in zip(added[i], added[j]))
            assert group_from_presentation(Presentation(p.num_generators, added)) == g


def test_zero_relation_changes_nothing():
    rng = random.Random(41)
    for _ in range(200):
        p = _random_presentation(rng)
        padded = Presentation(
            p.num_generators, list(p.relations) + [(0,) * p.num_generators]
        )
        assert group_from_presentation(padded) == group_from_presentation(p)


def test_exhaustive_small_presentations_row_move_invariance():
    # all 2-generator 2-relation presentations with entries in {-1, 0, 1}
    from itertools import product

    for entries in product((-1, 0, 1), repeat=4):
        rows = [entries[:2], entries[2:]]
        g = group_from_presentation(Presentation(2, rows))
        swapped = Presentation(2, [rows[1], rows[0]])
        negated = Presentation(2, [tuple(-x for x in rows[0]), rows[1]])
        added = Presentation(2, [tuple(x + y for x, y in zip(*rows)), rows[1]])
        padded = Presentation(2, rows + [(0, 0)])
        for moved in (swapped, negated, added, padded):
            assert group_from_presentation(moved) == g


def test_exhaustive_two_generator_single_relation():
    for a in range(-3, 4):
        for b in range(-3, 4):
            g = group_from_presentation(Presentation(2, [(a, b)]))
            d = math.gcd(a, b)
            if d == 0:
                assert g == FgAbelianGroup(2, ())
            elif d == 1:
                assert g == FgAbelianGroup(1, ())
            else:
                assert g == FgAbelianGroup(1, (d,))


def test_torsion_order_matches_minor_gcds():
    # product of the nonzero Smith diagonal = gcd of top-rank minors
    rng = random.Random(43)
    for _ in range(300):
        p = _random_presentation(rng)
        g = group_from_presentation(p)
        rows = [list(r) for r in p.relations]
        rank_of_matrix = p.num_generators - g.rank
        if rank_of_matrix == 0:
            assert torsion_order(g) == 1
        else:
            assert torsion_order(g) == minors_gcd(rows, rank_of_matrix)


def test_presentation_rejects_negative_generator_count():
    with pytest.raises(ValueError, match="number of generators must be >= 0"):
        Presentation(-1)


@pytest.mark.parametrize("gens, relations, message", [
    (True, [(1,)], "num_generators must be int, got bool"),
    (1.5, (), "num_generators must be int, got float"),
    (2.0, [(1, 0)], "num_generators must be int, got float"),
    (2, [(1, 0.5)], "relation entries must be int, got float"),
    (2, [(0, 1), (True, 0)], "relation entries must be int, got bool"),
])
def test_presentation_rejects_non_int_fields(gens, relations, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        Presentation(gens, relations)


@pytest.mark.parametrize("rank, factors", [(1.5, ()), (1.0, ()), (1, (2.0,)), (0, (2, 4.0))])
def test_group_rejects_non_int_fields(rank, factors):
    with pytest.raises(TypeError, match="rank and invariant factors must be int, got float"):
        FgAbelianGroup(rank, factors)


@pytest.mark.parametrize("rank, factors", [(True, ()), (False, (2,)), (1, (True,))])
def test_group_rejects_bool_fields(rank, factors):
    with pytest.raises(TypeError, match="rank and invariant factors must be int, got bool"):
        FgAbelianGroup(rank, factors)
