import hashlib
import json
import math
import random

import pytest

from hopfglue.linalg import (
    IntMatrix,
    NotPrimitiveError,
    NotUnimodularError,
    ShapeError,
    UnimodularMatrix,
    complete_primitive_to_sl3,
    determinant,
    extended_gcd,
    gcd_of_k_minors,
    inverse_unimodular,
    multiply,
    random_sl3,
    sl2_carry_to_e1,
    smith_normal_form,
)

from oracles import (
    leibniz_det,
    matrix_from_index,
    minors_gcd,
    naive_product,
    reference_random_sl3,
)


# --- IntMatrix basics ---------------------------------------------------


def test_matrix_value_semantics():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2], [3, 4]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != IntMatrix([[1, 2], [3, 5]])
    assert a.row(1) == (3, 4)
    assert a.col(0) == (1, 3)
    assert a[0, 1] == 2
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        IntMatrix([])
    with pytest.raises(ShapeError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


# --- multiply ------------------------------------------------------------


def test_multiply_identity():
    m = IntMatrix([[3, -1, 4], [1, 5, -9], [2, 6, 5]])
    assert multiply(IntMatrix.identity(3), m) == m
    assert multiply(m, IntMatrix.identity(3)) == m


def test_multiply_shears():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    assert multiply(a, b) == IntMatrix([[2, 1], [1, 1]])


def test_multiply_against_naive_oracle():
    rng = random.Random(7)
    for _ in range(200):
        a = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        assert multiply(IntMatrix(a), IntMatrix(b)) == IntMatrix(naive_product(a, b))


def test_multiply_shape_mismatch():
    with pytest.raises(ShapeError):
        multiply(IntMatrix([[1, 2]]), IntMatrix([[1, 2]]))


# --- determinant ---------------------------------------------------------


def test_determinant_pinned_values():
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == -1
    assert determinant(IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, -1]])) == -1


def test_determinant_against_leibniz_oracle():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(150):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert determinant(IntMatrix(rows)) == leibniz_det(rows)


def test_determinant_with_a_zero_first_column_is_zero():
    rng = random.Random(61)
    for n in (1, 2, 4, 5):
        rows = [[0] + [rng.randint(-9, 9) for _ in range(n - 1)] for _ in range(n)]
        assert determinant(IntMatrix(rows)) == 0


def test_determinant_requires_square():
    with pytest.raises(ShapeError):
        determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


# --- unimodular inverse ---------------------------------------------------


def test_inverse_identity_and_shear():
    i3 = UnimodularMatrix(IntMatrix.identity(3))
    assert inverse_unimodular(i3) == i3
    shear = UnimodularMatrix(IntMatrix([[1, 1], [0, 1]]))
    assert inverse_unimodular(shear).m == IntMatrix([[1, -1], [0, 1]])


def test_inverse_is_two_sided():
    for seed in range(60):
        u = random_sl3(seed, 14)
        inv = inverse_unimodular(u)
        assert u.m @ inv.m == IntMatrix.identity(3)
        assert inv.m @ u.m == IntMatrix.identity(3)


def test_unimodular_rejects_other_determinants():
    with pytest.raises(NotUnimodularError):
        UnimodularMatrix(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        UnimodularMatrix(IntMatrix([[1, 0, 0], [0, 1, 0]]))


# --- extended gcd ----------------------------------------------------------


def test_extended_gcd_pinned_values():
    assert extended_gcd(2, 1) == (1, 0, 1)
    assert extended_gcd(0, 0) == (0, 0, 0)
    g, x, y = extended_gcd(6, 4)
    assert g == 2 and 6 * x + 4 * y == 2


def test_extended_gcd_bezout_identity():
    rng = random.Random(13)
    for _ in range(2000):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        g, x, y = extended_gcd(a, b)
        assert g == math.gcd(a, b)
        assert x * a + y * b == g


@pytest.mark.parametrize("a, b, kind", [
    (1.5, 2, "float"), (1, 2.0, "float"), (True, 2, "bool"), (1, False, "bool"),
], ids=["a-float", "b-float", "a-bool", "b-bool"])
def test_extended_gcd_rejects_non_int_arguments(a, b, kind):
    with pytest.raises(TypeError, match=f"a and b must be int, got {kind}$"):
        extended_gcd(a, b)


# --- Smith normal form ------------------------------------------------------


def check_snf(rows):
    a = IntMatrix(rows)
    res = smith_normal_form(a)
    assert (res.u.m @ a) @ res.v.m == res.d
    diag = res.diagonal()
    # zero off the diagonal
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d[i, j] == 0
    # non-negative, divisibility chain, zeros trailing
    prod = 1
    for k, entry in enumerate(diag, start=1):
        assert entry >= 0
        if k > 1:
            prev = diag[k - 2]
            if prev == 0:
                assert entry == 0
            else:
                assert entry % prev == 0
        prod *= entry
        assert prod == minors_gcd(rows, k)
    return res


def test_snf_zero_matrix():
    res = smith_normal_form(IntMatrix.zeros(2, 3))
    assert res.d == IntMatrix.zeros(2, 3)
    assert res.u.m == IntMatrix.identity(2)
    assert res.v.m == IntMatrix.identity(3)


def test_snf_pinned_examples():
    res = check_snf([[2, 4], [6, 8]])
    assert res.diagonal() == (2, 4)
    res = check_snf([[1, 0, -1], [0, 0, 1]])
    assert res.d == IntMatrix([[1, 0, 0], [0, 1, 0]])


def test_snf_exhaustive_small_shapes():
    # every 1x1, 1x2, 2x1 and 2x2 matrix with entries in [-3, 3]
    for shape in ((1, 1), (1, 2), (2, 1), (2, 2)):
        m, n = shape
        for index in range(7 ** (m * n)):
            check_snf(matrix_from_index(index, shape, -3, 3))


def test_snf_sampled_larger_shapes():
    for shape, stride in (((2, 3), 331), ((3, 2), 331), ((3, 3), 31337)):
        m, n = shape
        total = 7 ** (m * n)
        for index in range(0, total, stride):
            check_snf(matrix_from_index(index, shape, -3, 3))


def test_snf_random_wide_entries():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        check_snf([[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)])


def test_snf_thousand_random_larger_cases():
    rng = random.Random(19)
    for _ in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        check_snf([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def test_snf_up_to_6x6_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(23)
    chains = set()
    for k in range(300):
        m, n = rng.randint(4, 6), rng.randint(4, 6)
        # scaled rows give non-trivial invariant factors, a repeated row a zero one
        rows = [[s * rng.randint(-9, 9) for _ in range(n)]
                for s in (rng.choice((1, 1, 2, 3, 6)) for _ in range(m))]
        if k % 4 == 0:
            rows[-1] = [2 * x for x in rows[0]]
        ours = smith_normal_form(IntMatrix(rows)).diagonal()
        theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        assert ours == tuple(abs(int(theirs[i, i])) for i in range(min(m, n))), rows
        assert all(y % x == 0 if x else y == 0 for x, y in zip(ours, ours[1:])), rows
        chains.add(ours)
    assert any(0 in d for d in chains) and any(d[1] > 1 for d in chains)


def test_snf_is_deterministic():
    rows = [[3, 1, -4], [1, 5, 9], [-2, 6, 5]]
    r1 = smith_normal_form(IntMatrix(rows))
    r2 = smith_normal_form(IntMatrix(rows))
    assert r1.u == r2.u and r1.d == r2.d and r1.v == r2.v


#: sha256 of repr((u, d, v)) over 100 seeded matrices of every shape from
#: 1x1 to 6x6 with entries in [-9, 9], recorded before the row and column
#: passes shared one gcd transform.
SNF_FAMILY_SHA256 = (
    "de98734b0736584e6332f2b8c06da65a922edf1d2724c189c0253e1717c5c404"
)


def test_snf_seeded_family_is_pinned():
    rng = random.Random(53)
    h = hashlib.sha256()
    for m in range(1, 7):
        for n in range(1, 7):
            for _ in range(100):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
                res = smith_normal_form(IntMatrix(rows))
                h.update(repr((res.u, res.d, res.v)).encode() + b"\n")
    assert h.hexdigest() == SNF_FAMILY_SHA256


def test_snf_transforms_carry_their_true_determinants():
    # u and v carry determinants tracked through the elimination; check them
    # against a fresh determinant on the seeded family above.
    rng = random.Random(53)
    for m in range(1, 7):
        for n in range(1, 7):
            for _ in range(100):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
                res = smith_normal_form(IntMatrix(rows))
                for w in (res.u, res.v):
                    assert w.det == determinant(w.m) in (1, -1)


# --- gcd of k-minors --------------------------------------------------------


def test_minor_gcd_pinned_values():
    a = IntMatrix([[2, 4], [6, 8]])
    assert gcd_of_k_minors(a, 1) == 2
    assert gcd_of_k_minors(a, 2) == 8
    assert gcd_of_k_minors(IntMatrix([[1, 0, -1], [0, 0, 1]]), 2) == 1


def test_minor_gcd_all_zero_convention():
    assert gcd_of_k_minors(IntMatrix.zeros(2, 2), 1) == 0
    assert gcd_of_k_minors(IntMatrix.zeros(2, 2), 2) == 0


def test_minor_gcd_range_errors():
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        gcd_of_k_minors(a, 0)
    with pytest.raises(ShapeError):
        gcd_of_k_minors(a, 3)


def test_minor_gcd_against_oracle():
    rng = random.Random(23)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        a = IntMatrix(rows)
        for k in range(1, min(m, n) + 1):
            assert gcd_of_k_minors(a, k) == minors_gcd(rows, k)


# --- primitive completion ----------------------------------------------------


def test_completion_pinned_cases():
    assert complete_primitive_to_sl3((0, 0, 1)).m == IntMatrix.identity(3)
    for v in ((1, 0, 0), (2, 3, 5), (0, 0, -1)):
        u = complete_primitive_to_sl3(v)
        assert u.det == 1
        assert determinant(u.m) == 1
        assert u.m.col(2) == v


def test_completion_random_primitive_triples():
    rng = random.Random(29)
    done = 0
    while done < 400:
        v = tuple(rng.randint(-20, 20) for _ in range(3))
        if math.gcd(math.gcd(v[0], v[1]), v[2]) != 1:
            continue
        done += 1
        u = complete_primitive_to_sl3(v)
        assert u.det == 1
        assert u.m.col(2) == v


def test_completion_rejects_non_primitive():
    for v in ((2, 0, 2), (0, 0, 0), (3, 6, 9), (0, 0, 2)):
        with pytest.raises(NotPrimitiveError):
            complete_primitive_to_sl3(v)


# --- 2x2 carry to e1 ----------------------------------------------------------


def test_sl2_carry_pinned_cases():
    assert sl2_carry_to_e1(1, 0).m == IntMatrix.identity(2)
    assert sl2_carry_to_e1(0, 1).m == IntMatrix([[0, 1], [-1, 0]])
    assert sl2_carry_to_e1(2, 1).m == IntMatrix([[0, 1], [-1, 2]])


def test_sl2_carry_postcondition():
    rng = random.Random(31)
    done = 0
    while done < 500:
        g = rng.randint(-40, 40)
        h = rng.randint(-40, 40)
        if math.gcd(g, h) != 1:
            continue
        done += 1
        u = sl2_carry_to_e1(g, h)
        assert u.det == 1
        assert u.m @ IntMatrix([[g], [h]]) == IntMatrix([[1], [0]])


def test_sl2_carry_rejects_non_coprime():
    with pytest.raises(NotPrimitiveError):
        sl2_carry_to_e1(2, 4)
    with pytest.raises(NotPrimitiveError):
        sl2_carry_to_e1(0, 0)


# --- random_sl3 ------------------------------------------------------------------


def test_random_sl3_empty_word():
    assert random_sl3(0, 0).m == IntMatrix.identity(3)


@pytest.mark.parametrize("seed, word_length, kind", [
    (0, True, "bool"), (True, 3, "bool"), (0, False, "bool"),
    (1.0, 3, "float"), (0, 3.0, "float"), ("0", 3, "str"), (None, 3, "NoneType"),
])
def test_random_sl3_rejects_non_int_arguments(seed, word_length, kind):
    with pytest.raises(TypeError, match=f"seed and word_length must be int, got {kind}$"):
        random_sl3(seed, word_length)


@pytest.mark.parametrize("k, kind", [(1.5, "float"), (True, "bool"), (1.0, "float")])
def test_gcd_of_k_minors_rejects_a_non_int_k(k, kind):
    with pytest.raises(TypeError, match=f"k must be int, got {kind}$"):
        gcd_of_k_minors(IntMatrix([[2, 4, 6], [0, 8, 0]]), k)


def test_random_sl3_always_det_one():
    for seed in range(1000):
        assert random_sl3(seed, 10).det == 1


def test_random_sl3_deterministic():
    for seed in (0, 1, 42):
        assert random_sl3(seed, 20) == random_sl3(seed, 20)


def test_random_sl3_negative_seed_repeats_its_absolute_value():
    # CPython seeds random.Random with abs(seed); the docstring says so.
    for seed in (1, 5, 2**64 + 7):
        for word_length in (12, 48, 192):
            assert random_sl3(-seed, word_length) == random_sl3(seed, word_length)
    assert random_sl3(-5, 12) != random_sl3(4, 12)


#: sha256 of the first 1,000 (seed, matrix) pairs at word lengths 12, 48
#: and 192, recorded from the original rng.sample/rng.choice loop.
RANDOM_SL3_STREAM_SHA256 = (
    "2cf158f16a05320b188322a92e93358b68ee1c4e8add02118d4a1c64ccf31ea7"
)


def test_random_sl3_stream_is_pinned():
    h = hashlib.sha256()
    for word_length in (12, 48, 192):
        for seed in range(1000):
            rows = random_sl3(seed, word_length).m.to_lists()
            h.update(json.dumps([seed, word_length, rows]).encode() + b"\n")
    assert h.hexdigest() == RANDOM_SL3_STREAM_SHA256


def test_random_sl3_matches_reference_loop():
    for word_length in (-3, 0, 1, 2, 5, 12, 48, 192):
        for seed in (-1, 2**64 + 7, *range(300)):
            expected = reference_random_sl3(seed, word_length)
            assert random_sl3(seed, word_length).m.to_lists() == expected
    # Long words, where Mersenne Twister regenerates its 624-word state
    # many times within one call.
    for seed in (0, 1, 2**64 + 7):
        assert random_sl3(seed, 5000).m.to_lists() == reference_random_sl3(seed, 5000)


def test_random_sl3_single_moves_reach_every_branch():
    # A one-move word is the elementary matrix I + s * e_ij; seeds 0-299
    # reach all 12 signed (i, j), so every leaf of the unrolled move tree
    # runs and is checked against the reference loop.
    seen = set()
    for seed in range(300):
        rows = random_sl3(seed, 1).m.to_lists()
        assert rows == reference_random_sl3(seed, 1)
        seen.add(tuple(map(tuple, rows)))
    elementary = set()
    for i in range(3):
        for j in range(3):
            for s in (1, -1):
                if i != j:
                    m = [[int(r == c) for c in range(3)] for r in range(3)]
                    m[i][j] = s
                    elementary.add(tuple(map(tuple, m)))
    assert len(elementary) == 12
    assert seen == elementary


# --- the closed-form 3x3 core against the oracles ----------------------------


def _big_unimodular(rng, bits):
    """A 3x3 integer matrix of determinant +1 or -1 with entries of ``bits``+ bits."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    while max(abs(x) for row in m for x in row).bit_length() < bits:
        i, j = rng.sample(range(3), 2)
        t = rng.getrandbits(48) - 2**47
        m[i] = [x + t * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[2] = [-x for x in m[2]]
    return m


def _check_inverse(rows):
    u = UnimodularMatrix(IntMatrix(rows))
    inv = inverse_unimodular(u)
    n = len(rows)
    assert inv.det == u.det == leibniz_det(rows)
    assert leibniz_det(inv.m.to_lists()) == u.det
    assert u.m @ inv.m == IntMatrix.identity(n)
    assert inv.m @ u.m == IntMatrix.identity(n)
    assert (u @ inv).det == 1 and (u @ inv).m == IntMatrix.identity(n)


def test_closed_forms_exhaustive_small_entries():
    # every 2x2 with entries in [-3, 3] and every 3x3 with entries in [-1, 1]
    for shape, lo, hi in (((2, 2), -3, 3), ((3, 3), -1, 1)):
        total = (hi - lo + 1) ** (shape[0] * shape[1])
        unimodular = 0
        for index in range(total):
            rows = matrix_from_index(index, shape, lo, hi)
            other = matrix_from_index((index * 7919 + 13) % total, shape, lo, hi)
            d = leibniz_det(rows)
            assert determinant(IntMatrix(rows)) == d
            assert multiply(IntMatrix(rows), IntMatrix(other)) == IntMatrix(
                naive_product(rows, other)
            )
            if d in (1, -1):
                unimodular += 1
                _check_inverse(rows)
        assert unimodular > 0


def test_closed_forms_large_entries():
    rng = random.Random(37)
    for _ in range(200):
        a = [[rng.getrandbits(220) - 2**219 for _ in range(3)] for _ in range(3)]
        b = [[rng.getrandbits(220) - 2**219 for _ in range(3)] for _ in range(3)]
        assert determinant(IntMatrix(a)) == leibniz_det(a)
        product = multiply(IntMatrix(a), IntMatrix(b))
        assert product == IntMatrix(naive_product(a, b))
        assert determinant(product) == leibniz_det(a) * leibniz_det(b)
    for _ in range(100):
        rows = _big_unimodular(rng, 200)
        _check_inverse(rows)
        u = UnimodularMatrix(IntMatrix(rows))
        v = UnimodularMatrix(IntMatrix(_big_unimodular(rng, 200)))
        assert (u @ v).det == leibniz_det((u @ v).m.to_lists()) == u.det * v.det


def test_inverse_general_shapes():
    rng = random.Random(41)
    for n in (1, 2, 4):
        for _ in range(30):
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(12):
                if n > 1:
                    i, j = rng.sample(range(n), 2)
                    t = rng.randint(-5, 5)
                    m[i] = [x + t * y for x, y in zip(m[i], m[j])]
            if rng.random() < 0.5:
                m[0] = [-x for x in m[0]]
            _check_inverse(m)


#: sha256 of the inverses of 60 seeded unimodular matrices of each size 1, 2,
#: 4 and 5, recorded while the inverse of a size other than 3 was still the
#: adjugate of Bareiss cofactors.
GENERAL_INVERSE_SHA256 = (
    "0d6908824860faecb58b5ea0bd398f107cc540632419dfa410f7655207b0bb26"
)


def test_general_size_inverses_are_two_sided_and_pinned():
    rng = random.Random(59)
    h = hashlib.sha256()
    for n in (1, 2, 4, 5):
        for _ in range(60):
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(4 * n * (n > 1)):
                i, j = rng.sample(range(n), 2)
                t = rng.randint(-7, 7)
                m[i] = [x + t * y for x, y in zip(m[i], m[j])]
            if rng.random() < 0.5:
                m[-1] = [-x for x in m[-1]]
            _check_inverse(m)
            inv = inverse_unimodular(UnimodularMatrix(m))
            h.update(repr((inv, inv.det)).encode() + b"\n")
    assert h.hexdigest() == GENERAL_INVERSE_SHA256


def test_trusted_matrices_equal_validated_ones():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        checked = IntMatrix(rows)
        trusted = IntMatrix._trusted(tuple(map(tuple, rows)))
        assert trusted == checked and hash(trusted) == hash(checked)
        # Internal results compare and hash like validated copies.
        for result in (checked @ checked, -checked, checked.transpose()):
            copy = IntMatrix(result.to_lists())
            assert result == copy and hash(result) == hash(copy)
    for seed in range(50):
        u = random_sl3(seed, 30)
        copy = UnimodularMatrix(u.m.to_lists())
        assert u == copy and hash(u) == hash(copy) and u.det == copy.det == 1


def test_public_constructors_still_validate():
    for bad in ([[1, "2"], [3, 4]], [[1.0]], [[None, 1]], [[1, 2], [3, 4.5]]):
        with pytest.raises(TypeError):
            IntMatrix(bad)
        with pytest.raises(TypeError):
            UnimodularMatrix(bad)
    for bad in ([], [[]], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ShapeError):
            IntMatrix(bad)
    with pytest.raises(ShapeError):
        UnimodularMatrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(NotUnimodularError):
        UnimodularMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])


def test_trusted_builders_have_the_determinant_they_claim():
    rng = random.Random(47)
    for _ in range(300):
        v = tuple(rng.randint(-10**30, 10**30) for _ in range(3))
        if math.gcd(*v) == 1:
            assert leibniz_det(complete_primitive_to_sl3(v).m.to_lists()) == 1
    for v in ((0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)):
        assert leibniz_det(complete_primitive_to_sl3(v).m.to_lists()) == 1
    for _ in range(300):
        g, h = rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30)
        if math.gcd(g, h) == 1:
            assert leibniz_det(sl2_carry_to_e1(g, h).m.to_lists()) == 1
    for seed in range(300):
        assert leibniz_det(random_sl3(seed, 40).m.to_lists()) == 1


@pytest.mark.parametrize("v", [(2.0, 3, 5), (1, 0.0, 0), (0, 0, 1.0), (1, 0, 1.5)])
def test_completion_rejects_non_int_entries(v):
    with pytest.raises(TypeError, match="must be int, got float"):
        complete_primitive_to_sl3(v)


@pytest.mark.parametrize("g, h", [(1.0, 0), (0, 1.0), (2, "3")])
def test_sl2_carry_rejects_non_int_entries(g, h):
    with pytest.raises(TypeError, match="g and h must be int"):
        sl2_carry_to_e1(g, h)


@pytest.mark.parametrize("rows", [[[True]], [[1, 0], [False, 1]]])
def test_matrix_rejects_bool_entries(rows):
    with pytest.raises(TypeError, match="entries must be int, got bool"):
        IntMatrix(rows)


@pytest.mark.parametrize("build, args, message", [
    (IntMatrix.identity, (True,), "n must be int, got bool"),
    (IntMatrix.identity, (2.0,), "n must be int, got float"),
    (IntMatrix.zeros, (2, 1.0), "rows and cols must be int, got float"),
    (IntMatrix.zeros, (2.0, 1), "rows and cols must be int, got float"),
    (IntMatrix.zeros, (False, 1), "rows and cols must be int, got bool"),
])
def test_matrix_sizes_must_be_int(build, args, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        build(*args)


@pytest.mark.parametrize("v", [(True, False, 1), (1, False, 0), (0, 0, True)])
def test_completion_rejects_bool_entries(v):
    with pytest.raises(TypeError, match="entries must be int, got bool"):
        complete_primitive_to_sl3(v)


@pytest.mark.parametrize("g, h", [(True, 0), (0, True)])
def test_sl2_carry_rejects_bool_entries(g, h):
    with pytest.raises(TypeError, match="g and h must be int, got bool"):
        sl2_carry_to_e1(g, h)


def test_unimodular_value_semantics():
    u = UnimodularMatrix([[1, 2], [0, 1]])
    assert u == UnimodularMatrix(IntMatrix([[1, 2], [0, 1]]))
    assert u.__eq__(u.m) is NotImplemented and u != u.m
    assert hash(u) == hash(UnimodularMatrix([[1, 2], [0, 1]]))
    assert hash(u) != hash(u.m)
    assert repr(u) == "UnimodularMatrix([[1, 2], [0, 1]])"
    inv = u.inverse()
    assert inv == UnimodularMatrix([[1, -2], [0, 1]]) and inv.det == 1
    assert u @ IntMatrix([[1], [1]]) == IntMatrix([[3], [1]])
    assert (u @ inv).m == IntMatrix.identity(2)


@pytest.mark.parametrize("other", [
    UnimodularMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    2,
])
def test_intmatrix_matmul_rejects_other_operands(other):
    with pytest.raises(TypeError, match="unsupported operand type"):
        IntMatrix.identity(3) @ other
