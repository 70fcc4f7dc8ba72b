"""Hypothesis checks of the algebraic identities behind the library."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfglue.gluing import GluingMatrix, _reduce, is_extendable
from hopfglue.linalg import (
    IntMatrix,
    UnimodularMatrix,
    determinant,
    extended_gcd,
    gcd_of_k_minors,
    inverse_unimodular,
    random_sl3,
    smith_normal_form,
)
from oracles import certificate_error, class_form, class_of_column

ints = st.integers(min_value=-1000, max_value=1000)
small = st.integers(min_value=-30, max_value=30)


def matrices(max_dim=3, entries=small):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    ).map(IntMatrix)


@given(ints, ints)
def test_bezout_identity(a, b):
    g, x, y = extended_gcd(a, b)
    assert g == math.gcd(a, b)
    assert x * a + y * b == g


@given(matrices(), matrices(), matrices())
def test_product_associativity(a, b, c):
    if a.cols != b.rows or b.cols != c.rows:
        return
    assert (a @ b) @ c == a @ (b @ c)


@given(matrices(max_dim=3), matrices(max_dim=3))
def test_determinant_is_multiplicative(a, b):
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        return
    assert determinant(a @ b) == determinant(a) * determinant(b)


@settings(max_examples=60)
@given(matrices())
def test_snf_invariants(a):
    res = smith_normal_form(a)
    assert (res.u.m @ a) @ res.v.m == res.d
    diag = res.diagonal()
    prod = 1
    for k, entry in enumerate(diag, start=1):
        assert entry >= 0
        if k > 1:
            assert entry == 0 if diag[k - 2] == 0 else entry % diag[k - 2] == 0
        prod *= entry
        assert prod == gcd_of_k_minors(a, k)


def extendables():
    shear_words = st.lists(
        st.tuples(st.booleans(), st.integers(-3, 3)), min_size=0, max_size=5
    )

    def build(word, v, w):
        r, t, s, u = 1, 0, 0, 1
        for upper, k in word:
            if upper:
                r, t = r + k * s, t + k * u
            else:
                s, u = s + k * r, u + k * t
        return IntMatrix([[r, t, 0], [s, u, 0], [v, w, 1]])

    return st.builds(build, shear_words, st.integers(-9, 9), st.integers(-9, 9))


@given(extendables(), extendables())
def test_extendables_form_a_group(x, y):
    assert is_extendable(x)
    assert is_extendable(x @ y)
    assert is_extendable(inverse_unimodular(UnimodularMatrix(x)).m)


# The class (mu, k0) is an invariant of the double coset E M E, E the
# extendable maps: the class path reaches the same C(mu, k0) from L M R.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(0, 40), extendables(), extendables())
def test_extendable_factors_keep_the_class(seed, word_length, left, right):
    m = random_sl3(seed, word_length).m
    moved = left @ m @ right
    mu, k0 = _reduce(GluingMatrix(m))[2:4]
    assert (mu, k0) == class_of_column(*m.col(2))
    factors_left, factors_right, moved_mu, moved_k0, _ = _reduce(GluingMatrix(moved))
    assert (moved_mu, moved_k0) == (mu, k0)
    assert certificate_error(moved.to_lists(), [f.to_lists() for f in factors_left],
                             [f.to_lists() for f in factors_right],
                             class_form(mu, k0)) is None
