"""The paper's claim, checked on every case of small boxes.

Every unimodular 3x3 matrix with entries in {-1, 0, 1} either has
coprime meridian data, and then both reductions produce certificates that
the nested-list oracles accept and that equal the product-based
reductions, or it is rejected as not homology Hopf.
Every det +1 matrix of that box, after normalize_to_sl3, and of
[-2, 2]^9 reaches its class form C(mu, k0) by the private class path.
Every pair of primitive triples in [-2, 2]^3 composes to a gluing whose
gcd(g, h) is the gcd of the 2-minors of the two surgery relations.
"""

import hashlib
import itertools
import math

import pytest

from hopfglue.gluing import (
    GluingMatrix,
    LogTransformParams,
    NotHomologyHopfError,
    ReductionCertificate,
    _reduce,
    compose_two_fiber,
    normalize_to_sl3,
    reduce_to_normal_form,
    reduce_to_standard,
)
from hopfglue.linalg import IntMatrix
from oracles import (
    certificate_error,
    class_form,
    class_of_column,
    leibniz_det,
    minors_gcd,
    product_reduce_to_normal_form,
    product_reduce_to_standard,
)

N0 = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]

#: sha256 over the normal-form block and both certificates of every
#: homology-Hopf matrix of the unit box, in itertools.product order.
UNIT_BOX_DIGEST = "3ee070425a4f5cbad242659e3cc224bed21c27c6f46a3b1f39d59e3af4056119"


def _cert_lists(c):
    return (c.input.to_lists(), [f.to_lists() for f in c.left_factors],
            [f.to_lists() for f in c.right_factors], c.output.to_lists())


def test_every_unimodular_matrix_of_the_unit_box_reduces_or_is_rejected():
    digest = hashlib.sha256()
    unimodular = hopf = 0
    for e in itertools.product((-1, 0, 1), repeat=9):
        rows = [list(e[0:3]), list(e[3:6]), list(e[6:9])]
        det = leibniz_det(rows)
        if det not in (1, -1):
            continue
        unimodular += 1
        m = normalize_to_sl3(GluingMatrix(IntMatrix(rows)))
        expected = rows if det == 1 else [[x, y, -z] for x, y, z in rows]
        assert m.matrix.to_lists() == expected
        if math.gcd(rows[0][2], rows[1][2]) != 1:
            with pytest.raises(NotHomologyHopfError):
                reduce_to_normal_form(m)
            with pytest.raises(NotHomologyHopfError):
                reduce_to_standard(m)
            continue
        hopf += 1
        nf, cert = reduce_to_normal_form(m)
        std = reduce_to_standard(m)
        assert (nf, cert) == product_reduce_to_normal_form(m)
        assert std == product_reduce_to_standard(m)
        for certificate in (cert, std):
            parts = _cert_lists(certificate)
            assert parts[0] == expected
            assert certificate_error(*parts) is None, (rows, parts)
        (a, c), (b, d) = nf.block.to_lists()
        assert cert.output.to_lists() == [[a, c, 1], [b, d, 0], [0, 0, 1]]
        assert std.output.to_lists() == N0
        digest.update((repr(nf.block.to_lists()) + repr(_cert_lists(cert))
                       + repr(_cert_lists(std)) + "\n").encode())
    assert (unimodular, hopf) == (6960, 6240)
    assert digest.hexdigest() == UNIT_BOX_DIGEST


def test_composed_meridian_gcd_matches_the_relation_minors_on_a_box():
    triples = [t for t in itertools.product(range(-2, 3), repeat=3)
               if math.gcd(*t) == 1]
    params = [LogTransformParams(*t) for t in triples]
    pairs = 0
    for (a, b, p), plus in zip(triples, params):
        for (c, d, q), minus in zip(triples, params):
            g = compose_two_fiber(plus, minus)
            assert math.gcd(g.g, g.h) == minors_gcd([[a + p, b, -p], [c, d, q]], 2)
            pairs += 1
    assert pairs == 9604


#: Classes (mu, k0) of the 6,960 gluings of the unit box, after
#: normalize_to_sl3; (g, h) in {-1, 0, 1}^2 leaves only mu = 0 and 1.
UNIT_BOX_CLASS_COUNTS = {(0, -1): 360, (0, 1): 360, (1, 1): 6240}

#: Classes (mu, k0) of the 67,704 det +1 matrices of [-2, 2]^9.
BOX2_CLASS_COUNTS = {(0, -1): 1300, (0, 1): 1300, (1, 1): 56720, (2, 1): 8384}


def _class_path(m):
    """The class of ``m`` by ``_reduce``, checked three ways.

    The class must match the third column, the factors must carry ``m``
    to C(mu, k0) by the nested-list oracle, and for mu = 1 they must be
    reduce_to_standard's certificate.
    """
    left, right, mu, k0, _ = _reduce(m)
    assert (mu, k0) == class_of_column(*m.matrix.col(2))
    cert = ReductionCertificate(m.matrix, left, right, IntMatrix(class_form(mu, k0)))
    assert certificate_error(*_cert_lists(cert)) is None, m
    if mu == 1:
        assert cert == reduce_to_standard(m)
    return mu, k0


def test_every_gluing_of_the_unit_box_reaches_its_class_form():
    classes = {}
    for e in itertools.product((-1, 0, 1), repeat=9):
        rows = [list(e[0:3]), list(e[3:6]), list(e[6:9])]
        if leibniz_det(rows) in (1, -1):
            c = _class_path(normalize_to_sl3(GluingMatrix(IntMatrix(rows))))
            classes[c] = classes.get(c, 0) + 1
    assert classes == UNIT_BOX_CLASS_COUNTS


def test_every_det_one_matrix_of_the_box_2_reaches_its_class_form():
    # The determinant is the last row dotted with the cross product of the
    # first two, taken once per pair of rows.
    rows = list(itertools.product(range(-2, 3), repeat=3))
    classes = {}
    for r0 in rows:
        a0, a1, a2 = r0
        for r1 in rows:
            b0, b1, b2 = r1
            c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
            for r2 in rows:
                if r2[0] * c0 + r2[1] * c1 + r2[2] * c2 == 1:
                    c = _class_path(GluingMatrix(IntMatrix((r0, r1, r2))))
                    classes[c] = classes.get(c, 0) + 1
    assert classes == BOX2_CLASS_COUNTS
