"""Independent checks for the benchmark's outputs.

Everything here is plain integer arithmetic on tuples and lists.  None of
it calls hopfglue, so a runtime change that computes a wrong answer faster
still fails the benchmark.
"""

import math

STANDARD = ((1, 0, 1), (0, 1, 0), (0, 0, 1))


def is_primitive(x, y, z):
    return math.gcd(x, y, z) == 1


def tuple_mu(a, b, p, c, d, q):
    """Torsion order of pi_1 for the surgery pair, 0 meaning rank 2.

    It is the gcd of the three 2x2 minors of the relation rows
    (a + p, b, -p) and (c, d, q); the first invariant factor is always 1.
    """
    r0, r1 = (a + p, b, -p), (c, d, q)
    return math.gcd(
        r0[0] * r1[1] - r0[1] * r1[0],
        r0[0] * r1[2] - r0[2] * r1[0],
        r0[1] * r1[2] - r0[2] * r1[1],
    )


def group_of_mu(mu):
    """(rank, invariant factors) of Z + Z/mu, with mu = 0 meaning Z^2."""
    if mu == 0:
        return (2, ())
    return (1, () if mu == 1 else (mu,))


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion along row 0."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mul3(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def as_rows(m):
    return tuple(tuple(row) for row in m)


def flip_meridian(m):
    """Negate the third column, the oracle's own normalization to det +1."""
    return tuple((row[0], row[1], -row[2]) for row in m)


def certificate_error(sample, doc):
    """Why a certificate document for ``sample`` is wrong, or None.

    ``sample`` is the gluing as sampled (det +1 or -1, gcd(g, h) = 1);
    ``doc`` is the parsed JSON document.  Checks: the input is the sample
    brought to det +1, every factor has third column (0, 0, 1) and an
    explicit determinant of +1, the nested-list product equals the
    output, and the output is the standard gluing.
    """
    sample = as_rows(sample)
    expected_input = sample if det3(sample) == 1 else flip_meridian(sample)
    if as_rows(doc["input"]) != expected_input:
        return "certificate input is not the normalized sample"
    product = expected_input
    for side in ("left_factors", "right_factors"):
        for f in doc[side]:
            f = as_rows(f)
            if (f[0][2], f[1][2], f[2][2]) != (0, 0, 1) or det3(f) != 1:
                return f"{side} has a factor that does not extend"
    for f in reversed(doc["left_factors"]):
        product = mul3(as_rows(f), product)
    for f in doc["right_factors"]:
        product = mul3(product, as_rows(f))
    if product != as_rows(doc["output"]):
        return "factor product differs from the output"
    if product != STANDARD:
        return "output is not the standard gluing"
    return None


def max_bits(values):
    return max((abs(v).bit_length() for v in values), default=0)
