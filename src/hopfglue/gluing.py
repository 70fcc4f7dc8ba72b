"""Boundary gluings of two copies of T^2 x D^2 and their invariants.

A closed 4-manifold is formed by gluing two copies of T^2 x D^2 along
their boundary 3-tori.  Up to isotopy the gluing is a 3x3 unimodular
matrix acting on first homology of the 3-torus in the fixed ordered basis

    (alpha, beta, gamma),

where alpha and beta generate the torus factor and gamma is the meridian,
the boundary circle of the disc factor.  Convention, used everywhere:
columns are the images of the basis vectors, and composition of maps is
the matrix product with the outer map on the left.

The module computes the fundamental group of such a gluing, decides when
the result has the homology of S^1 x S^3, composes the gluing induced by
a pair of multiplicity/direction surgeries on two torus fibers of
S^1 x S^3, and constructively reduces any determinant +1 gluing with
coprime meridian data to a small normal form.  Every reduction step is a
left or right multiplication by a matrix whose boundary map extends over
T^2 x D^2, and the steps are recorded in an independently checkable
certificate.
"""

from __future__ import annotations

import math
import random

from .abelian import FgAbelianGroup
from .linalg import (
    IntMatrix,
    NotPrimitiveError,
    NotUnimodularError,
    ShapeError,
    UnimodularMatrix,
    _mul3,
    _require_int,
    _Value,
    complete_primitive_to_sl3,
    extended_gcd,
    inverse_unimodular,
)

#: Serialization tag for the basis/composition convention fixed above.
CONVENTION = "columns-are-images-alpha-beta-gamma"


class OrientationError(ValueError):
    """Determinant is -1 where +1 is required; normalize_to_sl3 first."""


class NotHomologyHopfError(ValueError):
    """The meridian-image pair (g, h) is not coprime."""


class ReductionError(RuntimeError):
    """Kept for callers that catch it; the library no longer raises it.

    Deprecated: nothing raises it, so a handler for it never runs.  It
    will be removed in a later release.
    """


# The meridian sign flip, the standard gluing N0 and the gluing zeta.
_FLIP = UnimodularMatrix(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
_N0 = IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
_ZETA = UnimodularMatrix(IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, -1]]))


class GluingMatrix:
    """A 3x3 unimodular matrix in the (alpha, beta, gamma) convention.

    The last column is the image of the meridian; its entries are exposed
    as ``g``, ``h`` (torus directions) and ``k`` (meridian coefficient).
    """

    __slots__ = ("m",)

    def __init__(self, m):
        if isinstance(m, GluingMatrix):
            m = m.m
        if not isinstance(m, UnimodularMatrix):
            m = UnimodularMatrix(m)
        if m.m.rows != 3:
            raise ValueError("gluing matrices are 3x3")
        self.m = m

    @property
    def matrix(self) -> IntMatrix:
        return self.m.m

    @property
    def det(self) -> int:
        return self.m.det

    @property
    def g(self) -> int:
        return self.matrix[0, 2]

    @property
    def h(self) -> int:
        return self.matrix[1, 2]

    @property
    def k(self) -> int:
        return self.matrix[2, 2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GluingMatrix):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((GluingMatrix, self.matrix))

    def __repr__(self) -> str:
        return f"GluingMatrix({self.matrix.to_lists()!r})"


class LogTransformParams:
    """Direction (a, b), signed meridian coefficient p, and a completion.

    The completion is a determinant +1 matrix whose third column is
    (a, b, p); it records how the surgery torus is parametrized.  Its
    existence forces gcd(a, b, p) = 1.  The multiplicity of the surgery
    is |p|.
    """

    __slots__ = ("a", "b", "p", "completion")

    def __init__(self, a: int, b: int, p: int, completion=None):
        _require_int((a, b, p), "a, b and p")
        if completion is None:  # built with the properties checked below
            completion = complete_primitive_to_sl3((a, b, p))
        else:
            if not isinstance(completion, UnimodularMatrix):
                completion = UnimodularMatrix(completion)
            if completion.m.rows != 3:
                raise ShapeError("completion must be 3x3")
            if completion.det != 1:
                raise OrientationError("completion must have determinant +1")
            if completion.m.col(2) != (a, b, p):
                raise ValueError(
                    f"completion third column {completion.m.col(2)} != {(a, b, p)}"
                )
        self.a, self.b, self.p = a, b, p
        self.completion = completion

    @property
    def direction(self) -> tuple:
        return (self.a, self.b)

    @property
    def multiplicity(self) -> int:
        return abs(self.p)

    def __repr__(self) -> str:
        return f"LogTransformParams({self.a}, {self.b}, {self.p})"


class NormalForm(_Value):
    """The reduced gluing shape [[a, c, 1], [b, d, 0], [0, 0, 1]].

    Only the determinant-1 block [[a, c], [b, d]] varies; it is the framing
    data left over after the reduction.
    """

    __slots__ = ()
    __match_args__ = ("block",)

    def __new__(cls, block: IntMatrix):
        b = block if isinstance(block, IntMatrix) else IntMatrix(block)
        if (b.rows, b.cols) != (2, 2):
            raise ValueError("block must be 2x2")
        if b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0] != 1:
            raise ValueError("block must have determinant 1")
        return tuple.__new__(cls, (b,))

    @property
    def matrix(self) -> IntMatrix:
        (a, c), (b, d) = self.block._rows
        return IntMatrix._trusted(((a, c, 1), (b, d, 0), (0, 0, 1)))


class ReductionCertificate(_Value):
    """A factorization witnessing that two gluings give the same manifold.

    ``left_factors`` multiply on the left with the first element outermost,
    ``right_factors`` multiply on the right with the first element
    innermost:

        left[0] @ ... @ left[-1] @ input @ right[0] @ ... @ right[-1] == output

    Every factor must extend over T^2 x D^2 (see is_extendable), so input
    and output describe diffeomorphic glued manifolds.  The certificate is
    plain data and can be re-checked without trusting its producer.
    """

    __slots__ = ()
    __match_args__ = ("input", "left_factors", "right_factors", "output")

    def __new__(cls, input: IntMatrix, left_factors: tuple = (),
                right_factors: tuple = (), output: IntMatrix = None):
        return tuple.__new__(cls, (input, tuple(left_factors), tuple(right_factors), output))


def _as_matrix(m) -> IntMatrix:
    if isinstance(m, IntMatrix):
        return m
    if isinstance(m, GluingMatrix):
        return m.matrix
    if isinstance(m, UnimodularMatrix):
        return m.m
    return IntMatrix(m)


def zeta_matrix() -> GluingMatrix:
    """The gluing of the two solid-torus-times-torus halves of S^1 x S^3.

    In the (alpha, beta, gamma) basis the boundary identification sends
    alpha to alpha, beta to beta, and the meridian gamma to alpha * gamma^-1,
    giving [[1, 0, 1], [0, 1, 0], [0, 0, -1]] (determinant -1: the map
    reverses the boundary orientation).

    Deprecated: it equals ``compose_two_fiber(t, t)`` for the trivial
    surgery ``t = LogTransformParams(0, 0, 1)``, as the tests pin.  It
    will be removed in a later release.
    """
    return GluingMatrix(_ZETA.m)


def standard_gluing_matrix() -> GluingMatrix:
    """The normal form with identity block: the reduction target N0."""
    return GluingMatrix(_N0)


def is_extendable(m) -> bool:
    """Whether the boundary map extends over T^2 x D^2.

    True iff the third column is exactly (0, 0, 1) and the determinant is
    +1; the entries below the 2x2 torus block are unconstrained.
    """
    rows = _as_matrix(m)._rows
    return len(rows) == 3 and len(rows[0]) == 3 and _extendable(rows)


def _extendable(rows) -> bool:
    # is_extendable on the rows of a 3x3 matrix.  With third column
    # (0, 0, 1) the determinant is that of the 2x2 block.
    (a, c, x), (b, d, y), (_, _, z) = rows
    return x == 0 and y == 0 and z == 1 and a * d - c * b == 1


def normalize_to_sl3(m: GluingMatrix) -> GluingMatrix:
    """Flip the meridian sign of one side if needed to reach det +1.

    Right-multiplying by diag(1, 1, -1) negates the third column, so the
    pair (g, h) changes at most by an overall sign and gcd(g, h) is
    preserved.
    """
    if m.det == 1:
        return m
    return GluingMatrix(m.m @ _FLIP)


#: Shared groups by mu.  Groups are immutable, so every caller may hold
#: the same instance; past _GROUPS_MAX entries new groups are not kept.
_GROUPS = {0: FgAbelianGroup(2, ()), 1: FgAbelianGroup(1, ())}
_GROUPS_MAX = 4096


def group_of_mu(mu: int) -> FgAbelianGroup:
    """The group Z + Z/mu, with mu = 0 meaning Z^2 and mu = 1 meaning Z.

    The one place the rule is written: every group the package reports,
    from a gluing, a pair of surgeries or a sweep cell, comes from here.
    """
    g = _GROUPS.get(mu)
    if g is None:
        if mu == 0:
            g = FgAbelianGroup(2, ())
        else:  # a negative mu raises, as an invariant factor below 2
            g = FgAbelianGroup(1, () if mu == 1 else (mu,))
        if len(_GROUPS) < _GROUPS_MAX:
            _GROUPS[mu] = g
    return g


def pi1_single_gluing(m: GluingMatrix) -> FgAbelianGroup:
    """Fundamental group of the glued manifold: Z + Z/gcd(g, h).

    Both meridians die, so the group is Z^2 modulo the single relation
    (g, h); gcd(0, 0) = 0 contributes an extra free summand instead of
    torsion.
    """
    return group_of_mu(math.gcd(m.g, m.h))


def is_homology_hopf(m: GluingMatrix) -> bool:
    """True iff the glued manifold has the integer homology of S^1 x S^3."""
    return math.gcd(m.g, m.h) == 1


# --- composition of two fiber surgeries --------------------------------


def random_completion(v, seed: int) -> UnimodularMatrix:
    """A pseudo-random determinant +1 completion of the primitive triple v.

    Right-multiplies the canonical completion by a random matrix that
    fixes the third basis vector, which leaves the third column intact.
    """
    _require_int((seed,), "seed")
    rng = random.Random(seed)
    base = complete_primitive_to_sl3(tuple(v))
    block = [[1, 0], [0, 1]]
    for _ in range(6):
        s = rng.randint(-3, 3)
        if rng.random() < 0.5:
            block[0] = [block[0][0] + s * block[1][0], block[0][1] + s * block[1][1]]
        else:
            block[1] = [block[1][0] + s * block[0][0], block[1][1] + s * block[0][1]]
    # w fixes the third basis vector and its block has determinant 1.
    w = ((block[0][0], block[0][1], 0), (block[1][0], block[1][1], 0),
         (rng.randint(-5, 5), rng.randint(-5, 5), 1))
    return UnimodularMatrix._trusted(IntMatrix._trusted(_mul3(base.m._rows, w)), 1)


def calibrated_zeta_variant() -> str:
    """The meridian sign convention of the middle gluing: always "zeta".

    The basis of the boundary 3-torus is only canonical up to the sign of
    the meridian on each side, which leaves four candidate gluing matrices
    D @ zeta @ D' with D, D' in {I, diag(1, 1, -1)}.  Exactly one of them,
    the raw zeta, makes the composed-matrix computation match the direct
    two-relation presentation; the tests check that on a fixed agreement
    suite.  The name is embedded in serialized output as ``zeta_variant``.

    Deprecated: the convention is fixed, so this only returns a constant.
    It will be removed in a later release; documents keep the field
    ``"zeta_variant": "zeta"``.
    """
    return "zeta"


def compose_two_fiber(plus: LogTransformParams,
                      minus: LogTransformParams) -> GluingMatrix:
    """Gluing matrix obtained by surgering two fibers of S^1 x S^3.

    Computes inverse(plus.completion) @ zeta @ minus.completion.  The
    invariants of the result depend only on the two triples, not on the
    completion choices.
    """
    return GluingMatrix(
        inverse_unimodular(plus.completion) @ _ZETA @ minus.completion
    )


def _two_log_mu(a: int, b: int, p: int, c: int, d: int, q: int) -> int:
    # gcd of the 2-minors of the relation matrix [(a + p, b, -p), (c, d, q)]
    r0 = a + p
    return math.gcd(r0 * d - b * c, r0 * q + p * c, b * q + p * d)


def pi1_two_log_transforms(a: int, b: int, p: int,
                           c: int, d: int, q: int) -> FgAbelianGroup:
    """Fundamental group from the two surgery relations directly.

    The two killed curves give the relation rows (a + p, b, -p) and
    (c, d, q) over the three torus generators; the group is their
    cokernel.  The second row is primitive, so the first invariant factor
    is 1 and, by Smith's minors theorem, the cokernel is Z + Z/mu with mu
    the gcd of the three 2-minors (mu = 0 gives Z^2).  That closed form is
    what is computed here; the tests keep the Smith normal form route
    (group_from_presentation) as an independent oracle.
    """
    _require_int((a, b, p, c, d, q), "a, b, p, c, d and q")
    if math.gcd(a, b, p) != 1:
        raise NotPrimitiveError(f"triple {(a, b, p)} is not primitive")
    if math.gcd(c, d, q) != 1:
        raise NotPrimitiveError(f"triple {(c, d, q)} is not primitive")
    return group_of_mu(_two_log_mu(a, b, p, c, d, q))


# --- constructive reduction with certificates ---------------------------


def _reduce(m: GluingMatrix):
    """Extendable moves to the class form: ``(left, right, mu, k0, block)``.

    With third column (g, h, k), mu = gcd(g, h) and k0 = k mod mu in
    [1, mu]; det = 1 expanded along column 2 makes k a unit mod mu, and
    forces k0 = k = +-1 for mu = 0.  ``left`` (outermost first) and
    ``right`` carry ``m`` to C(mu, k0) = [[x0, 0, mu], [0, 1, 0], [y0, 0, k0]]
    with x0 k0 - y0 mu = 1 and x0 in [1, mu] (x0 = k0, y0 = 0 for mu = 0).
    Every factor has third column (0, 0, 1) and det 1, so it is extendable,
    and is omitted when it is the identity:

    1. the carry [[x, y], [-h/mu, g/mu]] on rows 0-1 (det (xg + yh)/mu = 1)
       takes (g, h) to (mu, 0); it and move 2 are skipped for mu = 0;
    2. the left shear adds t = (k0 - k)/mu times row 0 to row 2;
    3. the right shear adds r_j times column 2 to column j = 0, 1, where
       [[mu, -x0], [k0, -y0]] (r_j, w_j) = (-a_j, -e_j) for a_j, e_j the
       row 0 and 2 entries of column j.  The system has det 1, so
       r_j = y0 a_j - x0 e_j and w_j = k0 a_j - mu e_j are integers, and
       the matrix becomes C(mu, k0) @ [[B, 0], [0, 1]] with ``block``
       B = [[w0, w1], [b, d]], of det 1;
    4. the inverse of B, bordered the same way.

    For mu = 1, x0 = 1 and y0 = 0, so the moves are the carry
    [[x, y], [-h, g]], the shear by 1 - k, the right shear (-e, -f) and
    the inverse of block (a - e, c - f, b, d).  Each move updates only the
    entries it changes; the tests keep the product of factors as an oracle.
    """
    if m.det != 1:
        raise OrientationError(
            "determinant is -1; apply normalize_to_sl3 before reducing"
        )
    (a, c, g), (b, d, h), (e, f, k) = m.matrix._rows
    mu, x, y = extended_gcd(g, h)
    k0, x0, y0 = k, k, 0  # the values for mu = 0
    left = []  # innermost first while building
    if mu:
        if g != mu or h != 0:  # else extended_gcd gave (x, y) = (1, 0)
            u, v = h // mu, g // mu
            left.append(IntMatrix._trusted(((x, y, 0), (-u, v, 0), (0, 0, 1))))
            a, c, b, d = x * a + y * b, x * c + y * d, v * b - u * a, v * d - u * c
        k0 = (k - 1) % mu + 1
        if k != k0:
            t = (k0 - k) // mu
            left.append(IntMatrix._trusted(((1, 0, 0), (0, 1, 0), (t, 0, 1))))
            e, f = e + t * a, f + t * c
        x0 = pow(k0, -1, mu) or mu
        y0 = (x0 * k0 - 1) // mu
    right = []
    r0, r1 = y0 * a - x0 * e, y0 * c - x0 * f
    if r0 or r1:
        right.append(IntMatrix._trusted(((1, 0, 0), (0, 1, 0), (r0, r1, 1))))
    w0, w1 = k0 * a - mu * e, k0 * c - mu * f
    if (w0, w1, b, d) != (1, 0, 0, 1):
        right.append(IntMatrix._trusted(((d, -w1, 0), (-b, w0, 0), (0, 0, 1))))
    return left[::-1], right, mu, k0, (w0, w1, b, d)


def _reduce_hopf(m: GluingMatrix):
    # _reduce for the one homology Hopf class, whose form C(1, 1) is N0.
    left, right, mu, _, block = _reduce(m)
    if mu != 1:
        raise NotHomologyHopfError(
            f"gcd(g, h) = gcd({m.g}, {m.h}) = {mu} != 1: not a homology Hopf gluing"
        )
    return left, right, block


def reduce_to_normal_form(m: GluingMatrix):
    """Reduce a det +1 gluing with coprime (g, h) to normal form.

    Returns ``(NormalForm, ReductionCertificate)``.  Three moves, in order,
    each by an extendable factor: a 2x2 determinant-1 block acting on the
    first two rows carries the column pair (g, h) to (1, 0); a left shear
    subtracts (k - 1) times the first row from the last, making the
    meridian coefficient 1; a right shear adds multiples of the third
    column to the first two, clearing the bottom-left entries.

    Identity moves are omitted, so inputs already in normal form get an
    empty certificate.  It holds by construction (moves 1-3 of
    ``_reduce``, for mu = 1); ``verify``, ``selftest`` and the tests
    re-check it.
    """
    left, right, (a, c, b, d) = _reduce_hopf(m)
    if (a, c, b, d) != (1, 0, 0, 1):  # stop before the inverse of the block
        right.pop()
    nf = NormalForm(IntMatrix._trusted(((a, c), (b, d))))
    return nf, ReductionCertificate(m.matrix, left, right, nf.matrix)


def reduce_to_standard(m: GluingMatrix) -> ReductionCertificate:
    """Reduce all the way to the fixed target N0 = [[1,0,1],[0,1,0],[0,0,1]].

    Appends one right factor to the normal-form moves, ``undo`` =
    [[d, -c, 0], [-b, a, 0], [0, 0, 1]]: its third column is (0, 0, 1) and
    its block has determinant 1, it turns the normal form into N0, and it
    is omitted when it is the identity.  The output is N0 itself, with no
    product taken; nothing is re-checked here.
    """
    left, right, _ = _reduce_hopf(m)
    return ReductionCertificate(m.matrix, left, right, _N0)


def certificate_failure(cert: ReductionCertificate):
    """Reason the certificate is invalid, or None if it verifies.

    Checks every factor against the extendability predicate (reporting the
    first offender by side and index), then that the input is a gluing
    (determinant +1 or -1), and then the exact product identity.  The
    product is taken over row tuples with ``linalg._mul3``, the same 3x3
    kernel ``multiply`` uses, and compared with the output's rows.
    """
    left, right = [], []
    for side, factors, kept in (("left", cert.left_factors, left),
                                ("right", cert.right_factors, right)):
        for idx, f in enumerate(factors):
            try:
                mat = _as_matrix(f)
            except (ValueError, TypeError) as exc:
                return f"malformed certificate: {side} factor {idx}: {exc}"
            rows = mat._rows
            if len(rows) != 3 or len(rows[0]) != 3:
                return f"{side} factor {idx} is not 3x3"
            if not _extendable(rows):
                return f"{side} factor {idx} is not extendable"
            kept.append(rows)
    try:
        product = _as_matrix(cert.input)
    except (ValueError, TypeError) as exc:
        return f"malformed certificate: input: {exc}"
    if (product.rows, product.cols) != (3, 3):
        return "input is not 3x3"
    try:
        UnimodularMatrix(product)
    except NotUnimodularError as exc:
        return f"input is not a gluing: {exc}"
    rows = product._rows
    for f in reversed(left):
        rows = _mul3(f, rows)
    for f in right:
        rows = _mul3(rows, f)
    try:
        output = _as_matrix(cert.output)
    except (ValueError, TypeError) as exc:
        return f"malformed certificate: output: {exc}"
    if rows != output._rows:
        return "product identity fails"
    return None


def verify_certificate(cert: ReductionCertificate) -> bool:
    """True iff every factor is extendable and the product identity holds.

    Never raises on bad certificates; they simply fail.
    """
    return certificate_failure(cert) is None


def framing_block(n: NormalForm) -> IntMatrix:
    """The 2x2 determinant-1 block of a normal form.

    This is the leftover parameter of the reduction; it acts as the
    framing of the final handle attachment and has no effect on the
    diffeomorphism type.

    Deprecated: it is ``n.block``.  It will be removed in a later release.
    """
    return n.block
