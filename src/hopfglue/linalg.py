"""Exact arbitrary-precision integer matrix arithmetic.

Everything here is computed over Python ints, so there is no overflow and
no rounding, ever.  Matrices are immutable values: operations return new
objects, equal matrices compare equal, and instances can be shared freely
between threads.

The module provides products, determinants, unimodular inverses, the
extended Euclidean algorithm, Smith normal form with its transformation
matrices, gcds of k-minors, and completions of primitive vectors to
determinant-one matrices.

Every matrix the library meets at run time is 3x3 (or 2x3, 2x2), so 3x3
products, determinants and inverses are written out in closed form.
Other shapes take one general route each: Bareiss elimination for
determinants, and the Smith normal form (one gcd row transform, applied
to the transpose for column moves) for inverses.  Public constructors
validate their input; matrices the module builds from ints it already
holds go through the private, unchecked ``_trusted`` constructors.

All eight result types are immutable value classes on one private base,
rather than dataclasses: ``SnfResult`` here, ``Presentation`` and
``FgAbelianGroup`` in ``abelian``, ``NormalForm`` and
``ReductionCertificate`` in ``gluing``, and ``SweepSpec``, ``SweepRecord``
and ``SweepSummary`` in ``sweep``.  Each is a tuple of its fields, so a
value the library builds is one ``tuple.__new__`` call; ``len``,
indexing, unpacking and ``isinstance(v, tuple)`` work on it, ``+`` and
``*`` give plain tuples, and ``json.dumps`` writes it as an array.  A
held ``SweepRecord`` takes 185 bytes, against 169 as a ``__slots__``
class, since the tuple allocator reserves one spare item.  The
``dataclasses`` helpers reject these types, and no module of the package
imports ``dataclasses``.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from operator import itemgetter


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotUnimodularError(ValueError):
    """The determinant is not +1 or -1."""


class NotPrimitiveError(ValueError):
    """The entries of an integer vector share a common divisor > 1."""


_I3_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _require_int(values, what: str = "entries") -> None:
    """Raise TypeError unless every value is an int (a bool is not)."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"{what} must be int, got {type(x).__name__}")


def _describe(n: int) -> str:
    """``n`` in decimal, or its size if it is too long for the int/str limit."""
    try:
        return str(n)
    except ValueError:
        return f"an integer of {n.bit_length()} bits"


class IntMatrix:
    """Dense integer matrix with value semantics.

    Entries are stored row-major as a tuple of tuples; instances are
    immutable and hashable.  Indexing is 0-based: ``m[i, j]`` reads one
    entry, ``m.row(i)`` and ``m.col(j)`` return whole lines.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(data[0])
        for row in data:
            if len(row) != width:
                raise ShapeError("all rows must have the same length")
            _require_int(row)
        self._rows = data

    @classmethod
    def _trusted(cls, rows) -> "IntMatrix":
        """Wrap ``rows``, a non-empty tuple of equal-length int tuples, unchecked."""
        self = object.__new__(cls)
        self._rows = rows
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _require_int((n,), "n")
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _require_int((rows, cols), "rows and cols")
        return cls([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, key) -> int:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self._rows)

    def to_lists(self) -> list:
        return [list(row) for row in self._rows]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self._rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return multiply(self, other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(-x for x in row) for row in self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __reduce__(self):
        # Without it, pickle protocols 0 and 1 refuse a __slots__ class.
        return (IntMatrix, (self._rows,))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


class UnimodularMatrix:
    """A square integer matrix of determinant +1 or -1.

    The determinant is computed once at construction and kept; an exact
    integer inverse always exists.
    """

    __slots__ = ("m", "det")

    def __init__(self, m):
        if not isinstance(m, IntMatrix):
            m = IntMatrix(m)
        if m.rows != m.cols:
            raise ShapeError("unimodular matrices must be square")
        d = determinant(m)
        if d not in (1, -1):
            raise NotUnimodularError(f"determinant is {_describe(d)}, expected +1 or -1")
        self.m = m
        self.det = d

    @classmethod
    def _trusted(cls, m: IntMatrix, det: int) -> "UnimodularMatrix":
        """Wrap a square ``m`` already known to have determinant ``det``."""
        self = object.__new__(cls)
        self.m = m
        self.det = det
        return self

    def inverse(self) -> "UnimodularMatrix":
        return inverse_unimodular(self)

    def __matmul__(self, other):
        if isinstance(other, UnimodularMatrix):
            # The determinant is multiplicative.
            return UnimodularMatrix._trusted(self.m @ other.m, self.det * other.det)
        return self.m @ other

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return self.m == other.m

    def __hash__(self) -> int:
        return hash((UnimodularMatrix, self.m))

    def __reduce__(self):
        return (UnimodularMatrix, (self.m,))

    def __repr__(self) -> str:
        return f"UnimodularMatrix({self.m.to_lists()!r})"


class _Value(tuple):
    """Base of the immutable value classes: a tuple of the fields.

    A subclass declares ``__slots__ = ()``, so it has no ``__dict__``, and
    names its fields once, in order, as ``__match_args__``; each field is
    then a read-only property reading its item.  A subclass's ``__new__``
    validates and returns ``tuple.__new__(cls, fields)``.

    Like a frozen dataclass, an instance is equal only to another of the
    same class with equal fields (never to a plain tuple, nor to a value
    of another class with the same fields), hashes as the tuple of its
    fields, has the repr ``Name(field=value, ...)``, refuses assignment
    and deletion, cannot be ordered against another value, and is copied
    and pickled through its constructor.  Being a tuple, it also has a
    length, items and unpacking.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls.__match_args__):
            setattr(cls, name, property(itemgetter(i)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # Against any other tuple these answer False/True themselves: given
    # NotImplemented, the plain tuple's comparison would decide, and
    # tuple(v) == v would be true.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), tuple(self))


class SnfResult(_Value):
    """Smith normal form ``u @ a @ v == d`` of an input matrix ``a``.

    ``d`` has the shape of ``a``, is zero off the diagonal, and its diagonal
    entries are non-negative with each dividing the next.  ``u`` and ``v``
    are unimodular.
    """

    __slots__ = ()
    __match_args__ = ("u", "d", "v")

    def __new__(cls, u: UnimodularMatrix, d: IntMatrix, v: UnimodularMatrix):
        return tuple.__new__(cls, (u, d, v))

    def diagonal(self) -> tuple:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product, unrolled for 3x3 operands."""
    ra, rb = a._rows, b._rows
    if len(ra[0]) != len(rb):
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if len(ra) == 3 and len(rb) == 3 and len(rb[0]) == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = ra
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = rb
        return IntMatrix._trusted((
            (a00 * b00 + a01 * b10 + a02 * b20,
             a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20,
             a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20,
             a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22),
        ))
    bt = tuple(zip(*rb))
    return IntMatrix._trusted(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in ra)
    )


def determinant(a: IntMatrix) -> int:
    """Exact determinant: cofactor expansion for 3x3, Bareiss otherwise."""
    rows = a._rows
    n = len(rows)
    if n != len(rows[0]):
        raise ShapeError("determinant needs a square matrix")
    if n == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
        return (a00 * (a11 * a22 - a12 * a21)
                - a01 * (a10 * a22 - a12 * a20)
                + a02 * (a10 * a21 - a11 * a20))
    # Fraction-free (Bareiss) elimination; a 1x1 matrix is its own pivot.
    m = a.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: Bareiss guarantees prev divides this.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse_unimodular(a: UnimodularMatrix) -> UnimodularMatrix:
    """Exact integer inverse, with the same determinant as ``a``.

    A 3x3 inverse is the adjugate times the determinant: dividing by +1
    or -1 is multiplying by it.  Any other size is read off the Smith
    form: a unimodular ``a`` has ``u @ a @ v == I``, so its inverse is
    ``v @ u``.
    """
    d = a.det
    if a.m.rows != 3:
        snf = smith_normal_form(a.m)
        return UnimodularMatrix._trusted(snf.v.m @ snf.u.m, d)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.m._rows
    adj = (
        (a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
        (a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
        (a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10),
    )
    if d == -1:
        adj = tuple(tuple(-x for x in row) for row in adj)
    return UnimodularMatrix._trusted(IntMatrix._trusted(adj), d)


def extended_gcd(a: int, b: int) -> tuple:
    """Return ``(g, x, y)`` with ``x*a + y*b == g`` and ``g == gcd(a, b)``.

    ``g`` is non-negative and ``gcd(0, 0) == 0`` with coefficients (0, 0).
    The coefficients are the ones produced by the classical Euclidean
    recursion on ``|a|, |b|`` (signs folded back in), so they are
    reproducible and have the usual small magnitudes.
    """
    _require_int((a, b), "a and b")
    if a == 0 and b == 0:
        return (0, 0, 0)
    g, x, y = _egcd(abs(a), abs(b))
    return (g, x if a >= 0 else -x, y if b >= 0 else -y)


def _egcd(a: int, b: int) -> tuple:
    # Iterative form of the classical recursion; a, b >= 0.
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


# --- Smith normal form -------------------------------------------------
#
# The working state is three mutable lists-of-lists (d, u, vt) kept in the
# invariant u @ a @ v == d, with v held transposed as vt.  Row operations
# touch the rows of d and u.  A column operation on d is the same row
# operation on the transpose of d, and on vt, so one row routine does both.
# Every gcd transform and column fold has determinant 1, so the
# determinants of u and v are the signs of their swaps and sign flips,
# tracked as the elimination goes.


def _gcd_rows(d, w, t, i):
    """Left-multiply rows (t, i) of d and w by a det-1 transform making d[i][t] = 0.

    The caller ensures d[i][t] != 0.  If d[t][t] divides it, only row i moves.
    """
    a0, b0 = d[t][t], d[i][t]
    if a0 != 0 and b0 % a0 == 0:
        q = b0 // a0
        for z in (d, w):
            z[i] = [x - q * y for x, y in zip(z[i], z[t])]
        return
    g, x, y = extended_gcd(a0, b0)
    aa, bb = a0 // g, b0 // g
    for z in (d, w):
        zt, zi = z[t], z[i]
        z[t] = [x * p + y * q for p, q in zip(zt, zi)]
        z[i] = [-bb * p + aa * q for p, q in zip(zt, zi)]


def _move_pivot(d, u, vt, t, m, n):
    """Swap the smallest nonzero |entry| of the trailing block into (t, t).

    Ties break by row, then column.  Returns None when the block is zero,
    else the determinants (+1 or -1) of the swaps applied to u and to v.
    """
    best = min(((abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                if d[i][j]), default=None)
    if best is None:
        return None
    _, bi, bj = best
    su = sv = 1
    if bi != t:
        d[t], d[bi] = d[bi], d[t]
        u[t], u[bi] = u[bi], u[t]
        su = -1
    if bj != t:
        for row in d:
            row[t], row[bj] = row[bj], row[t]
        vt[t], vt[bj] = vt[bj], vt[t]
        sv = -1
    return su, sv


def _clear_position(d, u, vt, t, m, n):
    """Zero out row t and column t beyond the pivot, alternating passes.

    The column pass works on the transpose of d.  Each general gcd
    transform replaces the pivot by a strict divisor, so the alternation
    terminates.
    """
    while True:
        for i in range(t + 1, m):
            if d[i][t]:
                _gcd_rows(d, u, t, i)
        dt = [list(col) for col in zip(*d)]
        for j in range(t + 1, n):
            if dt[j][t]:
                _gcd_rows(dt, vt, t, j)
        d[:] = map(list, zip(*dt))
        # Each pass leaves its own line clear; only the column pass can
        # refill column t.
        if not any(d[i][t] for i in range(t + 1, m)):
            return


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize ``a`` over the integers: ``u @ a @ v == d``.

    The diagonal of ``d`` is non-negative and each entry divides the next,
    so ``d`` is the unique Smith form of ``a``; the product of the first k
    diagonal entries equals the gcd of all k-minors of ``a``.
    """
    m, n = a.rows, a.cols
    d = a.to_lists()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    limit = min(m, n)
    det_u = det_v = 1

    for t in range(limit):
        signs = _move_pivot(d, u, vt, t, m, n)
        if signs is None:
            break
        det_u *= signs[0]
        det_v *= signs[1]
        _clear_position(d, u, vt, t, m, n)

    def fix_sign(i):
        nonlocal det_u
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
            det_u = -det_u

    for i in range(limit):
        fix_sign(i)

    rank = sum(1 for i in range(limit) if d[i][i] != 0)
    for i in range(rank):
        for j in range(i + 1, rank):
            if d[j][j] % d[i][i] != 0:
                # Fold d[j][j] into column i, then re-clear: the pair
                # (d_i, d_j) becomes (gcd, lcm) and nothing else moves.
                for row in d:
                    row[i] += row[j]
                vt[i] = [x + y for x, y in zip(vt[i], vt[j])]
                _clear_position(d, u, vt, i, m, n)
                fix_sign(i)
                fix_sign(j)

    return SnfResult(
        UnimodularMatrix._trusted(IntMatrix._trusted(tuple(map(tuple, u))), det_u),
        IntMatrix._trusted(tuple(map(tuple, d))),
        UnimodularMatrix._trusted(IntMatrix._trusted(tuple(zip(*vt))), det_v),
    )


def gcd_of_k_minors(a: IntMatrix, k: int) -> int:
    """Gcd of the determinants of all k x k submatrices of ``a``.

    Returns 0 when every k-minor vanishes (the gcd-of-nothing-but-zeros
    convention).
    """
    _require_int((k,), "k")
    if not 1 <= k <= min(a.rows, a.cols):
        raise ShapeError(f"k={k} out of range for a {a.rows}x{a.cols} matrix")
    g = 0
    for rows_idx in combinations(range(a.rows), k):
        for cols_idx in combinations(range(a.cols), k):
            if k == 1:
                minor_det = a[rows_idx[0], cols_idx[0]]
            else:
                minor_det = determinant(IntMatrix._trusted(
                    tuple(tuple(a[i, j] for j in cols_idx) for i in rows_idx)
                ))
            g = math.gcd(g, minor_det)
    return g


def complete_primitive_to_sl3(v) -> UnimodularMatrix:
    """Complete a primitive integer triple to a determinant +1 matrix.

    The returned 3x3 matrix has ``v`` as its third column.  The first two
    columns are assembled from Bezout coefficients in two stages: first
    combine the leading pair of entries, then combine their gcd with the
    last entry.

    Raises NotPrimitiveError unless gcd of the three entries is 1.
    """
    a, b, p = v
    _require_int((a, b, p))
    g1, x1, y1 = extended_gcd(a, b)
    g2, x2, y2 = extended_gcd(g1, p)
    if g2 != 1:
        raise NotPrimitiveError(f"triple {tuple(v)} is not primitive: gcd = {g2}")
    if g1 == 0:
        # a = b = 0 forces p = +1 or -1.
        rows = _I3_ROWS if p == 1 else ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    else:
        # Columns (-y1, x1, 0), (-y2 * a/g1, -y2 * b/g1, x2), (a, b, p).
        # Expanding along the last row gives det = x2*g1 + y2*p = g2 = 1.
        ap, bp = a // g1, b // g1
        rows = ((-y1, -y2 * ap, a), (x1, -y2 * bp, b), (0, x2, p))
    return UnimodularMatrix._trusted(IntMatrix._trusted(rows), 1)


def sl2_carry_to_e1(g: int, h: int) -> UnimodularMatrix:
    """A 2x2 determinant +1 matrix ``u`` with ``u @ (g, h) == (1, 0)``.

    Built as [[x, y], [-h, g]] from Bezout coefficients x*g + y*h = 1;
    requires gcd(g, h) = 1.
    """
    _require_int((g, h), "g and h")
    g0, x, y = extended_gcd(g, h)
    if g0 != 1:
        raise NotPrimitiveError(f"gcd({g}, {h}) = {g0}, expected 1")
    # det = x*g + y*h = 1
    return UnimodularMatrix._trusted(IntMatrix._trusted(((x, y), (-h, g))), 1)


#: (first, second) draw of rng.sample(range(3), 2) -> the pair (i, j) it
#: returns: the first index picks from [0, 1, 2], and pool[2] moves into
#: the vacancy before the second index picks from what is left.
_SAMPLE_PAIRS = (((0, 2), (0, 1)), ((1, 0), (1, 2)), ((2, 0), (2, 1)))


def random_sl3(seed: int, word_length: int) -> UnimodularMatrix:
    """Deterministic pseudo-random element of the 3x3 determinant-1 group.

    The result is a product of ``word_length`` elementary row-addition
    matrices (and their inverses) drawn from ``random.Random(seed)``; the
    same seed always yields the same matrix, and ``word_length <= 0``
    gives the identity.  Both arguments must be int (a bool is not);
    anything else raises TypeError.  CPython seeds ``random.Random`` with
    ``abs(seed)``, so ``random_sl3(-s, L) == random_sl3(s, L)``: a matrix
    sweep, whose sample ``i`` has seed ``seed + i``, repeats matrices
    once its seeds cross zero (``hopfglue sweep --random N --seed -k``
    with ``0 < k < N - 1`` gives samples ``k - j`` and ``k + j`` the same
    matrix).

    Stream contract: step by step the result equals the loop

        i, j = rng.sample(range(3), 2); s = rng.choice((1, -1))
        row[i] += s * row[j]

    which ``tests/test_linalg.py::test_random_sl3_stream_is_pinned`` pins
    by a digest of 3,000 seeded matrices.  Each step makes that loop's
    three draws itself: ``sample`` draws ``randbelow(3)`` then
    ``randbelow(2)``, and ``choice`` one ``randbelow(2)``.  For n = 2 or 3,
    ``randbelow(n)`` is ``getrandbits(2)`` (n has two bits), the top two
    bits of one 32-bit Mersenne Twister word, redrawn while it is >= n;
    so ``getrandbits(2)`` called directly reads the same words in the
    same order.
    """
    _require_int((seed, word_length), "seed and word_length")
    bits = random.Random(seed).getrandbits
    rows = list(_I3_ROWS)
    for _ in range(word_length):
        first = bits(2)
        while first == 3:
            first = bits(2)
        second = bits(2)
        while second > 1:
            second = bits(2)
        i, j = _SAMPLE_PAIRS[first][second]
        sign = bits(2)
        while sign > 1:
            sign = bits(2)
        a, b = rows[i], rows[j]
        if sign:  # choice((1, -1)) drew index 1
            rows[i] = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
        else:
            rows[i] = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    # A product of elementary matrices has determinant 1.
    return UnimodularMatrix._trusted(IntMatrix._trusted(tuple(rows)), 1)
