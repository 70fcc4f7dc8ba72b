"""Independent brute-force oracles shared by the test modules.

Most of these work on plain lists of lists and avoid the library's own
elimination code paths, so the tests cross two genuinely different routes
to the same values.  The reduction and document-parse oracles at the end
keep the library's earlier implementations, which the runtime replaced by
cheaper routes to the same results.
"""

import math
import random
from itertools import combinations, permutations

from hopfglue.cli import DocumentError
from hopfglue.gluing import (
    GluingMatrix,
    NormalForm,
    NotHomologyHopfError,
    OrientationError,
    ReductionCertificate,
)
from hopfglue.linalg import IntMatrix, sl2_carry_to_e1
from hopfglue.sweep import SweepSummary

#: The gluing zeta of the two halves of S^1 x S^3, written out: alpha and
#: beta are fixed and the meridian gamma goes to alpha * gamma^-1.
ZETA = GluingMatrix(IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, -1]]))


def naive_product(a, b):
    """Triple-loop matrix product on lists of lists."""
    assert len(a[0]) == len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += _parity(perm) * term
    return total


def _parity(perm):
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def minors_gcd(rows, k):
    """Gcd of all k x k minor determinants, 0 if they all vanish."""
    m, n = len(rows), len(rows[0])
    g = 0
    for ri in combinations(range(m), k):
        for ci in combinations(range(n), k):
            g = math.gcd(g, leibniz_det([[rows[i][j] for j in ci] for i in ri]))
    return g


def matrix_from_index(index, shape, lo, hi):
    """The index-th matrix of the given shape with entries in [lo, hi].

    Entries are the base-(hi-lo+1) digits of the index, so iterating the
    index walks the whole exhaustive family deterministically.
    """
    m, n = shape
    base = hi - lo + 1
    entries = []
    for _ in range(m * n):
        index, digit = divmod(index, base)
        entries.append(lo + digit)
    return [entries[i * n : (i + 1) * n] for i in range(m)]


def reference_random_sl3(seed, word_length):
    """The rows of random_sl3(seed, word_length), by its original rng loop.

    Each step draws an ordered pair of distinct rows with ``rng.sample``
    and a sign with ``rng.choice``, then adds the signed second row to the
    first.
    """
    rng = random.Random(seed)
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(word_length):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((1, -1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    return m


def record_json(r):
    """A sweep record as the dict its JSON document holds.

    ``json.dumps(record_json(r), indent=2, sort_keys=True)`` is the oracle
    for the CLI's directly formatted record text.
    """
    obj = {
        "mu": r.mu,
        "homology_hopf": r.homology_hopf,
        "rank": r.group.rank,
        "invariant_factors": list(r.group.invariant_factors),
    }
    if r.params is not None:
        obj.update(zip(("a", "b", "p", "c", "d", "q"), r.params))
    else:
        obj["matrix"] = r.matrix.to_lists()
    return obj


def certificate_error(input_rows, left, right, output):
    """Why a reduction certificate given as nested lists fails, or None.

    Every factor must have third column (0, 0, 1) and determinant +1 by
    ``leibniz_det``, and ``naive_product`` must give
    left[0] @ ... @ left[-1] @ input @ right[0] @ ... @ right[-1] == output.
    """
    for side, factors in (("left", left), ("right", right)):
        for i, f in enumerate(factors):
            column = [row[2] for row in f]
            if column != [0, 0, 1]:
                return f"{side} factor {i} has third column {column}"
            if leibniz_det(f) != 1:
                return f"{side} factor {i} has determinant {leibniz_det(f)}"
    product = input_rows
    for f in reversed(left):
        product = naive_product(f, product)
    for f in right:
        product = naive_product(product, f)
    if product != output:
        return f"product {product} != output {output}"
    return None


def class_of_column(g, h, k):
    """The class (mu, k0) of a det +1 gluing with third column (g, h, k).

    mu = gcd(g, h) and k0 is the residue of k in [1, mu], found by search;
    for mu = 0 the determinant forces k = +-1 and k0 = k.
    """
    mu = math.gcd(g, h)
    if mu == 0:
        return 0, k
    return mu, next(j for j in range(1, mu + 1) if (k - j) % mu == 0)


def class_form(mu, k0):
    """C(mu, k0) = [[x0, 0, mu], [0, 1, 0], [y0, 0, k0]] as nested lists.

    x0 is the inverse of k0 mod mu in [1, mu], found by search, and
    x0 k0 - y0 mu = 1; for mu = 0 it is diag(k0, 1, k0).
    """
    if mu == 0:
        return [[k0, 0, 0], [0, 1, 0], [0, 0, k0]]
    x0 = next(x for x in range(1, mu + 1) if (x * k0 - 1) % mu == 0)
    return [[x0, 0, mu], [0, 1, 0], [(x0 * k0 - 1) // mu, 0, k0]]


def _product_reduce(m):
    """The reduction moves applied as 3x3 products: (left, right, output).

    Each move is built as a matrix and multiplied in with ``@``; identity
    moves are left out.  ``left`` is outermost first.
    """
    if m.det != 1:
        raise OrientationError(
            "determinant is -1; apply normalize_to_sl3 before reducing"
        )
    if math.gcd(m.g, m.h) != 1:
        raise NotHomologyHopfError(
            f"gcd(g, h) = gcd({m.g}, {m.h}) = {math.gcd(m.g, m.h)} != 1: "
            "not a homology Hopf gluing"
        )
    identity = IntMatrix.identity(3)
    current = m.matrix
    left = []  # innermost first while building
    (x, y), (u, v) = sl2_carry_to_e1(m.g, m.h).m.to_lists()
    carry = IntMatrix([[x, y, 0], [u, v, 0], [0, 0, 1]])
    if carry != identity:
        current = carry @ current
        left.append(carry)
    k = current[2, 2]
    if k != 1:
        shear = IntMatrix([[1, 0, 0], [0, 1, 0], [1 - k, 0, 1]])
        current = shear @ current
        left.append(shear)
    right = []
    e, f = current[2, 0], current[2, 1]
    if e != 0 or f != 0:
        shear = IntMatrix([[1, 0, 0], [0, 1, 0], [-e, -f, 1]])
        current = current @ shear
        right.append(shear)
    return left[::-1], right, current


def product_reduce_to_normal_form(m):
    """reduce_to_normal_form(m) by products: (NormalForm, certificate)."""
    left, right, output = _product_reduce(m)
    (a, c, _), (b, d, _) = output.to_lists()[:2]
    cert = ReductionCertificate(m.matrix, left, right, output)
    return NormalForm(IntMatrix([[a, c], [b, d]])), cert


def product_reduce_to_standard(m):
    """reduce_to_standard(m) by products, ending with ``output @ undo``."""
    left, right, output = _product_reduce(m)
    (a, c, _), (b, d, _) = output.to_lists()[:2]
    undo = IntMatrix([[d, -c, 0], [-b, a, 0], [0, 0, 1]])
    if undo != IntMatrix.identity(3):
        output = output @ undo
        right.append(undo)
    return ReductionCertificate(m.matrix, left, right, output)


def lists_to_matrix(obj, what="matrix"):
    """A certificate-document matrix as the CLI's first parser read it.

    ``obj`` must be a list of three lists of three ints (bools are not
    ints here); anything else raises DocumentError naming ``what``.
    """
    if (
        not isinstance(obj, list)
        or len(obj) != 3
        or any(not isinstance(row, list) or len(row) != 3 for row in obj)
        or any(not isinstance(x, int) or isinstance(x, bool) for row in obj for x in row)
    ):
        raise DocumentError(f"{what} must be a 3x3 array of integers")
    return IntMatrix._trusted(tuple(map(tuple, obj)))


def loop_summarize(records):
    """``sweep.summarize`` as a bytecode loop that reads each record's flag.

    It counts homology-Hopf cells by ``r.homology_hopf``, not by ``mu == 1``,
    so it also checks the rule the library's one-pass summary relies on.
    """
    counts = {}
    hopf = 0
    total = 0
    for r in records:
        counts[r.mu] = counts.get(r.mu, 0) + 1
        if r.homology_hopf:
            hopf += 1
        total += 1
    return SweepSummary(
        total=total,
        homology_hopf_count=hopf,
        mu_counts=tuple(sorted(counts.items())),
    )
