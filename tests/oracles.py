"""Independent brute-force oracles shared by the test modules.

Everything here works on plain lists of lists and avoids the library's
own elimination code paths, so the tests cross two genuinely different
routes to the same values.
"""

import math
import random
from itertools import combinations, permutations


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
