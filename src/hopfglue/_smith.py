"""The Smith normal form elimination behind ``linalg.smith_normal_form``.

Only ``selftest`` and library callers reach it: no other CLI command
computes a Smith form.  ``linalg.smith_normal_form`` imports this module
on its first call, so a process that never calls it never compiles it.
"""

from __future__ import annotations

from .linalg import IntMatrix, SnfResult, UnimodularMatrix, extended_gcd

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


def diagonalize(a: IntMatrix) -> SnfResult:
    """The Smith form of ``a``; see ``linalg.smith_normal_form``."""
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
