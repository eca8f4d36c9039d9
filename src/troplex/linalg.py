"""Exact dense linear algebra helpers.

Two entry types are supported, with one elimination loop each.  Ring
scalars (int / Fraction / residue, with an explicit Ring) go through
Gauss-Jordan over a field, with Z embedded in Q.  LaurentPoly entries go
through fraction-free Bareiss, whose divisions are exact by Sylvester's
identity.  Lifting scalars to constant LaurentPolys to share one loop
makes a small inverse over Z about 28 times slower.
"""

from __future__ import annotations

import math

from .laurent import LaurentPoly, _exact_div_strict
from .rings import QQ


# -- scalar matrices ------------------------------------------------------


def smat_identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smat_mul(ring, A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero()
            for t in range(k):
                acc = ring.add(acc, ring.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _gauss_jordan(ring, M, width=None):
    """Reduced row echelon form over a field: (rank, det, rows).

    Pivots are sought in the first `width` columns (all of them by
    default); row operations act on whole rows, so any further columns
    ride along.  det is the determinant of the leading square block of
    those columns, 0 as soon as one of them has no pivot.  Z is embedded
    in Q here: a Z matrix gets an integer det and rational rows.
    """
    lift = ring.kind == "Z"
    if lift:
        ring = QQ
    A = [[ring.check(x) for x in row] for row in M]
    rows = len(A)
    if width is None:
        width = len(A[0]) if A else 0
    r, det = 0, ring.one()
    for c in range(width):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            det = ring.zero()
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            det = ring.neg(det)
        det = ring.mul(det, A[r][c])
        inv = ring.inv(A[r][c])
        A[r] = [ring.mul(inv, x) for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(A[i], A[r])]
        r += 1
        if r == rows:
            break
    return r, int(det) if lift else det, A


def smat_det(ring, M):
    """Exact determinant of a square scalar matrix."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("determinant needs a square matrix")
    return _gauss_jordan(ring, M)[1]


def smat_inverse(ring, M):
    """Inverse within the ring, or None; over Z it needs det = +-1."""
    n = len(M)
    eye = smat_identity(ring, n)
    rank, det, A = _gauss_jordan(ring, [list(row) + e for row, e in zip(M, eye)], n)
    if rank < n or ring.kind == "Z" and det not in (1, -1):
        return None
    if ring.kind == "Z":
        return [[int(x) for x in row[n:]] for row in A]
    return [row[n:] for row in A]


# -- Laurent matrices -----------------------------------------------------


def _bareiss(M, det=False):
    """Fraction-free row echelon form of a LaurentPoly matrix.

    Returns (rank, last pivot), the pivot signed by the row swaps, so
    for a nonsingular square matrix it is the determinant.  The loop goes
    column by column with row pivoting and skips a column with no pivot;
    det=True stops there instead, since the determinant is then zero.
    After k pivots each entry below them is the (k+1)-minor on the pivot
    rows and columns plus its own row and column: skipped columns take no
    part in any update, so Sylvester's identity still makes every
    division by the previous pivot exact.
    """
    rows, cols = len(M), len(M[0]) if M else 0
    if not rows or not cols:
        return 0, None
    A = [row[:] for row in M]
    prev = LaurentPoly.one(A[0][0].ring, A[0][0].nvars)
    r, sign = 0, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not A[i][c].is_zero), None)
        if piv is None:
            if det:
                break
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                A[i][j] = _exact_div_strict(A[r][c] * A[i][j] - A[i][c] * A[r][j], prev)
        prev = A[r][c]
        r += 1
        if r == rows:
            break
    return r, -prev if sign < 0 else prev


def det_laurent(M):
    """Bareiss determinant of a square LaurentPoly matrix."""
    if not M:
        raise ValueError("determinant of an empty matrix")
    rank, pivot = _bareiss(M, det=True)
    if rank < len(M):
        return LaurentPoly.zero(pivot.ring, pivot.nvars)
    return pivot


def rank_laurent(M):
    """Generic rank via Bareiss elimination (exact)."""
    return _bareiss(M)[0]


# -- Smith normal form ----------------------------------------------------


def _bezout_rows(A, U, t, i):
    """Unimodular row op making A[i][t] zero using A[t][t] (extended gcd)."""
    a, b = A[t][t], A[i][t]
    if b == 0:
        return
    if a == 0:
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        return
    g = math.gcd(a, b)
    x, y = _bezout_pair(a, b)
    p, q = -(b // g), a // g
    rt = [x * u + y * v for u, v in zip(A[t], A[i])]
    ri = [p * u + q * v for u, v in zip(A[t], A[i])]
    A[t], A[i] = rt, ri
    ut = [x * u + y * v for u, v in zip(U[t], U[i])]
    ui = [p * u + q * v for u, v in zip(U[t], U[i])]
    U[t], U[i] = ut, ui


def _bezout_pair(a, b):
    """(x, y) for the unimodular step [[x, y], [-b/g, a/g]], g = gcd(a, b).

    When a divides b the pair is (1, 0): the step only clears b.  The
    extended-gcd pair there can be (0, +-1) (for |a| = |b|), which swaps
    the two entries instead, and the row and column passes of the Smith
    form then undo each other forever.
    """
    if b % a == 0:
        return 1, 0
    return _xgcd(a, b)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -x0, -y0
    return x0, y0


def _bezout_cols(A, t, j):
    a, b = A[t][t], A[t][j]
    if b == 0:
        return
    if a == 0:
        for row in A:
            row[t], row[j] = row[j], row[t]
        return
    g = math.gcd(a, b)
    x, y = _bezout_pair(a, b)
    p, q = -(b // g), a // g
    for row in A:
        ct, cj = row[t], row[j]
        row[t], row[j] = x * ct + y * cj, p * ct + q * cj


def smith_normal_form(M):
    """(diagonal, U) with U unimodular acting on the left; U*M*V = D.

    Column operations are untracked.  Diagonal entries are nonnegative
    and form a divisibility chain d1 | d2 | ...
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [row[:] for row in M]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    t = 0
    while t < rows and t < cols:
        found = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i0, j0 = found
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for row in A:
                row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, rows):
                _bezout_rows(A, U, t, i)
            for j in range(t + 1, cols):
                _bezout_cols(A, t, j)
            if all(A[i][t] == 0 for i in range(t + 1, rows)) and all(
                A[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        t += 1
    # sign normalization and the divisibility chain
    rank_bound = t
    for i in range(rank_bound):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    changed = True
    while changed:
        changed = False
        for i in range(rank_bound - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a and b and b % a:
                # fold (a, b) into (gcd, lcm): col_i += col_{i+1}, then a
                # Bezout row op, then a shear to clean the fill-in
                for row in A:
                    row[i] += row[i + 1]
                _bezout_rows(A, U, i, i + 1)
                g = A[i][i]
                q = A[i][i + 1] // g
                for row in A:
                    row[i + 1] -= q * row[i]
                if A[i + 1][i + 1] < 0:
                    A[i + 1] = [-x for x in A[i + 1]]
                    U[i + 1] = [-x for x in U[i + 1]]
                changed = True
    diag = [A[i][i] for i in range(min(rows, cols))]
    return diag, U
