"""Exact dense linear algebra helpers.

Two entry types are supported, with one elimination loop each.  Ring
scalars (int / Fraction / residue, with an explicit Ring) go through
Gauss-Jordan over a field, with Z embedded in Q, for rank and inverse; it
computes no determinant, since Novikov condition (c) reads only the entries
of sigma(x)^{+-1}, and integral entries force v(det) = 0.  LaurentPoly
entries go through fraction-free Bareiss, whose divisions are exact by Sylvester's
identity; each update forms its two products in one raw pass over the
term dicts, and the first pivot step, whose divisor is 1, divides not at
all.  Lifting scalars to constant LaurentPolys to share one loop
makes a small inverse over Z about 28 times slower.
"""

from __future__ import annotations

import math

from .laurent import LaurentPoly, _add_products, _exact_div_strict, _from_raw
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
    """Reduced row echelon form over a field: (rank, rows).

    Pivots are sought in the first `width` columns (all of them by
    default); row operations act on whole rows, so any further columns
    ride along.  Z is embedded in Q here: a Z matrix gets rational rows.
    """
    if ring.kind == "Z":
        ring = QQ
    A = [[ring.check(x) for x in row] for row in M]
    rows = len(A)
    if width is None:
        width = len(A[0]) if A else 0
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = ring.inv(A[r][c])
        A[r] = [ring.mul(inv, x) for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(A[i], A[r])]
        r += 1
        if r == rows:
            break
    return r, A


def smat_inverse(ring, M):
    """Inverse within the ring, or None; over Z the rational inverse must
    be integral, which for an integer matrix means det = +-1."""
    n = len(M)
    eye = smat_identity(ring, n)
    rank, A = _gauss_jordan(ring, [list(row) + e for row, e in zip(M, eye)], n)
    inv = [row[n:] for row in A]
    if rank < n or ring.kind == "Z" and any(x.denominator != 1 for row in inv for x in row):
        return None
    return [[int(x) for x in row] for row in inv] if ring.kind == "Z" else inv


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

    Each update (A[r][c]*A[i][j] - A[i][c]*A[r][j]) / prev is one pass
    over the term dicts: both products go into one raw sum, which is
    reduced once and then divided.  Before the first pivot prev is the
    constant 1 and the division is skipped.
    """
    rows, cols = len(M), len(M[0]) if M else 0
    if not rows or not cols:
        return 0, None
    A = [row[:] for row in M]
    ring, nvars = A[0][0].ring, A[0][0].nvars
    prev = LaurentPoly.one(ring, nvars)
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
        top = A[r]
        lead = top[c].terms
        for i in range(r + 1, rows):
            row = A[i]
            below = row[c].terms
            for j in range(c + 1, cols):
                num = _from_raw(ring, nvars, _add_products(
                    _add_products({}, lead, row[j].terms), below, top[j].terms, negate=True))
                row[j] = _exact_div_strict(num, prev) if r else num
        prev = top[c]
        r += 1
        if r == rows:
            break
    return r, -prev if sign < 0 else prev


def det_laurent(M):
    """Bareiss determinant of a square LaurentPoly matrix."""
    if not M:
        raise ArithmeticError("internal: determinant of an empty matrix")
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
    g = math.gcd(a, b)
    x, y = _bezout_pair(a, b)
    p, q = -(b // g), a // g
    for row in A:
        ct, cj = row[t], row[j]
        row[t], row[j] = x * ct + y * cj, p * ct + q * cj


def smith_normal_form(M):
    """(diag, U): the invariant factors of M and a unimodular U.

    diag has min(rows, cols) entries, nonnegative, forming a divisibility
    chain d1 | d2 | ... with zeros last.  U acts on the left and its rows
    past the rank are a Z-basis of M's left kernel.  Column operations
    are untracked, and the rows of U below the rank carry no meaning.
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
        # each step keeps A[t][t] or replaces it by a gcd: it stays nonzero
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
    # the nonzero pivots give the invariant factors by (gcd, lcm) folds:
    # per prime this is a selection sort of the exponents
    diag = [abs(A[i][i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (min(rows, cols) - t), U
