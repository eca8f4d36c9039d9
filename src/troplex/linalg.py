"""Exact dense linear algebra helpers.

Two entry types are supported: ring scalars (int / Fraction / residue,
with an explicit Ring) and LaurentPoly.  Determinants and ranks over
Laurent entries use fraction-free Bareiss elimination; the interior
divisions are exact by Sylvester's identity, including under full
pivoting, so no fraction field is ever materialized.
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


def smat_rank(ring, M):
    """Row reduction over a field."""
    if not ring.is_field:
        raise ValueError("rank over a field only; embed Z in Q first")
    A = [[ring.check(x) for x in row] for row in M]
    rows, cols = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(cols):
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
    return r


def smat_inverse_field(ring, M):
    """Gauss-Jordan inverse over a field; None when singular."""
    n = len(M)
    A = [[ring.check(x) for x in row] + [ring.one() if i == j else ring.zero() for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            return None
        A[c], A[piv] = A[piv], A[c]
        inv = ring.inv(A[c][c])
        A[c] = [ring.mul(inv, x) for x in A[c]]
        for i in range(n):
            if i != c and A[i][c] != 0:
                f = A[i][c]
                A[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(A[i], A[c])]
    return [row[n:] for row in A]


def smat_det(ring, M):
    """Exact determinant of a square scalar matrix."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return ring.one()
    if ring.kind == "Z":
        d = smat_det(QQ, [[QQ.check(x) for x in row] for row in M])
        return int(d)
    A = [[ring.check(x) for x in row] for row in M]
    det = ring.one()
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            return ring.zero()
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = ring.neg(det)
        det = ring.mul(det, A[c][c])
        inv = ring.inv(A[c][c])
        for i in range(c + 1, n):
            if A[i][c] != 0:
                f = ring.mul(inv, A[i][c])
                A[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(A[i], A[c])]
    return det


def smat_inverse(ring, M):
    """Inverse within the ring; for Z this demands GL_r(Z) membership."""
    if ring.kind == "Z":
        inv = smat_inverse_field(QQ, M)
        if inv is None:
            return None
        out = []
        for row in inv:
            orow = []
            for x in row:
                if x.denominator != 1:
                    return None
                orow.append(int(x))
            out.append(orow)
        return out
    return smat_inverse_field(ring, M)


# -- Laurent matrices -----------------------------------------------------


def lmat_identity(ring, nvars, n):
    one = LaurentPoly.one(ring, nvars)
    zero = LaurentPoly.zero(ring, nvars)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def lmat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def det_laurent(M):
    """Bareiss determinant of a square LaurentPoly matrix."""
    n = len(M)
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    probe = M[0][0]
    one = LaurentPoly.one(probe.ring, probe.nvars)
    zero = LaurentPoly.zero(probe.ring, probe.nvars)
    if n == 1:
        return M[0][0]
    A = [row[:] for row in M]
    sign = 1
    prev = one
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not A[i][k].is_zero), None)
        if piv is None:
            return zero
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = _exact_div_strict(A[k][k] * A[i][j] - A[i][k] * A[k][j], prev)
            A[i][k] = zero
        prev = A[k][k]
    d = A[n - 1][n - 1]
    return -d if sign < 0 else d


def rank_laurent(M):
    """Generic rank via full-pivot Bareiss elimination (exact)."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0 or cols == 0:
        return 0
    probe = M[0][0]
    one = LaurentPoly.one(probe.ring, probe.nvars)
    zero = LaurentPoly.zero(probe.ring, probe.nvars)
    A = [row[:] for row in M]
    prev = one
    k = 0
    while k < rows and k < cols:
        found = None
        for i in range(k, rows):
            for j in range(k, cols):
                if not A[i][j].is_zero:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i0, j0 = found
        if i0 != k:
            A[k], A[i0] = A[i0], A[k]
        if j0 != k:
            for row in A:
                row[k], row[j0] = row[j0], row[k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                A[i][j] = _exact_div_strict(A[k][k] * A[i][j] - A[i][k] * A[k][j], prev)
            A[i][k] = zero
        prev = A[k][k]
        k += 1
    return k


# -- Smith normal form ----------------------------------------------------


def _bezout_rows(A, U, t, i):
    """Unimodular row op making A[i][t] zero using A[t][t] (extended gcd)."""
    a, b = A[t][t], A[i][t]
    if b == 0:
        return
    if a == 0:
        A[t], A[i] = A[i], A[t]
        if U is not None:
            U[t], U[i] = U[i], U[t]
        return
    g = math.gcd(a, b)
    x, y = _bezout_pair(a, b)
    p, q = -(b // g), a // g
    rt = [x * u + y * v for u, v in zip(A[t], A[i])]
    ri = [p * u + q * v for u, v in zip(A[t], A[i])]
    A[t], A[i] = rt, ri
    if U is not None:
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


def smith_normal_form(M, track_left=True):
    """(diagonal, U) with U unimodular acting on the left; U*M*V = D.

    Column operations are untracked.  Diagonal entries are nonnegative
    and form a divisibility chain d1 | d2 | ...
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [row[:] for row in M]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)] if track_left else None
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
            if U is not None:
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
            if U is not None:
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
                    if U is not None:
                        U[i + 1] = [-x for x in U[i + 1]]
                changed = True
    diag = [A[i][i] for i in range(min(rows, cols))]
    return diag, U
