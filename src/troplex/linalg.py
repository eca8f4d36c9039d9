"""Exact dense linear algebra helpers.

Two entry types are supported.  Ring scalars (int / Fraction / residue,
with an explicit Ring) go through Gauss-Jordan over a field, with Z
embedded in Q (whose integral values are the same ints), for rank and
inverse; it computes no determinant, since Novikov condition (c) reads
only the entries of sigma(x)^{+-1}, and integral entries force
v(det) = 0.  A product of scalar matrices forms each entry as one sum of
products, reduced once.

LaurentPoly determinants come from one Laplace expansion over the
columns (Gentleman-Johnson, ACM TOMS 2, 1976): `maximal_minors` takes
every maximal minor of an m x k matrix at once, each partial minor
shared by every row set that contains its rows, with no division at all,
and `det_laurent` is its square case.  Each new partial minor is one raw
sum of products over the term dicts, reduced once.  The expansion hands
over to a fraction-free Bareiss elimination per row set when its product
count passes that elimination's own order of work or its partial minors
outgrow a fixed number of terms, so it bounds both time and memory.
Bareiss, whose divisions are exact by Sylvester's identity, also gives
the rank; each of its updates forms its two products in one raw pass, and
the first pivot step, whose divisor is 1, divides not at all.  Lifting
scalars to constant LaurentPolys to share one loop makes a small inverse
over Z about 28 times slower.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

from .laurent import LaurentPoly, _add_products, _exact_div_strict, _from_raw
from .rings import QQ, rational


# -- scalar matrices ------------------------------------------------------


def smat_identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smat_mul(ring, A, B):
    """A * B, each entry one sum of products in raw arithmetic, reduced
    once: mod p over F_p, to Q's normal form over Q, as computed over Z.
    Plain loops: nested comprehensions made a 1 x 1 product, one per
    relator letter at rank 1, twice as slow."""
    p, q, cols = ring.p, ring.kind == "Q", list(zip(*B))
    out = []
    for row in A:
        new = []
        for col in cols:
            x = sum(map(mul, row, col))
            new.append(x % p if p else rational(x) if q else x)
        out.append(new)
    return out


def _gauss_jordan(ring, M, width=None):
    """Reduced row echelon form over a field: (rank, rows).

    Pivots are sought in the first `width` columns (all of them by
    default); row operations act on whole rows, so any further columns
    ride along.  Z is embedded in Q here: a Z matrix gets rows in Q's
    normal form, ints wherever the entry is integral.
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
    return inv


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


# The expansion hands over to per-slice Bareiss once its partial minors hold
# more terms than this; the tracemalloc peak at that point was 12.5 MB on
# a 66 x 21 matrix, with C(66, 21) ~ 10^17 row sets.
MAX_LIVE_TERMS = 100_000


def maximal_minors(M):
    """The nonzero k-minors det M[R, :] of an m x k LaurentPoly matrix,
    k >= 1, R in itertools.combinations order; none when m < k.

    They come from one Laplace expansion over the columns, or, when that
    passes either of its bounds, from one Bareiss elimination per row set.
    """
    m, k = len(M), len(M[0]) if M else 1
    if m < k:
        return []
    dets = _expand(M)
    return _slice_dets(M) if dets is None else dets


def _expand(M):
    """maximal_minors(M) by one Laplace expansion, column by column, or
    None once it passes a bound.

    Before column c >= 1 it holds det M[S, :c] for every c-row set S on
    which that is nonzero, keyed by a bit mask of S, and column c adds
    each row i outside S with the sign (-1)^(rows of S below i).  Row i
    has bit m-1-i, so the rows below i are the lower bits, and
    combinations order is descending mask order.  The last column forms
    each k-row set's sum on its own and keeps it only when it is nonzero,
    so its minors are held as the per-row-set Bareiss would hold them,
    and it takes at most k products per row set.  The expansion stops
    when the other columns' products pass C(m, k) * k^3, the order of
    that Bareiss work, or their partial minors hold more than
    MAX_LIVE_TERMS terms; returning first frees them.
    """
    m, k = len(M), len(M[0])
    if k == 1:
        return [row[0] for row in M if row[0]]
    ring, nvars = M[0][0].ring, M[0][0].nvars
    budget = math.comb(m, k) * k ** 3
    columns = [[(1 << (m - 1 - i), row[c].terms) for i, row in enumerate(M) if row[c]]
               for c in range(1, k)]
    live, products = {1 << (m - 1 - i): row[0] for i, row in enumerate(M) if row[0]}, 0
    for column in columns[:-1]:
        sums, held = {}, sum(len(f.terms) for f in live.values())
        for rows, f in live.items():
            for bit, entry in column:
                if rows & bit:
                    continue
                acc = sums.setdefault(rows | bit, {})
                size = len(acc)
                _add_products(acc, entry, f.terms, negate=(rows & (bit - 1)).bit_count() & 1)
                held += len(acc) - size
                products += 1
                if products > budget or held > MAX_LIVE_TERMS:
                    return None
        live = {rows: f for rows, acc in sums.items() if (f := _from_raw(ring, nvars, acc))}
    last, out = columns[-1], []
    for rows in sorted({rows | bit for rows in live for bit, _ in last if not rows & bit},
                       reverse=True):
        acc = {}
        for bit, entry in last:
            if rows & bit and (f := live.get(rows ^ bit)):
                _add_products(acc, entry, f.terms, negate=(rows & (bit - 1)).bit_count() & 1)
        if f := _from_raw(ring, nvars, acc):
            out.append(f)
    return out


def _slice_dets(M):
    """maximal_minors(M) by one Bareiss elimination per row set."""
    k, out = len(M[0]), []
    for rows in combinations(M, k):
        rank, pivot = _bareiss(rows, det=True)
        if rank == k:
            out.append(pivot)
    return out


def det_laurent(M):
    """Determinant of a square LaurentPoly matrix: the square case of
    maximal_minors."""
    if not M:
        raise ArithmeticError("internal: determinant of an empty matrix")
    dets = maximal_minors(M)
    return dets[0] if dets else LaurentPoly.zero(M[0][0].ring, M[0][0].nvars)


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
