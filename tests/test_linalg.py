import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    leibniz_det, lmat_identity, lmat_mul, normal_type, smat_mul_by_terms, smat_rank,
)
from troplex import linalg
from troplex.laurent import LaurentPoly, render
from troplex.linalg import (
    smat_identity, smat_mul, smat_inverse, det_laurent, maximal_minors, rank_laurent,
    smith_normal_form,
)
from troplex.rings import ZZ, QQ, GF


def invariant_factors_oracle(M):
    """d_k = D_k / D_{k-1} with D_k the gcd of all k x k minors.

    Zero-padded to min(rows, cols), matching the library convention.
    """
    rows, cols = len(M), len(M[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[M[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(leibniz_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    out += [0] * (min(rows, cols) - len(out))
    return out


def check_smith_transform(M, diag, U):
    """U is unimodular and its rows past the rank span M's left kernel
    (they are independent since U is invertible)."""
    assert abs(leibniz_det(U)) == 1
    rank = sum(1 for d in diag if d != 0)
    cols = len(M[0])
    for row in U[rank:]:
        assert [sum(u * M[i][j] for i, u in enumerate(row)) for j in range(cols)] == [0] * cols


def test_smat_basics():
    A = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert smat_mul(QQ, A, smat_identity(QQ, 2)) == A
    assert smat_rank(QQ, A) == 2
    assert smat_rank(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1


def test_smat_inverse_round_trip():
    rng = random.Random(3)
    for ring, modulus in ((QQ, 0), (GF(7), 7)):
        for _ in range(20):
            n = rng.randint(1, 4)
            raw = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            A = [[ring.check(x) for x in row] for row in raw]
            inv = smat_inverse(ring, A)
            det = leibniz_det(raw)
            if (det % modulus if modulus else det) == 0:
                assert inv is None
                continue
            assert inv is not None
            assert smat_mul(ring, A, inv) == smat_identity(ring, n)
            assert smat_mul(ring, inv, A) == smat_identity(ring, n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((ZZ, QQ, GF(2), GF(3), GF(7))), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_smat_mul_matches_the_termwise_oracle(ring, n, k, m, data):
    # one sum of products per entry, reduced once, against one ring.add and
    # one ring.mul per term; over Q with Fraction entries, on any shape
    value = (st.fractions(min_value=-3, max_value=3, max_denominator=4) if ring.kind == "Q"
             else st.integers(-9, 9))
    A, B = ([[ring.check(data.draw(value)) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in ((n, k), (k, m)))
    product = smat_mul(ring, A, B)
    assert product == smat_mul_by_terms(ring, A, B)
    assert all(type(x) is normal_type(ring, x) for row in product for x in row)
    if ring.p:
        assert all(0 <= x < ring.p for row in product for x in row)


def test_smat_inverse_over_z_needs_unit_det():
    assert smat_inverse(ZZ, [[2, 0], [0, 1]]) is None
    inv = smat_inverse(ZZ, [[1, 1], [0, 1]])
    assert inv == [[1, -1], [0, 1]]


def test_det_matches_permutation_expansion():
    # the one determinant routine, on constant integer matrices
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        lifted = [[LaurentPoly.constant(ZZ, 1, x) for x in row] for row in A]
        assert det_laurent(lifted) == LaurentPoly.constant(ZZ, 1, leibniz_det(A))


def test_laurent_matrix_ops():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    one = LaurentPoly.one(ZZ, 2)
    zero = LaurentPoly.zero(ZZ, 2)
    A = [[t1, one], [zero, t2]]
    eye = lmat_identity(ZZ, 2, 2)
    assert lmat_mul(A, eye) == A
    assert det_laurent(A) == t1 * t2
    B = [[t1 - one, t2 - one]]
    assert rank_laurent(B) == 1
    assert rank_laurent([[zero, zero]]) == 0
    assert rank_laurent(A) == 2
    # det via cofactors agrees with the hand expansion ad - bc
    C = [[t1, t2], [one, t1 + t2]]
    assert det_laurent(C) == t1 * (t1 + t2) - t2 * one
    # every caller passes a nonempty matrix: an internal error, not bad input
    with pytest.raises(ArithmeticError, match="determinant of an empty matrix"):
        det_laurent([])


def test_smith_normal_form_fixed():
    diag, U = smith_normal_form([[2, 4], [6, 8]])
    assert diag == [2, 4]
    check_smith_transform([[2, 4], [6, 8]], diag, U)
    # a left kernel: the second row is twice the first
    M = [[1, 2], [2, 4], [3, 5]]
    diag, U = smith_normal_form(M)
    assert diag == [1, 1]
    check_smith_transform(M, diag, U)
    diag, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]
    diag, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]
    # torsion example: Z^2 / (2e1, 3e1 + 3e2)
    diag, _ = smith_normal_form([[2, 0], [3, 3]])
    assert diag == [1, 6]


def test_smith_normal_form_matches_minor_gcd_oracle():
    rng = random.Random(41)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        diag, U = smith_normal_form(M)
        assert diag == invariant_factors_oracle(M)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        check_smith_transform(M, diag, U)


def test_smith_normal_form_when_the_pivot_divides(deadline):
    # a pivot dividing the entry it clears, with |a| = |b| along the way:
    # the row and column steps used to undo each other forever
    with deadline(10):
        assert smith_normal_form([[1, 1], [0, 1]])[0] == [1, 1]
        assert smith_normal_form([[1, -1, 0], [0, 1, -1]])[0] == [1, 1]
        assert smith_normal_form([[-2, 2], [0, 2]])[0] == [2, 2]


def test_smith_normal_form_matches_determinantal_divisors(deadline):
    # small entries make a pivot divide the entry it clears most of the time
    rng = random.Random(43)
    with deadline(60):
        for _ in range(1500):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            diag, U = smith_normal_form(M)
            assert diag == invariant_factors_oracle(M), M
            check_smith_transform(M, diag, U)


# -- the two elimination loops against independent oracles ----------------

LAURENT_RINGS = (ZZ, QQ, GF(2), GF(3))


def leibniz(M):
    """Determinant of a square LaurentPoly matrix as the signed sum over
    permutations; shares no code with the library's elimination."""
    probe = M[0][0]
    total = LaurentPoly.zero(probe.ring, probe.nvars)
    for perm in itertools.permutations(range(len(M))):
        term = LaurentPoly.one(probe.ring, probe.nvars)
        for i, j in enumerate(perm):
            term = term * M[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def minor_rank(M):
    """The largest k with a nonzero k-minor, each minor by Leibniz."""
    rows, cols = len(M), len(M[0])
    for k in range(min(rows, cols), 0, -1):
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                if not leibniz([[M[i][j] for j in csel] for i in rsel]).is_zero:
                    return k
    return 0


def laurent_matrix(ring, nvars, rows, cols, entries, deficiency):
    """entries: rows*cols term lists of (exponents, coefficient).

    deficiency "column" zeroes the last column; "rows" overwrites row 2
    with the sum of rows 0 and 1 (when there are three rows).
    """
    M = []
    for i in range(rows):
        row = []
        for j in range(cols):
            f = LaurentPoly.zero(ring, nvars)
            for exps, c in entries[i * cols + j]:
                f = f + LaurentPoly.monomial(ring, nvars, exps[:nvars], ring.from_int(c))
            row.append(f)
        M.append(row)
    if deficiency == "column":
        for row in M:
            row[-1] = LaurentPoly.zero(ring, nvars)
    elif deficiency == "rows" and rows >= 3:
        M[2] = [a + b for a, b in zip(M[0], M[1])]
    return M


def check_laurent_elimination(M):
    assert rank_laurent(M) == minor_rank(M)
    n = min(len(M), len(M[0]))
    square = [row[:n] for row in M[:n]]
    det = det_laurent(square)
    assert det == leibniz(square)
    # in the public constructor's normal form: over Q an int when integral
    assert det == LaurentPoly(det.ring, det.nvars, det.terms)
    assert all(type(c) is normal_type(det.ring, c) for c in det.terms.values())


def test_laurent_elimination_matches_leibniz_seeded():
    rng = random.Random(29)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        entries = [
            [((rng.randint(-1, 2), rng.randint(-1, 2)), rng.randint(-2, 2))
             for _ in range(rng.randint(0, 2))]
            for _ in range(rows * cols)
        ]
        M = laurent_matrix(rng.choice(LAURENT_RINGS), rng.randint(0, 2), rows, cols,
                           entries, rng.choice((None, "column", "rows")))
        check_laurent_elimination(M)


def test_det_stops_at_the_first_column_without_pivot(monkeypatch):
    # over a third of the minors the benchmark's Delta jobs take are zero; the
    # determinant must not eliminate past a column with no pivot
    divisions = []
    real = linalg._exact_div_strict
    monkeypatch.setattr(linalg, "_exact_div_strict",
                        lambda f, g: divisions.append(g) or real(f, g))
    t = LaurentPoly.var(ZZ, 1, 0)
    zero = LaurentPoly.zero(ZZ, 1)
    one = LaurentPoly.one(ZZ, 1)
    # 4x4: past the zero column, the first pivot step divides by the
    # constant 1 and is skipped, so only the second step's divisions by the
    # pivot t show whether elimination went on
    M = [[zero, t, t, one], [zero, t, t + 1, one], [zero, t * t, t, one],
         [zero, one, one, t]]
    assert det_laurent(M) == zero and not divisions
    # nor the per-slice Bareiss that the expansion hands over to
    assert linalg._bareiss(M, det=True)[0] == 0 and not divisions
    assert rank_laurent(M) == 3 and divisions == [t, t]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LAURENT_RINGS), st.integers(0, 2), st.integers(1, 4), st.integers(0, 3),
       st.lists(st.lists(st.tuples(st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
                                   st.integers(-2, 2)), max_size=2),
                min_size=28, max_size=28),
       st.sets(st.integers(0, 6), max_size=2), st.sets(st.integers(0, 3), max_size=1))
def test_maximal_minors_match_leibniz_and_bareiss(ring, nvars, k, extra, entries, zero_rows,
                                                 zero_cols):
    # every nonzero k-minor of an m x k matrix, m = k .. k + 3, in
    # combinations order, against a Leibniz expansion and a Bareiss
    # elimination of each row slice; with zero rows and zero columns
    m = k + extra
    M = laurent_matrix(ring, nvars, m, k, entries, None)
    zero = LaurentPoly.zero(ring, nvars)
    for i in zero_rows & set(range(m)):
        M[i] = [zero] * k
    for j in zero_cols & set(range(k)):
        for row in M:
            row[j] = zero
    slices = [[M[i] for i in rsel] for rsel in itertools.combinations(range(m), k)]
    expected = [d for rows in slices if not (d := leibniz(rows)).is_zero]
    assert maximal_minors(M) == expected
    eliminated = [linalg._bareiss(rows, det=True) for rows in slices]
    assert [pivot for rank, pivot in eliminated if rank == k] == expected
    assert maximal_minors(M[:k - 1]) == []


def test_a_dense_expansion_hands_over_to_bareiss(monkeypatch):
    # a dense 8 x 8 expansion takes 8 * (2^7 - 1) = 1016 products, past
    # C(8, 8) * 8^3 = 512, the order of Bareiss's own work: it hands over
    real, eliminated = linalg._bareiss, []
    monkeypatch.setattr(linalg, "_bareiss",
                        lambda M, det=False: eliminated.append(len(M)) or real(M, det))
    rng = random.Random(47)
    raw = [[rng.choice((-2, -1, 1, 2, 3)) for _ in range(8)] for _ in range(8)]
    dense = [[LaurentPoly.constant(ZZ, 1, x) for x in row] for row in raw]
    assert det_laurent(dense) == LaurentPoly.constant(ZZ, 1, leibniz_det(raw))
    assert eliminated == [8]
    # an 8 x 8 with two entries a column stays in the expansion:
    # det(I + t * shift) = 1
    t, one, zero = (LaurentPoly.var(ZZ, 1, 0), LaurentPoly.one(ZZ, 1),
                    LaurentPoly.zero(ZZ, 1))
    banded = [[one if j == i else t if j == i + 1 else zero for j in range(8)]
              for i in range(8)]
    assert det_laurent(banded) == one and eliminated == [8]


def test_the_live_term_bound_leaves_out_the_minors_returned(monkeypatch):
    # the last column's k-minors are the result, held as the per-row-set
    # Bareiss would hold them; only the partial minors before it count
    # toward MAX_LIVE_TERMS, so a bound below the result's size keeps the
    # expansion, and a bound below the partial minors' hands over
    real, eliminated = linalg._bareiss, []
    monkeypatch.setattr(linalg, "_bareiss",
                        lambda M, det=False: eliminated.append(len(M)) or real(M, det))
    rng = random.Random(53)
    t = LaurentPoly.var(ZZ, 1, 0)
    M = [[t ** rng.randint(0, 3) + rng.randint(-2, 2) for _ in range(3)] for _ in range(10)]
    expected = [d for rows in itertools.combinations(M, 3) if not (d := leibniz(rows)).is_zero]
    size = sum(len(d.terms) for d in expected)
    monkeypatch.setattr(linalg, "MAX_LIVE_TERMS", size // 2)
    assert maximal_minors(M) == expected and eliminated == []
    monkeypatch.setattr(linalg, "MAX_LIVE_TERMS", 20)
    assert maximal_minors(M) == expected and eliminated == [3] * 120


laurent_terms = st.lists(
    st.tuples(st.tuples(st.integers(-1, 2), st.integers(-1, 2)), st.integers(-2, 2)),
    max_size=2,
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LAURENT_RINGS), st.integers(0, 2), st.integers(1, 4),
       st.integers(1, 5), st.lists(laurent_terms, min_size=20, max_size=20),
       st.sampled_from((None, "column", "rows")))
def test_laurent_elimination_matches_leibniz_property(ring, nvars, rows, cols, entries,
                                                      deficiency):
    check_laurent_elimination(laurent_matrix(ring, nvars, rows, cols, entries, deficiency))


def check_scalar_elimination(sympy, M):
    n = len(M)
    assert smat_rank(QQ, M) == sympy.Matrix(M).rank()
    if len(M[0]) < n:
        return
    square = [row[:n] for row in M]
    inv = smat_inverse(QQ, square)
    assert (inv is None) == (sympy.Matrix(square).det() == 0)
    if inv is not None:
        expected = sympy.Matrix(square).inv()
        assert inv == [[Fraction(str(expected[i, j])) for j in range(n)] for i in range(n)]
    if all(x.denominator == 1 for row in square for x in row):
        Z = [[int(x) for x in row] for row in square]
        inv = smat_inverse(ZZ, Z)
        assert (inv is None) == (leibniz_det(Z) not in (1, -1))
        if inv is not None:
            assert smat_mul(ZZ, Z, inv) == smat_identity(ZZ, n)


def test_scalar_elimination_matches_sympy_seeded():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        den = rng.choice((1, 1, 2, 3))
        M = [[Fraction(rng.randint(-2, 2), den) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.3:
            M[2] = [a + b for a, b in zip(M[0], M[1])]
        check_scalar_elimination(sympy, M)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                min_size=20, max_size=20))
def test_scalar_elimination_matches_sympy_property(rows, cols, values):
    sympy = pytest.importorskip("sympy")
    M = [values[i * cols:(i + 1) * cols] for i in range(rows)]
    check_scalar_elimination(sympy, M)
