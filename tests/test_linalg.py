import itertools
import math
import random
from fractions import Fraction

import pytest

from troplex.laurent import LaurentPoly, render
from troplex.linalg import (
    smat_identity, smat_mul, smat_rank, smat_det, smat_inverse,
    lmat_identity, lmat_mul, det_laurent, rank_laurent,
    smith_normal_form,
)
from troplex.rings import ZZ, QQ, GF


def int_det(M):
    """Expansion by permutations; independent of the library routines."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= M[i][perm[i]]
        total += sign * prod
    return total


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
                g = math.gcd(g, abs(int_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    out += [0] * (min(rows, cols) - len(out))
    return out


def test_smat_basics():
    eye = smat_identity(QQ, 3)
    A = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert smat_mul(QQ, A, smat_identity(QQ, 2)) == A
    assert smat_det(QQ, A) == Fraction(-2)
    assert smat_rank(QQ, A) == 2
    assert smat_rank(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert smat_det(QQ, eye) == 1


def test_smat_inverse_round_trip():
    rng = random.Random(3)
    for ring in (QQ, GF(7)):
        for _ in range(20):
            n = rng.randint(1, 4)
            A = [[ring.check(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            inv = smat_inverse(ring, A)
            if smat_det(ring, A) == ring.zero():
                assert inv is None
                continue
            assert inv is not None
            assert smat_mul(ring, A, inv) == smat_identity(ring, n)
            assert smat_mul(ring, inv, A) == smat_identity(ring, n)


def test_smat_inverse_over_z_needs_unit_det():
    assert smat_inverse(ZZ, [[2, 0], [0, 1]]) is None
    inv = smat_inverse(ZZ, [[1, 1], [0, 1]])
    assert inv == [[1, -1], [0, 1]]


def test_det_matches_permutation_expansion():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert smat_det(ZZ, A) == int_det(A)


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


def test_smith_normal_form_fixed():
    diag, U = smith_normal_form([[2, 4], [6, 8]])
    assert diag == [2, 4]
    assert abs(int_det(U)) == 1
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
        assert abs(int_det(U)) == 1


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
            assert abs(int_det(U)) == 1
