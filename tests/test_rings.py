import math
import random
from fractions import Fraction

import pytest

from troplex.laurent import LaurentPoly
from troplex.rings import (
    ZZ, QQ, GF, TRIVIAL, Ring, Valuation, padic, valuate, reduce_scalar,
    ring_from_tag, is_prime, prime_factors, padic_valuation,
)


def test_ring_tags_and_reprs():
    assert repr(ZZ) == "Z" and ZZ.tag() == "Z"
    assert repr(QQ) == "Q" and QQ.tag() == "Q"
    assert repr(GF(7)) == "F_7" and GF(7).tag() == "fp:7"
    assert not ZZ.is_field and QQ.is_field and GF(3).is_field


def test_ring_from_tag_round_trip():
    assert ring_from_tag("Z") is ZZ
    assert ring_from_tag("Q") is QQ
    assert ring_from_tag("fp:11") == GF(11)
    assert ring_from_tag(GF(11).tag()) == GF(11)
    with pytest.raises(ValueError):
        ring_from_tag("nope")


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gf_canonical_residues():
    F5 = GF(5)
    assert F5.check(-3) == 2
    assert F5.check(12) == 2
    assert F5.inv(2) == 3
    # fractions enter prime fields through reduce_scalar, not check
    with pytest.raises(ValueError):
        F5.check(Fraction(1, 2))
    assert reduce_scalar(Fraction(1, 2), 5, QQ) == 3


def test_zz_rejects_fractions():
    with pytest.raises(ValueError):
        ZZ.check(Fraction(1, 2))
    with pytest.raises(ValueError):
        ZZ.check(Fraction(4, 2))


def test_a_bool_is_no_ring_element():
    # bool is an int subclass: unchecked, True would render as "True"
    for ring in (ZZ, QQ, GF(5)):
        for b in (True, False):
            with pytest.raises(ValueError, match=f"^{b} is not an element of {ring!r}$"):
                ring.check(b)
        with pytest.raises(ValueError, match="True is not an element"):
            LaurentPoly(ring, 0, {(): True})


def test_qq_elements_are_reduced_rationals():
    """Over Q an integral value is an int, any other a Fraction."""
    half = Fraction(1, 2)
    cases = [
        (QQ.zero(), 0), (QQ.one(), 1), (QQ.from_int(-4), -4),
        (QQ.check(Fraction(6, 3)), 2), (QQ.check(7), 7), (QQ.check(half), half),
        (QQ.add(half, half), 1), (QQ.sub(Fraction(5, 2), half), 2),
        (QQ.mul(Fraction(2, 3), Fraction(3, 2)), 1), (QQ.mul(3, half), Fraction(3, 2)),
        (QQ.inv(Fraction(-1, 3)), -3), (QQ.inv(1), 1), (QQ.inv(2), half),
    ]
    for got, want in cases:
        assert got == want and type(got) is type(want)


def test_field_axioms_sampled():
    rng = random.Random(11)
    for ring in (QQ, GF(7), GF(2)):
        for _ in range(30):
            a = ring.check(rng.randint(-20, 20))
            b = ring.check(rng.randint(-20, 20))
            assert ring.add(a, ring.neg(a)) == ring.zero()
            assert ring.mul(a, ring.one()) == a
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))
            if b != ring.zero():
                assert ring.mul(b, ring.inv(b)) == ring.one()


def test_trivial_valuation():
    assert TRIVIAL.kind == "trivial"
    assert valuate(TRIVIAL, Fraction(5)) == 0
    assert valuate(TRIVIAL, -7) == 0
    with pytest.raises(ValueError, match="valuation of 0 is infinite"):
        valuate(TRIVIAL, 0)


def test_padic_valuation_values():
    v3 = padic(3)
    assert repr(v3) == "3-adic"
    assert valuate(v3, Fraction(18)) == 2
    assert valuate(v3, Fraction(1, 3)) == -1
    assert valuate(v3, Fraction(10)) == 0
    with pytest.raises(ValueError, match="valuation of 0 is infinite"):
        valuate(v3, 0)
    assert type(valuate(v3, Fraction(1, 3))) is int
    assert padic_valuation(54, 3) == 3
    with pytest.raises(ValueError):
        padic_valuation(0, 3)
    with pytest.raises(ValueError):
        padic(4)


def test_padic_valuation_is_additive():
    rng = random.Random(5)
    v = padic(5)
    for _ in range(40):
        a = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert valuate(v, a * b) == valuate(v, a) + valuate(v, b)
        s = a + b
        if s != 0:
            assert valuate(v, s) >= min(valuate(v, a), valuate(v, b))


def test_reduce_scalar():
    assert reduce_scalar(7, 5) == 2
    assert reduce_scalar(-1, 5) == 4
    # 1/2 mod 3 is the inverse of 2
    assert reduce_scalar(Fraction(1, 2), 3, QQ) == 2
    with pytest.raises(ValueError):
        reduce_scalar(Fraction(1, 3), 3, QQ)
    with pytest.raises(ValueError, match="4 is not a prime"):
        reduce_scalar(7, 4)


def test_unknown_ring_and_valuation_kinds():
    with pytest.raises(ValueError, match="unknown ring kind 'R'"):
        Ring("R")
    with pytest.raises(ValueError, match="unknown valuation kind 'archimedean'"):
        Valuation("archimedean")


def test_prime_helpers():
    assert is_prime(2) and is_prime(13)
    assert not is_prime(1) and not is_prime(9)
    assert prime_factors(12) == [2, 3]
    assert prime_factors(1) == []
    assert prime_factors(-18) == [2, 3]
    with pytest.raises(ValueError, match="prime_factors of 0"):
        prime_factors(0)


def test_is_prime_agrees_with_sympy_below_1e5():
    sympy = pytest.importorskip("sympy")
    assert all(is_prime(n) == sympy.isprime(n) for n in range(-3, 10**5))


def test_is_prime_agrees_with_sympy_on_62_bit_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(62)
    for _ in range(3000):
        n = rng.getrandbits(62) | (1 << 61) | 1
        assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to several small bases, and the largest prime
    # below the prime-field bound
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(4611686018427387847)


def test_prime_factors_of_a_large_semiprime(deadline):
    # trial division alone did not finish this in 10 s
    with deadline(2):
        assert prime_factors(1000000007 * 998244353) == [998244353, 1000000007]
        assert prime_factors(-(1009 ** 3) * 2 ** 5) == [2, 1009]


def test_prime_factors_agree_with_sympy_on_products_of_large_primes():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    for _ in range(20):
        primes = [sympy.prevprime(rng.randrange(3, 2 ** rng.randint(8, 40)))
                  for _ in range(rng.choice((2, 3)))]
        primes.append(rng.choice(primes))  # a repeated factor
        n = math.prod(primes)
        assert prime_factors(n) == sorted(sympy.factorint(n)) == sorted(set(primes)), n


def test_ring_and_valuation_refusals():
    with pytest.raises(ValueError, match="p too large"):
        Ring("FP", 2**89 - 1)  # a Mersenne prime above the word bound 2**62
    with pytest.raises(ValueError, match="p is only meaningful for prime fields"):
        Ring("Z", 2)
    with pytest.raises(ValueError, match="0.5 is not an element of Q"):
        QQ.check(0.5)
    with pytest.raises(ZeroDivisionError, match="inverse of 0 in Q"):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError, match="inverse of 0 in F_5"):
        GF(5).inv(10)
    with pytest.raises(ValueError, match="2 is not a unit of Z"):
        ZZ.inv(2)
    assert ZZ.inv(-1) == -1
    with pytest.raises(ValueError, match="trivial valuation takes no prime"):
        Valuation("trivial", 3)
    with pytest.raises(ValueError, match="valuation/ring mismatch"):
        valuate(padic(2), 1, GF(2))
