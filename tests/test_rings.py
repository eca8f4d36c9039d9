import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troplex.laurent import LaurentPoly
from troplex.rings import (
    ZZ, QQ, GF, TRIVIAL, Ring, Valuation, padic, valuate, scalar_map,
    ring_from_tag, is_prime, prime_factors, padic_valuation, rational, tag_prime,
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


@pytest.mark.parametrize("tag", ["fp:1_1", "fp:\u0663", "fp:+3", "fp: 3", "fp:2x", "fp:", "fp:-3"])
def test_a_ring_tag_reads_its_prime_from_ascii_digits_only(tag):
    with pytest.raises(ValueError, match=f"^{re.escape(f'unknown ring tag {tag!r}')}$"):
        ring_from_tag(tag)
    assert tag_prime(tag, "fp:") is None


def test_tag_prime():
    assert tag_prime("fp:03", "fp:") == 3
    assert tag_prime("p-adic:11", "p-adic:") == 11
    assert tag_prime("p-adic:11", "fp:") is None


@pytest.mark.parametrize("prefix", ["fp:", "p-adic:"])
def test_a_tag_prime_above_2_62_is_refused_before_int_reads_it(prefix):
    assert tag_prime(prefix + "4611686018427387904", prefix) == 2**62
    assert tag_prime(prefix + "0" * 5000 + "3", prefix) == 3
    assert tag_prime(prefix + "0", prefix) == 0
    # 2**62 + 1; a strong pseudoprime to every prime base up to 37; and
    # 5001 digits, past int()'s 4300
    for digits in ("4611686018427387905", "3317044064679887385961981", "1" + "0" * 5000):
        tag = prefix + digits
        with pytest.raises(ValueError) as exc:
            tag_prime(tag, prefix)
        assert str(exc.value) == f"p too large in {tag!r}: primes are limited to 2**62"


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
    # fractions enter prime fields through scalar_map, not check
    with pytest.raises(ValueError):
        F5.check(Fraction(1, 2))
    assert scalar_map(QQ, F5)(Fraction(1, 2)) == 3


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
    # is_prime is exact only below 3.3e24, so p-adic primes stop at 2**62,
    # as prime fields and tags do: this strong pseudoprime to every base up
    # to 37 is refused, and the Mersenne prime 2**61 - 1 is accepted
    with pytest.raises(ValueError, match="p too large"):
        padic(3317044064679887385961981)
    with pytest.raises(ValueError, match="p too large"):
        Valuation("padic", 3317044064679887385961981)
    assert padic(2305843009213693951).p == 2**61 - 1


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


def test_scalar_map():
    assert scalar_map(ZZ, GF(5))(7) == 2
    assert scalar_map(ZZ, GF(5))(-1) == 4
    # 1/2 mod 3 is the inverse of 2
    assert scalar_map(QQ, GF(3))(Fraction(1, 2)) == 2
    assert scalar_map(QQ, GF(3))(5) == 2
    with pytest.raises(ValueError, match="^1/3 is not p-integral at p=3$"):
        scalar_map(QQ, GF(3))(Fraction(1, 3))
    assert scalar_map(ZZ, QQ)(-4) == -4
    assert scalar_map(QQ, ZZ)(-4) == -4
    with pytest.raises(ValueError, match="^1/2 is not an integer$"):
        scalar_map(QQ, ZZ)(Fraction(1, 2))
    for ring in (ZZ, QQ, GF(3)):
        assert scalar_map(ring, ring)(2) == 2
    # a prime field maps into no other ring: one text for every such pair
    for dst in (ZZ, QQ, GF(2), GF(5)):
        with pytest.raises(ValueError, match=f"^cannot convert scalars from F_3 to {dst!r}$"):
            scalar_map(GF(3), dst)


# (source, target, values): Z everywhere; Q at the values the map reads,
# integers into Z and p-integral rationals into F_p
MAP_CASES = st.one_of(
    st.tuples(st.just(ZZ), st.sampled_from((ZZ, QQ, GF(2), GF(3), GF(7))),
              st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2)),
    st.tuples(st.just(QQ), st.just(ZZ),
              st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2)),
    st.sampled_from((2, 3, 7)).flatmap(lambda p: st.tuples(
        st.just(QQ), st.just(GF(p)),
        st.lists(st.builds(lambda n, d: rational(Fraction(n, d)), st.integers(-10**4, 10**4),
                           st.integers(1, 10**4).filter(lambda d: d % p)),
                 min_size=2, max_size=2))),
)


@settings(max_examples=200, deadline=None)
@given(MAP_CASES)
def test_scalar_map_is_a_ring_homomorphism(case):
    src, dst, (a, b) = case
    to = scalar_map(src, dst)
    assert to(src.one()) == dst.one()
    assert to(src.add(a, b)) == dst.add(to(a), to(b))
    assert to(src.mul(a, b)) == dst.mul(to(a), to(b))
    assert to(src.neg(a)) == dst.neg(to(a))
    assert dst.check(to(a)) == to(a)  # the image is in dst's normal form


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
