import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import exact_div_by_scan, normal_type
from troplex.laurent import (
    LaurentPoly, render, is_unit, canonical_associate, exact_div,
    laurent_gcd, gcd_list, squarefree_part, partial_derivative,
    initial_form_valued, reduce_mod_p, coefficient_primes, _exact_div_strict,
)
from troplex.linalg import det_laurent, smat_inverse
from troplex.rings import ZZ, QQ, GF, TRIVIAL, padic


def P(terms, ring=ZZ, nvars=2):
    return LaurentPoly(ring, nvars, terms)


QUADRIC = P({(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): -3})

# every coefficient ring, with nvars 0 (phi of rank 0) to 3
KERNEL_CASES = [(ring, nvars) for ring in (ZZ, QQ, GF(2), GF(3)) for nvars in range(4)]


def random_poly(rng, ring=ZZ, nvars=2, max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if ring.kind == "Q":
            c = Fraction(c, rng.randint(1, 3))
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(ring, nvars, {e: c for e, c in terms.items() if c})


def assert_normal(f):
    """f is what the public constructor builds from its own terms: no zero
    coefficient, a residue in [0, p) over F_p, and over Q an int when the
    value is integral and a Fraction otherwise: one type per value."""
    assert f == LaurentPoly(f.ring, f.nvars, f.terms)
    assert all(type(c) is normal_type(f.ring, c) for c in f.terms.values())


class Pairs(list):
    """(exponents, coefficient) pairs passed as terms: unlike a dict they
    can hold a list as an exponent."""

    def items(self):
        return iter(self)


def test_constructor_cleans_zeros():
    f = P({(0, 0): 0, (1, 0): 2})
    assert f.terms == {(1, 0): 2}
    assert LaurentPoly.zero(ZZ, 2).is_zero
    with pytest.raises(ValueError):
        P({(0,): 1})  # wrong exponent length


def test_constructor_checks_and_normalizes():
    with pytest.raises(ValueError, match="nvars must be >= 0"):
        LaurentPoly(ZZ, -1)
    with pytest.raises(ValueError, match="wrong length"):
        P({(0, 0, 0): 1})
    with pytest.raises(ValueError, match="duplicate exponent tuple"):
        P(Pairs([([1, 0], 1), ((1, 0), 2)]))
    with pytest.raises(ValueError, match="not an element of Z"):
        P({(0, 0): 1.5})
    assert P(Pairs([([1, 0], 1)])).terms == {(1, 0): 1}
    q = LaurentPoly(QQ, 1, {(0,): 2, (1,): Fraction(1, 2)})
    assert q.terms == {(0,): 2, (1,): Fraction(1, 2)}
    assert_normal(q)
    assert LaurentPoly(GF(3), 1, {(0,): 7, (1,): -1, (2,): 3}).terms == {(0,): 1, (1,): 2}


def test_constant_value():
    assert LaurentPoly.constant(QQ, 2, 3).constant_value() == 3
    assert LaurentPoly.zero(GF(3), 0).constant_value() == 0
    # only the gcd recursion asks, and only for constants: an internal error
    with pytest.raises(ArithmeticError, match="not a constant polynomial"):
        QUADRIC.constant_value()


def test_arithmetic_ring_axioms():
    rng = random.Random(23)
    for ring, nvars in KERNEL_CASES:
        zero, one = LaurentPoly.zero(ring, nvars), LaurentPoly.one(ring, nvars)
        for _ in range(25):
            f, g, h = (random_poly(rng, ring, nvars) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f - f == zero
            assert f * one == f
            u = tuple(rng.randint(-2, 2) for _ in range(nvars))
            assert f.shift(u).shift(tuple(-x for x in u)) == f
            for result in (f * g, f + g, f - g, -f, f * ring.from_int(2), f.shift(u)):
                assert_normal(result)


def test_pow_and_shift():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    f = t1 + 1
    assert f ** 2 == f * f
    assert f ** 0 == LaurentPoly.one(ZZ, 2)
    assert t1 ** -3 == LaurentPoly.monomial(ZZ, 2, (-3, 0), 1)
    assert f.shift((1, 2)).terms == {(2, 2): 1, (1, 2): 1}
    with pytest.raises(ValueError, match="wrong length"):
        f.shift((1,))
    with pytest.raises(ValueError):
        f ** -1  # negative powers only for monomials


def test_render_strings():
    assert render(QUADRIC) == "1 - 2*t1 + t1^2 - 3*t2^2"
    assert render(LaurentPoly.zero(ZZ, 2)) == "0"
    assert render(LaurentPoly.one(ZZ, 2)) == "1"
    # terms print in lex order of exponents
    assert render(P({(-1, -1): 1, (0, 0): -1})) == "t1^-1*t2^-1 - 1"
    assert render(P({(1,): 1, (0,): -1}, nvars=1)) == "-1 + t1"


def test_is_unit():
    assert is_unit(LaurentPoly.monomial(ZZ, 2, (3, -2), 1))
    assert is_unit(LaurentPoly.monomial(ZZ, 2, (0, 0), -1))
    assert not is_unit(LaurentPoly.monomial(ZZ, 2, (0, 0), 2))  # 2 not a unit in Z
    assert is_unit(LaurentPoly.monomial(QQ, 2, (0, 0), Fraction(2)))
    assert not is_unit(QUADRIC)
    assert not is_unit(LaurentPoly.zero(ZZ, 2))


def test_canonical_associate_fixed_points():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    one = LaurentPoly.one(ZZ, 2)
    f = t1 - one
    g = one - t1
    # both associates normalize to the same representative
    assert canonical_associate(f) == canonical_associate(g)
    assert render(canonical_associate(f)) == "1 - t1"
    assert canonical_associate(QUADRIC) == QUADRIC


def test_canonical_associate_properties():
    rng = random.Random(7)
    for _ in range(50):
        f = random_poly(rng)
        if f.is_zero:
            continue
        c = canonical_associate(f)
        # idempotent
        assert canonical_associate(c) == c
        # componentwise minimum exponent is normalized to the origin
        assert c.min_exponents() == (0,) * c.nvars
        # differs from f by a unit monomial
        q = exact_div(f, c)
        assert q is not None and is_unit(q)
        # invariant under unit scaling
        u = LaurentPoly.monomial(ZZ, 2, (rng.randint(-2, 2), rng.randint(-2, 2)),
                                 rng.choice([-1, 1]))
        assert canonical_associate(f * u) == c


def test_exact_div(deadline):
    rng = random.Random(31)
    for ring, nvars in KERNEL_CASES:
        for _ in range(30):
            f, g = random_poly(rng, ring, nvars), random_poly(rng, ring, nvars)
            if g.is_zero:
                continue
            q = exact_div(f * g, g)
            assert q == f
            assert_normal(q)
    t1 = LaurentPoly.var(ZZ, 2, 0)
    one = LaurentPoly.one(ZZ, 2)
    # without the bound on the quotient's exponents the long division of an
    # inexact pair would go on through t1^-1, t1^-2, ... for ever
    with deadline(10):
        assert exact_div(t1 + 1, t1 - 1) is None
        assert exact_div(t1 + 1, LaurentPoly.constant(ZZ, 2, 2)) is None  # content blocks
        assert exact_div((t1 + 1) * 2, LaurentPoly.constant(ZZ, 2, 2)) == t1 + 1
        # inexact only by an exponent
        assert exact_div(one, t1 + 1) is None
        assert exact_div(t1 * t1 + 1, t1 + 1) is None
        with pytest.raises(ArithmeticError, match="division expected to be exact"):
            _exact_div_strict(one, t1 + 1)


def laurent_terms(ring, nvars, max_size=4):
    """Term dicts over ring in nvars variables, negative exponents included."""
    coeffs = (Fraction(1), Fraction(-1, 2), Fraction(3, 2)) if ring.kind == "Q" else small_coeffs(ring)
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    return st.dictionaries(exps, st.sampled_from(coeffs), max_size=max_size).map(
        lambda terms: LaurentPoly(ring, nvars, terms))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from((ZZ, QQ, GF(2), GF(3))), st.integers(1, 3), st.data())
def test_exact_div_matches_the_scanning_oracle(deadline, ring, nvars, data):
    """The heap-ordered division agrees with the one that rescans the
    remainder, on exact products g*q and on g*q + r, None included."""
    g = data.draw(laurent_terms(ring, nvars).filter(bool), label="g")
    q = data.draw(laurent_terms(ring, nvars), label="q")
    r = data.draw(laurent_terms(ring, nvars, max_size=2), label="r")
    with deadline(30):
        assert exact_div(g * q, g) == q == exact_div_by_scan(g * q, g)
        f = g * q + r
        assert exact_div(f, g) == exact_div_by_scan(f, g)


# integral and non-integral rationals, Fraction(6, 3) among them
Q_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(6, 3))


def q_polys(nvars, max_size=3):
    exps = st.tuples(*[st.integers(-1, 2)] * nvars)
    return st.dictionaries(exps, st.sampled_from(Q_COEFFS), max_size=max_size).map(
        lambda terms: LaurentPoly(QQ, nvars, terms))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2), st.data())
def test_q_results_are_reduced_rationals(deadline, nvars, data):
    """Every result over Q holds an int where the value is integral and a
    Fraction elsewhere, and never a float (assert_normal fails on one)."""
    f = data.draw(q_polys(nvars), label="f")
    g = data.draw(q_polys(nvars).filter(bool), label="g")
    c = data.draw(st.sampled_from(Q_COEFFS + (0,)), label="c")
    M = [data.draw(st.lists(q_polys(nvars, 2), min_size=3, max_size=3)) for _ in range(3)]
    S = [data.draw(st.lists(st.sampled_from(Q_COEFFS + (0,)), min_size=2, max_size=2))
         for _ in range(2)]
    # a divisor whose leading term, past every exponent of q_polys, is not ±1
    lead = data.draw(st.sampled_from((2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))))
    g2 = g + LaurentPoly(QQ, nvars, {(3,) * nvars: lead})
    with deadline(30):
        q = exact_div(f, g)
        assert exact_div(f * g2, g2) == f
        q2 = exact_div(f, g2)
        results = [f + g, f - g, f * g, f * c, c * f, f + c, f - c, -f,
                   exact_div(f * g, g), exact_div(f * g2, g2), laurent_gcd(f, g),
                   canonical_associate(f), squarefree_part(f * g), det_laurent(M)]
        results += [x for x in (q, q2) if x is not None]
        for h in results:
            assert_normal(h)
        inv = smat_inverse(QQ, S)
        assert inv is None or all(type(x) is normal_type(QQ, x) for row in inv for x in row)


def test_exact_div_skips_cancelled_heap_entries():
    # dividing by g = 1 + t1 - t1^3 - t1^4: the second quotient step cancels
    # t1^4 and t1^6 after the remainder went into the heap; t1^6 is skipped
    # when it is popped, and t1^4 comes back in the third step and is pushed
    # again
    t = LaurentPoly.var(ZZ, 1, 0)
    g = 1 + t - t**3 - t**4
    q = -t + 1 + t**3 - t**4
    f = g * q
    assert render(f) == "1 - t1^2 - t1^6 + t1^8"
    assert exact_div(f, g) == q == exact_div_by_scan(f, g)
    assert exact_div(f + t**3, g) is None is exact_div_by_scan(f + t**3, g)


def sympy_divides(sympy, f, g):
    """g | f by sympy on the polynomial parts: a monomial shift is a unit
    of the Laurent ring and no variable divides a polynomial part."""
    n = max(f.nvars, 1)
    xs = sympy.symbols(f"x0:{n}")
    domain = {"Z": sympy.ZZ, "Q": sympy.QQ}.get(f.ring.kind) or sympy.GF(f.ring.p)

    def poly(h):
        h = h.shift(tuple(-m for m in h.min_exponents()))
        terms = {e + (0,) * (n - h.nvars): sympy.Rational(c.numerator, c.denominator)
                 for e, c in h.terms.items()}
        return sympy.Poly.from_dict(terms, *xs, domain=domain)

    return poly(f).rem(poly(g), auto=False).is_zero


def test_exact_div_decides_divisibility_like_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for ring, nvars in KERNEL_CASES:
        t = LaurentPoly.var(ring, nvars, nvars - 1) if nvars else None
        for _ in range(8):
            f, g = (random_poly(rng, ring, nvars, max_terms=3, span=2) for _ in range(2))
            if g.is_zero:
                continue
            pairs = [(f, g), (f * g, g)]
            if t is not None:
                pairs += [(f * g, g * (t + 1)), (LaurentPoly.one(ring, nvars), t + 1),
                          (f * g * t ** -2, g * t)]
            for a, b in pairs:
                q = exact_div(a, b)
                assert (q is not None) == sympy_divides(sympy, a, b), (a, b)
                if q is not None:
                    assert q * b == a
                    assert_normal(q)


def test_gcd_divisibility_and_idempotence():
    # 50 random pairs: the gcd divides both inputs, is already canonical,
    # and multiplying in a common factor keeps it a divisor of the gcd
    rng = random.Random(97)
    for _ in range(50):
        f, g, h = (random_poly(rng, max_terms=3, span=2) for _ in range(3))
        if f.is_zero or g.is_zero:
            continue
        d = laurent_gcd(f, g)
        assert exact_div(f, d) is not None
        assert exact_div(g, d) is not None
        assert canonical_associate(d) == d
        assert laurent_gcd(f, g) == laurent_gcd(g, f)
        if not h.is_zero:
            d2 = laurent_gcd(f * h, g * h)
            assert exact_div(d2, h) is not None


def test_gcd_known_values():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    one = LaurentPoly.one(ZZ, 2)
    f = (t1 - one) * (t2 - one)
    g = (t1 - one) * (t1 + one)
    assert laurent_gcd(f, g) == canonical_associate(t1 - one)
    assert laurent_gcd(f, LaurentPoly.zero(ZZ, 2)) == canonical_associate(f)
    # integer content is part of the gcd over Z
    assert laurent_gcd(2 * (t1 - one), 4 * (t1 - one)) == 2 * canonical_associate(t1 - one)


def test_gcd_list():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    one = LaurentPoly.one(ZZ, 2)
    polys = [(t1 - one) * (t1 + one), (t1 - one) * 3, (t1 - one) ** 2]
    assert gcd_list(polys) == canonical_associate(t1 - one)
    # no caller passes an empty list: an internal error, not bad input
    with pytest.raises(ArithmeticError, match="gcd of an empty list"):
        gcd_list([])


def test_partial_derivative():
    # d/dt1 of the quadric: -2 + 2*t1
    d = partial_derivative(QUADRIC, 0)
    assert d == P({(0, 0): -2, (1, 0): 2})
    d2 = partial_derivative(QUADRIC, 1)
    assert d2 == P({(0, 1): -6})
    # negative exponents differentiate too
    f = P({(-2, 0): 1})
    assert partial_derivative(f, 0) == P({(-3, 0): -2})


def test_squarefree_part():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    one = LaurentPoly.one(ZZ, 2)
    f = (t1 - one) ** 2 * (t2 - one)
    sf = squarefree_part(f)
    assert sf == canonical_associate((t1 - one) * (t2 - one))
    # already squarefree input is fixed
    assert squarefree_part(QUADRIC) == QUADRIC


def test_squarefree_part_char_p():
    # (1 + t1 + t2)^2 = 1 + t1^2 + t2^2 over F_2; the p-th power collapses
    F2 = GF(2)
    f = LaurentPoly(F2, 2, {(0, 0): 1, (2, 0): 1, (0, 2): 1})
    assert squarefree_part(f) == LaurentPoly(F2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    # (1 - t1)^2 over F_3 reduces to 1 + 2*t1 = canonical of 1 - t1
    F3 = GF(3)
    g = LaurentPoly(F3, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    assert squarefree_part(g) == LaurentPoly(F3, 2, {(0, 0): 1, (1, 0): 2})
    # (1 + t1)(1 + t2)^2 over F_2: the square hides in the gcd with the
    # partials, and its root is taken by recursion
    a, b = (LaurentPoly(F2, 2, {(0, 0): 1, e: 1}) for e in ((1, 0), (0, 1)))
    assert squarefree_part(a * b * b) == a * b


def test_initial_form_valued_trivial():
    f = LaurentPoly(QQ, 2, QUADRIC.terms)
    # at w = (1, 0) the exponents (0,0) and (0,2) share the minimum
    init = initial_form_valued(f, (1, 0), TRIVIAL)
    assert init.terms == {(0, 0): 1, (0, 2): -3}
    # at w = (0, 1) the t2 term drops out, leaving (1 - t1)^2
    init = initial_form_valued(f, (0, 1), TRIVIAL)
    assert init.terms == {(0, 0): 1, (1, 0): -2, (2, 0): 1}
    # generic w keeps a single term
    init = initial_form_valued(f, (Fraction(1, 7), Fraction(1, 11)), TRIVIAL)
    assert len(init.terms) == 1


def test_initial_form_valued_padic():
    f = LaurentPoly(QQ, 2, QUADRIC.terms)
    # 3-adically the -3 coefficient gains height 1, moving the vertex
    init = initial_form_valued(f, (0, Fraction(-1, 2)), padic(3))
    assert set(init.terms) == {(0, 0), (1, 0), (2, 0), (0, 2)}
    init = initial_form_valued(f, (0, 0), padic(3))
    assert set(init.terms) == {(0, 0), (1, 0), (2, 0)}
    with pytest.raises(ValueError, match="initial form of the zero polynomial"):
        initial_form_valued(LaurentPoly(QQ, 2, {}), (0, 0), padic(3))
    with pytest.raises(ValueError, match="weight vector has wrong length"):
        initial_form_valued(f, (0,), padic(3))
    with pytest.raises(ValueError, match="valuation/ring mismatch"):
        initial_form_valued(reduce_mod_p(QUADRIC, 2), (0, 0), padic(3))


def test_initial_form_chi():
    # the chi-initial form over Z: the trivial valuation is 0 on every
    # nonzero coefficient, so only the chi-degree <u, chi> counts
    init = initial_form_valued(QUADRIC, (0, 1), TRIVIAL)
    assert init.terms == {(0, 0): 1, (1, 0): -2, (2, 0): 1}
    init = initial_form_valued(QUADRIC, (1, -1), TRIVIAL)
    assert init.terms == {(0, 2): -3}
    init = initial_form_valued(QUADRIC, (-1, -1), TRIVIAL)
    assert init.terms == {(2, 0): 1, (0, 2): -3}


def test_reduce_mod_p():
    assert reduce_mod_p(QUADRIC, 3) == LaurentPoly(GF(3), 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    assert reduce_mod_p(QUADRIC, 2) == LaurentPoly(GF(2), 2, {(0, 0): 1, (2, 0): 1, (0, 2): 1})
    f = LaurentPoly(QQ, 2, QUADRIC.terms) * Fraction(1, 5)
    assert len(reduce_mod_p(f, 3).terms) == 3
    with pytest.raises(ValueError):
        reduce_mod_p(f, 5)  # 1/5 has no residue mod 5


def test_coefficient_primes():
    assert coefficient_primes(QUADRIC) == [2, 3]
    t1 = LaurentPoly.var(ZZ, 2, 0)
    assert coefficient_primes(t1 - 1) == []
    f = LaurentPoly(QQ, 2, QUADRIC.terms) * Fraction(1, 7)
    assert coefficient_primes(f) == [2, 3, 7]


def test_gcd_three_variables_over_f2():
    # exact division inside the subresultant PRS hands back negative
    # exponents; they used to reach the polynomial recursion and raise
    # ZeroDivisionError in the pseudo-remainder
    F2 = GF(2)
    A = P({e: 1 for e in [(1, 2, 2), (2, 2, 2), (0, 5, 2), (1, 5, 2),
                          (4, 2, 3), (3, 5, 3)]}, F2, 3)
    B = P({e: 1 for e in [(3, 3, 5), (4, 3, 5), (1, 4, 5), (2, 4, 5),
                          (3, 4, 5), (4, 4, 5), (6, 3, 6), (4, 4, 6),
                          (6, 4, 6)]}, F2, 3)
    g = laurent_gcd(A, B)
    assert exact_div(A, g) is not None and exact_div(B, g) is not None


def test_gcd_three_variables_over_z():
    # t1^-1 used to pass for a constant: ValueError "not a constant polynomial"
    A = P({(1, 3, -1): 6, (1, 0, -1): 6, (4, 0, 3): -2, (2, 3, 2): 6,
           (2, 0, 2): 6, (5, 0, 6): -2}, ZZ, 3)
    B = P({(1, 4, 0): 9, (1, 1, 0): 9, (4, 1, 4): -3, (0, 4, 1): 9,
           (0, 1, 1): 9, (3, 1, 5): -3, (-1, 1, -1): -3, (-1, -2, -1): -3,
           (2, -2, 3): 1, (0, 2, -2): 3, (0, -1, -2): 3, (3, -1, 2): -1}, ZZ, 3)
    assert render(laurent_gcd(A, B)) == "3 + 3*t2^3 - t1^3*t3^4"


def sympy_gcd(sympy, f, g):
    """gcd(f, g) by sympy on the polynomial parts, as a canonical associate."""
    xs = sympy.symbols(f"x0:{f.nvars}")
    modulus = {"modulus": f.ring.p} if f.ring.kind == "FP" else {}

    def poly(h):
        h = h.shift(tuple(-m for m in h.min_exponents()))
        return sympy.Poly.from_dict({e: int(c) for e, c in h.terms.items()}, *xs, **modulus)

    terms = poly(f).gcd(poly(g)).as_dict()
    return canonical_associate(
        P({e: f.ring.from_int(int(c)) for e, c in terms.items()}, f.ring, f.nvars))


def small_coeffs(ring):
    return (1,) if ring.kind == "FP" and ring.p == 2 else (1, 2) if ring.kind == "FP" else (1, -1, 2, -3)


def laurent3(ring):
    exps = st.tuples(*[st.integers(-1, 2)] * 3)
    return st.dictionaries(exps, st.sampled_from(small_coeffs(ring)), min_size=1, max_size=3).map(
        lambda terms: P(terms, ring, 3))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from((ZZ, GF(2), GF(3))), st.data())
def test_gcd_three_variables_matches_sympy_property(deadline, ring, data):
    sympy = pytest.importorskip("sympy")
    a, b, c = (data.draw(laurent3(ring)) for _ in range(3))
    with deadline(30):
        g = laurent_gcd(a, b)
        assert exact_div(a, g) is not None and exact_div(b, g) is not None
        assert g == sympy_gcd(sympy, a, b)
        assert laurent_gcd(a * c, b * c) == canonical_associate(g * c)


def test_gcd_split_exit_keeps_content_over_z():
    """t2 occurs in one operand only: the gcd is the other operand's gcd
    with that operand's t2-content, integer content included."""
    sympy = pytest.importorskip("sympy")
    t1, t2 = LaurentPoly.var(ZZ, 2, 0), LaurentPoly.var(ZZ, 2, 1)
    a, b = 2 * (t1 - 1), 4 * (t1 - 1) * (t2 + 3)
    expected = canonical_associate(2 * (t1 - 1))
    assert render(expected) == "2 - 2*t1"
    assert laurent_gcd(a, b) == laurent_gcd(b, a) == expected == sympy_gcd(sympy, a, b)
    assert render(laurent_gcd(t1 - 1, t2 - 1)) == "1"


def split_pair(ring):
    """(a, b, c): a in t1..t3, b and c in t1, t2 only."""
    exps3 = st.tuples(*[st.integers(-1, 2)] * 3)
    exps2 = st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.just(0))

    def poly(exps):
        return st.dictionaries(exps, st.sampled_from(small_coeffs(ring)), min_size=1,
                               max_size=3).map(lambda terms: P(terms, ring, 3))

    return st.tuples(poly(exps3).filter(lambda f: f.max_exponents()[2] > f.min_exponents()[2]),
                     poly(exps2), poly(exps2))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from((ZZ, GF(2), GF(3))), st.data())
def test_gcd_with_a_variable_in_one_operand_matches_sympy(deadline, ring, data):
    sympy = pytest.importorskip("sympy")
    a, b, c = data.draw(split_pair(ring))
    with deadline(30):
        g = laurent_gcd(a * c, b * c)
        assert g == laurent_gcd(b * c, a * c) == sympy_gcd(sympy, a * c, b * c)
        assert exact_div(g, canonical_associate(c)) is not None


def test_truth_and_hash_follow_the_terms():
    t = LaurentPoly.var(ZZ, 2, 0)
    zero = LaurentPoly.zero(ZZ, 2)
    assert not zero and t and not (t - t)
    assert hash(t * t) == hash(t**2) and hash(t + 1) == hash(1 + t)
    assert len({t * t, t**2, t + 1, 1 + t}) == 2
    assert zero.min_exponents() == zero.max_exponents() == (0, 0)


def test_refusals():
    t = LaurentPoly.var(ZZ, 2, 0)
    zero = LaurentPoly.zero(ZZ, 2)
    with pytest.raises(ValueError, match="zero polynomial has no terms"):
        zero.lex_min_exponent()
    with pytest.raises(ValueError, match="ring mismatch: Z vs Q"):
        t + LaurentPoly.var(QQ, 2, 0)
    with pytest.raises(ValueError, match="nvars mismatch"):
        t * LaurentPoly.var(ZZ, 1, 0)
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        exact_div(t, zero)
    f2 = LaurentPoly.var(GF(2), 2, 0)
    with pytest.raises(ValueError, match="already has prime-field coefficients"):
        reduce_mod_p(f2, 3)
    with pytest.raises(ValueError, match="only make sense over Z or Q"):
        coefficient_primes(f2)


def test_gcd_with_zero():
    t = LaurentPoly.var(ZZ, 2, 0)
    zero = LaurentPoly.zero(ZZ, 2)
    assert laurent_gcd(zero, zero) == zero
    # gcd(f, 0) is f's canonical associate, and t1 is a unit
    two = LaurentPoly.constant(ZZ, 2, 2)
    assert laurent_gcd(zero, -2 * t) == laurent_gcd(-2 * t, zero) == two
