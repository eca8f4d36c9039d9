import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troplex import linalg
from troplex.fpgroup import (
    Presentation, Representation, AbelianEpi, build_orbifold,
    build_weighted_raag, homology_dims_at_character, alexander_matrices,
    commutator, free_reduce, invert_word, verify_representation,
)
from troplex.jobspec import load_job, bundled_path
from troplex.jumploci import (
    minors, IdealGens, jump_ideal, twisted_alexander, kahler_obstruction,
    novikov_admissible,
)
from troplex.laurent import LaurentPoly, render, canonical_associate, squarefree_part
from troplex.linalg import det_laurent, smat_mul
from troplex.rings import ZZ, QQ, GF, TRIVIAL, padic


def onerel():
    return load_job(bundled_path("one_relator.json"))


def eval_poly(f, vals):
    """Plug nonzero rationals into a Laurent polynomial."""
    total = Fraction(0)
    for exps, c in f.terms.items():
        term = Fraction(c)
        for v, e in zip(vals, exps):
            term *= Fraction(v) ** e
        total += term
    return total


# -- minors ------------------------------------------------------------------


def test_minors_counts_and_values():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    one = LaurentPoly.one(ZZ, 2)
    zero = LaurentPoly.zero(ZZ, 2)
    M = [[t1, one, zero], [one, t1, one]]
    # minors come back canonicalized and deduped: t1^2 - 1, then t1 and 1
    # both collapse to the unit representative
    ms = minors(M, 2)
    assert sorted(render(m) for m in ms) == ["1", "1 - t1^2"]
    assert sorted(render(m) for m in minors(M, 1)) == ["1"]
    N = [[t1 + one, zero], [zero, t2 - one]]
    assert sorted(render(m) for m in minors(N, 1)) == ["1 + t1", "1 - t2"]
    assert minors(N, 2) == [canonical_associate((t1 + one) * (t2 - one))]
    assert minors(M, 0) == [one]
    with pytest.raises(ValueError):
        minors(M, 3)


def lmat_block_diag(A, B):
    """diag(A, B); an empty block contributes no rows and no columns."""
    if not A:
        return [row[:] for row in B]
    if not B:
        return [row[:] for row in A]
    probe = A[0][0]
    zero = LaurentPoly.zero(probe.ring, probe.nvars)
    am, an = len(A), len(A[0])
    bm, bn = len(B), len(B[0])
    out = []
    for i in range(am):
        out.append(A[i][:] + [zero] * bn)
    for i in range(bm):
        out.append([zero] * an + B[i][:])
    return out


def test_lmat_block_diag():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    one = LaurentPoly.one(ZZ, 2)
    zero = LaurentPoly.zero(ZZ, 2)
    A = [[t1]]
    B = [[one, zero], [zero, t1 + one]]
    D = lmat_block_diag(A, B)
    assert len(D) == 3 and len(D[0]) == 3
    assert D[0][0] == t1 and D[1][1] == one and D[2][2] == t1 + one
    assert D[0][1].is_zero and D[2][0].is_zero
    assert det_laurent(D) == t1 * (t1 + one)


def test_minors_of_block_diag_contain_products():
    """Each product of single-block minors shows up as a block-diagonal minor."""
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    one = LaurentPoly.one(ZZ, 2)
    A = [[t1, one], [one, t2]]
    B = [[t1 + one, t2], [t2, one]]
    big = {canonical_associate(m).key()
           for m in minors(lmat_block_diag(A, B), 2) if not m.is_zero}
    for ma in minors(A, 1):
        for mb in minors(B, 1):
            prod = ma * mb
            if not prod.is_zero:
                assert canonical_associate(prod).key() in big


# -- ideal generator bookkeeping ----------------------------------------------


def test_ideal_gens_dedup_and_canonicalize():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    one = LaurentPoly.one(ZZ, 2)
    zero = LaurentPoly.zero(ZZ, 2)
    J = IdealGens(ZZ, 2, [t1 - one, one - t1, zero, (t1 - one).shift((2, 1))])
    assert len(J.generators) == 1
    assert render(J.generators[0]) == "1 - t1"
    assert not J.is_zero_ideal
    Z = IdealGens(ZZ, 2, [zero, zero])
    assert Z.is_zero_ideal
    assert Z.gcd().is_zero


# -- the worked two-generator example -----------------------------------------


def test_untwisted_jump_ideals():
    job = onerel()
    pres = job.presentation
    triv = job.representation("trivial")
    J1 = jump_ideal(pres, triv, i=1)
    assert render(J1.gcd()) == "1 - t1"
    gens = sorted(render(g) for g in J1.generators)
    assert gens == [
        "1 - 2*t1 + t1^2 - t2 + 2*t1*t2 - t1^2*t2",
        "1 - 3*t1 + 3*t1^2 - t1^3",
        "1 - t1 - 2*t2 + 2*t1*t2 + t2^2 - t1*t2^2",
    ]
    J0 = jump_ideal(pres, triv, i=0)
    assert sorted(render(g) for g in J0.generators) == ["1 - t1", "1 - t2"]
    assert render(J0.gcd()) == "1"
    with pytest.raises(ValueError):
        jump_ideal(pres, triv, i=2)


def test_twisted_alexander_value():
    job = onerel()
    v = twisted_alexander(job.presentation, job.representation("s3"))
    assert v.delta.terms == {(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): -3}
    assert v.describe() == "1 - 2*t1 + t1^2 - 3*t2^2"
    assert not v.is_zero and not v.is_unit
    # the quadric is squarefree already
    assert squarefree_part(v.delta) == v.delta
    vs = twisted_alexander(job.presentation, job.representation("s3"), squarefree=True)
    assert vs.delta == v.delta


def test_twisted_alexander_mod_p():
    job = onerel()
    pres = job.presentation
    s3 = job.representation("s3")
    cases = {
        2: ("1 + t1^2 + t2^2", "1 + t1 + t2"),
        3: ("1 + t1 + t1^2", "1 + 2*t1"),
        5: ("1 + 3*t1 + t1^2 + 2*t2^2", "1 + 3*t1 + t1^2 + 2*t2^2"),
    }
    for p, (raw, sf) in cases.items():
        v = twisted_alexander(pres, s3.over(GF(p)))
        assert v.describe() == raw
        vs = twisted_alexander(pres, s3.over(GF(p)), squarefree=True)
        assert vs.describe() == sf


def test_untwisted_alexander_value():
    job = onerel()
    v = twisted_alexander(job.presentation, job.representation("trivial"))
    assert v.describe() == "1 - t1"
    assert sorted(render(g) for g in v.excluded_locus) == ["1 - t1", "1 - t2"]


def test_mod_p_reduction_commutes_with_gcd_here():
    # reducing the integral polynomial mod 3 agrees with computing over F_3
    from troplex.laurent import reduce_mod_p
    job = onerel()
    vz = twisted_alexander(job.presentation, job.representation("s3"))
    v3 = twisted_alexander(job.presentation, job.representation("s3").over(GF(3)))
    assert reduce_mod_p(vz.delta, 3) == v3.delta


def test_jump_ideal_matches_homology_dimensions():
    """All generators vanish at a character exactly when the dimension jumps."""
    job = onerel()
    pres = job.presentation
    rng = random.Random(59)
    chars = [(1, 1), (1, -1), (-1, 1)]
    while len(chars) < 9:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if a and b:
            chars.append((a, b))
    for rep_name in ("trivial", "s3"):
        rep = job.representation(rep_name)
        J0 = jump_ideal(pres, rep, i=0)
        J1 = jump_ideal(pres, rep, i=1)
        for rho in chars:
            d0, d1 = homology_dims_at_character(pres, rep, rho)
            jump0 = J0.is_zero_ideal or all(eval_poly(g, rho) == 0 for g in J0.generators)
            jump1 = J1.is_zero_ideal or all(eval_poly(g, rho) == 0 for g in J1.generators)
            assert jump0 == (d0 > 0), (rep_name, rho)
            assert jump1 == (d1 > 0), (rep_name, rho)


# -- J1 against every minor of diag(d2, d1) -------------------------------------


def j1_by_enumeration(pres, rep, phi=None):
    """J1 as every (n*r)-minor of the block matrix diag(d2, d1)."""
    if phi is None:
        phi = AbelianEpi.from_abelianization(pres)
    d2, d1 = alexander_matrices(pres, rep, phi)
    size = rep.rank * pres.ngens
    block = lmat_block_diag(d2, d1)
    gens = minors(block, size) if size <= min(len(block), len(block[0])) else []
    return IdealGens(rep.ring, phi.m, gens)


def assert_j1_matches_enumeration(pres, rep, phi=None):
    fast = jump_ideal(pres, rep, phi, i=1)
    slow = j1_by_enumeration(pres, rep, phi)
    assert {g.key() for g in fast.generators} == {g.key() for g in slow.generators}
    assert fast.is_zero_ideal == slow.is_zero_ideal
    assert fast.gcd() == slow.gcd()


S3_REPS = {
    "trivial": Representation.trivial(ZZ, 2),
    "s3": Representation(ZZ, [[[-1, 1], [-1, 0]], [[0, 1], [1, 0]]]),
    # permutation matrices of x1 -> (0 1 2), x2 -> (0 1)
    "perm3": Representation(ZZ, [[[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                                 [[0, 1, 0], [1, 0, 0], [0, 0, 1]]]),
}
J1_RINGS = (ZZ, QQ, GF(2), GF(3), GF(5))


def random_word(rng, ngens, length):
    return free_reduce([rng.choice([1, -1]) * rng.randint(1, ngens)
                        for _ in range(length)])


def kernel_presentation(pairs):
    """<x1, x2 | r>, r the product of the commutators [a, b] over pairs,
    times [x1, x2]^e with e in (0, 1, -1) so that every representation in
    S3_REPS kills it: the commutators map into A3, which [x1, x2] spans."""
    w = ()
    for a, b in pairs:
        w = free_reduce(w + commutator(a, b))
    fix = commutator(1, 2)
    for tail in ((), fix, invert_word(fix)):
        pres = Presentation(["x1", "x2"], [free_reduce(w + tail)])
        if all(verify_representation(pres, rep) for rep in S3_REPS.values()):
            return pres
    raise AssertionError("S3_REPS do not factor through one map onto S3")


def random_pairs(rng, count):
    return [(random_word(rng, 2, rng.randint(1, 2)), random_word(rng, 2, rng.randint(1, 2)))
            for _ in range(count)]


def test_j1_matches_enumeration_seeded():
    rng = random.Random(83)
    for k in range(30):
        pres = kernel_presentation(random_pairs(rng, rng.randint(1, 2)))
        while not pres.relators[0]:
            pres = kernel_presentation(random_pairs(rng, rng.randint(1, 2)))
        name = ("trivial", "s3")[k % 2]
        ring = J1_RINGS[k % len(J1_RINGS)]
        assert_j1_matches_enumeration(pres, S3_REPS[name].over(ring))
    for k in range(8):
        n = rng.randint(2, 4)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [(i, j, rng.randint(1, 2))
                 for i, j in rng.sample(pairs, rng.randint(1, len(pairs)))]
        ring = J1_RINGS[k % len(J1_RINGS)]
        pres = build_weighted_raag(n, edges)
        assert_j1_matches_enumeration(pres, Representation.trivial(ring, n))
    for genus, weights in ((1, []), (1, [2]), (0, [2, 3, 3])):
        pres = build_orbifold(genus, weights)
        for ring in (ZZ, GF(2)):
            assert_j1_matches_enumeration(pres, Representation.trivial(ring, pres.ngens))
    # no relators: d2 has no rows, and J1 is det(d1) or the zero ideal
    for ngens in (1, 2):
        pres = Presentation([f"x{g}" for g in range(1, ngens + 1)], [])
        assert_j1_matches_enumeration(pres, Representation(ZZ, S3_REPS["s3"].mats[:ngens]))


def test_j1_matches_enumeration_perm3():
    # diag(d2, d1) is 9 x 9 here: 7056 block minors, so one short relator
    pres = kernel_presentation([((1,), (-2, -2))])
    assert len(pres.relators[0]) == 6
    assert_j1_matches_enumeration(pres, S3_REPS["perm3"])
    assert not jump_ideal(pres, S3_REPS["perm3"]).is_zero_ideal


word_pairs = st.lists(
    st.tuples(*[st.lists(st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=2)
                .map(tuple)] * 2),
    min_size=1, max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(word_pairs, st.sampled_from(("trivial", "s3")), st.sampled_from(J1_RINGS))
def test_j1_matches_enumeration_property(pairs, name, ring):
    assert_j1_matches_enumeration(kernel_presentation(pairs), S3_REPS[name].over(ring))


def test_j1_takes_the_block_minors_only(monkeypatch):
    # diag(d2, d1) for s3 on the bundled relator is 6 x 6, so enumeration
    # takes C(6, 4)^2 = 225 determinants; the 2-minors of d2 and of d1
    # are 6 each
    calls = []
    real = linalg.det_laurent

    def counting(M):
        calls.append(len(M))
        return real(M)

    monkeypatch.setattr(linalg, "det_laurent", counting)
    job = onerel()
    J1 = jump_ideal(job.presentation, job.representation("s3"), i=1)
    assert not J1.is_zero_ideal
    assert len(calls) <= 12


# -- orbifold and graph-group tables -------------------------------------------


def test_orbifold_alexander_table():
    triv4 = Representation.trivial(ZZ, 4)
    v = twisted_alexander(build_orbifold(2, []), triv4)
    assert v.is_zero
    v = twisted_alexander(build_orbifold(2, [3]), Representation.trivial(ZZ, 5))
    assert v.is_zero
    orb = build_orbifold(1, [2, 3])
    v = twisted_alexander(orb, Representation.trivial(QQ, 4))
    assert v.is_unit
    orb2 = build_orbifold(1, [2])
    v = twisted_alexander(orb2, Representation.trivial(GF(2), 3))
    assert v.is_zero
    # same group away from the bad characteristic: not zero
    v = twisted_alexander(orb2, Representation.trivial(QQ, 3))
    assert v.is_unit


def test_weighted_raag_alexander_values():
    job = load_job(bundled_path("wraag_k4.json"))
    pres = job.presentation
    v = twisted_alexander(pres, Representation.trivial(QQ, 4), squarefree=True)
    assert v.is_unit
    v2 = twisted_alexander(pres, Representation.trivial(GF(2), 4), squarefree=True)
    assert not v2.is_zero and not v2.is_unit
    assert v2.delta.terms == {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}
    assert render(v2.delta) == "1 + t1"


def test_triangle_raag_alexander_values():
    g3 = build_weighted_raag(3, [(1, 2, 13), (1, 3, 13), (2, 3, 13)])
    v = twisted_alexander(g3, Representation.trivial(QQ, 3), squarefree=True)
    assert v.is_unit
    v13 = twisted_alexander(g3, Representation.trivial(GF(13), 3), squarefree=True)
    assert v13.is_zero


# -- obstruction and admissibility ---------------------------------------------


def test_kahler_obstruction_verdicts():
    job = load_job(bundled_path("wraag_k4.json"))
    pres = job.presentation
    vq = twisted_alexander(pres, Representation.trivial(QQ, 4), squarefree=True)
    v2 = twisted_alexander(pres, Representation.trivial(GF(2), 4), squarefree=True)
    verdict = kahler_obstruction([vq, v2])
    assert not verdict.consistent
    assert verdict.witnesses == ["fp:2"]
    # zero and unit polynomials are both compatible with the obstruction
    g3 = build_weighted_raag(3, [(1, 2, 13), (1, 3, 13), (2, 3, 13)])
    vq = twisted_alexander(g3, Representation.trivial(QQ, 3), squarefree=True)
    v13 = twisted_alexander(g3, Representation.trivial(GF(13), 3), squarefree=True)
    verdict = kahler_obstruction([vq, v13])
    assert verdict.consistent and verdict.witnesses == []
    with pytest.raises(ValueError):
        kahler_obstruction([])


def test_kahler_obstruction_nonunit_constant_over_z():
    # an integer constant is a unit once coefficients sit in a field,
    # so retained content over Z must not trigger the obstruction
    from troplex.jumploci import AlexVerdict
    const2 = AlexVerdict(LaurentPoly.constant(ZZ, 2, 2), ZZ, 2)
    assert kahler_obstruction([const2]).consistent
    shifted = AlexVerdict(LaurentPoly.monomial(ZZ, 2, (3, -1), 5), ZZ, 2)
    assert kahler_obstruction([shifted]).consistent
    genuine = AlexVerdict(LaurentPoly(ZZ, 2, {(0, 0): 1, (1, 0): 1}), ZZ, 2)
    assert not kahler_obstruction([genuine]).consistent


def test_novikov_trivial_valuation():
    s3 = onerel().representation("s3")
    v = novikov_admissible(s3, TRIVIAL)
    assert v.ok and v.condition == "a"


def test_novikov_integral_matrices():
    s3 = onerel().representation("s3")
    v = novikov_admissible(s3, padic(2))
    assert v.ok and v.condition == "c"
    v = novikov_admissible(s3, padic(3))
    assert v.ok and v.condition == "c"


def test_novikov_finite_image_route():
    # conjugating by diag(3, 1) breaks integrality but keeps the image finite
    s3 = onerel().representation("s3")
    D = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1)]]
    Dinv = [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1)]]
    mats = [smat_mul(QQ, smat_mul(QQ, D, [[Fraction(x) for x in row] for row in m]), Dinv)
            for m in s3.mats]
    conj = Representation(QQ, mats)
    v = novikov_admissible(conj, padic(3))
    assert not v.ok and v.reason == "entry valuation -1 < 0"
    v = novikov_admissible(conj, padic(3), check_finite_image=True)
    assert v.ok and v.condition == "b"


def test_novikov_counterexample_diag():
    # diagonal (3, 1/3): determinant valuation is fine, an entry is not,
    # and the generated subgroup is infinite so the finite-image route fails
    rep = Representation(QQ, [[[Fraction(3), 0], [0, Fraction(1, 3)]]])
    v = novikov_admissible(rep, padic(3))
    assert not v.ok and v.reason == "entry valuation -1 < 0"
    v = novikov_admissible(rep, padic(3), check_finite_image=True)
    assert not v.ok


def test_novikov_rejects_padic_on_prime_field():
    s3 = onerel().representation("s3")
    v = novikov_admissible(s3.over(GF(2)), padic(2))
    assert not v.ok
    assert "undefined" in v.reason


def test_novikov_det_valuation():
    rep = Representation(QQ, [[[Fraction(3)]]])
    v = novikov_admissible(rep, padic(3))
    assert not v.ok and v.reason == "det valuation 1 != 0"
