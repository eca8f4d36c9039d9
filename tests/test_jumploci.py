import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import free_reduce, homology_dims_at_character, leibniz_det
from troplex import jumploci, linalg
from troplex.bnsreport import assemble_bound
from troplex.fpgroup import (
    Presentation, Representation, AbelianEpi, build_orbifold,
    build_weighted_raag, alexander_matrices,
    commutator, invert_word, verify_representation,
    regular_representation,
)
from troplex.jobspec import load_job, bundled_path
from troplex.jumploci import (
    minors, IdealGens, jump_ideal, twisted_alexander, kahler_obstruction,
    novikov_admissible,
)
from troplex.laurent import (
    LaurentPoly, _exact_div_strict, render, canonical_associate, gcd_list, is_unit,
    squarefree_part,
)
from troplex.linalg import det_laurent, smat_mul
from troplex.rings import ZZ, QQ, GF, TRIVIAL, padic
from troplex.sphere import union_all
from troplex.tropical import sphere_projection, tropicalize


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
    assert not v.is_zero and not is_unit(v.delta)
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
    J0 = jump_ideal(job.presentation, job.representation("trivial"), i=0)
    assert sorted(render(g) for g in J0.generators) == ["1 - t1", "1 - t2"]


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


def j1_by_all_ordered_pairs(pres, rep, phi):
    """J1 from the c_R*q_a*q_b over every ordered pair (a, b) of J0's
    generators, in stream order; None at phi of rank 0, where kernel
    duality is not used."""
    if phi.m == 0:
        return None
    d2, d1 = alexander_matrices(pres, rep, phi)
    _, _, nums, den = jumploci._by_duality(d2, d1, rep.rank)
    gens0 = minors(d1, rep.rank)
    return IdealGens(rep.ring, phi.m, (_exact_div_strict(num * q_a, den) * q_b
                                       for num in nums for q_a in gens0 for q_b in gens0))


def assert_same_ideal(fast, slow, phi):
    """fast has slow's generators, or at phi of rank 0 (constant entries
    over the PID Z or F) the one generator gcd(slow)."""
    if phi.m == 0:
        assert fast.generators == ([] if slow.is_zero_ideal else [slow.gcd()])
    else:
        assert {g.key() for g in fast.generators} == {g.key() for g in slow.generators}
    assert fast.is_zero_ideal == slow.is_zero_ideal
    assert fast.gcd() == slow.gcd()


def assert_j1_matches_enumeration(pres, rep, phi=None):
    if phi is None:
        phi = AbelianEpi.from_abelianization(pres)
    fast = jump_ideal(pres, rep, phi, i=1)
    assert_same_ideal(fast, j1_by_enumeration(pres, rep, phi), phi)
    # forming each product once per unordered pair changes neither the
    # generators nor their order
    J = j1_by_all_ordered_pairs(pres, rep, phi)
    if J is not None:
        assert [g.key() for g in J.generators] == [g.key() for g in fast.generators]
        assert J.is_zero_ideal == fast.is_zero_ideal
        assert J.gcd() == fast.gcd()


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


@settings(max_examples=40, deadline=None)
@given(word_pairs, st.sampled_from(sorted(S3_REPS)), st.sampled_from((ZZ, GF(2), GF(3))),
       st.sampled_from(("Z", TRIVIAL, padic(3))))
def test_bound_entry_reads_gcd_j1_alone(pairs, name, ring, mode):
    """At phi of rank 2 J0 has two generators or more, so no entry is ever
    exact; and as gcd J0 divides gcd J1, an entry's arcs, S(Trop(gcd J1)),
    are the union of the sets of gcd J0 and gcd J1."""
    pres = kernel_presentation(pairs)
    rep = S3_REPS[name].over(ring)
    J0 = jump_ideal(pres, rep, i=0)
    assert len(J0.generators) >= 2
    rp = assemble_bound(pres, [(name, rep, mode)])
    if not rp.entries:  # Z on a prime field, or p-adic:3 on one
        assert rp.vacuous and len(rp.excluded) == 1
        return
    both = union_all(sphere_projection(tropicalize(J.gcd(), mode))
                     for J in (J0, jump_ideal(pres, rep, i=1)))
    arcs = rp.entries[0].arcs
    assert arcs == both
    assert arcs.components == both.components
    assert arcs.describe() == both.describe()


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


# -- Delta and J1 by kernel duality against enumeration -------------------------


def delta_by_enumeration(pres, rep, phi):
    """Delta as the gcd of every (n-1)r-minor of d2 (zero if all vanish)."""
    d2, _ = alexander_matrices(pres, rep, phi)
    k = (pres.ngens - 1) * rep.rank
    if k == 0:
        return LaurentPoly.one(rep.ring, phi.m)
    ms = minors(d2, k) if k <= len(d2) else []
    return gcd_list(ms) if ms else LaurentPoly.zero(rep.ring, phi.m)


def j1_by_blocks(pres, rep, phi):
    """J1 as every product of an a-minor of d2 and a b-minor of d1 with
    a + b = nr, with no rank bound on a or b; gcd() folds over them all."""
    d2, d1 = alexander_matrices(pres, rep, phi)
    size = rep.rank * pres.ngens
    one = LaurentPoly.one(rep.ring, phi.m)
    gens = []
    for a in range(size - rep.rank, min(len(d2), size) + 1):
        minors2 = minors(d2, a) if a else [one]
        minors1 = minors(d1, size - a) if size - a else [one]
        gens.extend(p * q for p in minors2 for q in minors1)
    return IdealGens(rep.ring, phi.m, gens)


def assert_duality_matches_enumeration(pres, rep, phi=None):
    """Delta, J0's and J1's generators and gcd J1 agree with enumeration
    (at phi of rank 0: each ideal's one generator is the gcd of the
    enumerated ones); returns whether J0 was nonempty."""
    if phi is None:
        phi = AbelianEpi.from_abelianization(pres)
    delta = twisted_alexander(pres, rep, phi).delta
    assert delta == delta_by_enumeration(pres, rep, phi)
    fast = jump_ideal(pres, rep, phi, i=1)
    assert_same_ideal(fast, j1_by_blocks(pres, rep, phi), phi)
    J0 = jump_ideal(pres, rep, phi, i=0)
    _, d1 = alexander_matrices(pres, rep, phi)
    assert_same_ideal(J0, IdealGens(rep.ring, phi.m, minors(d1, rep.rank)), phi)
    if not J0.is_zero_ideal:
        assert fast.gcd() == canonical_associate(delta * J0.gcd())
    return not J0.is_zero_ideal


def commuting_rep(rng, n, rank):
    """x_i -> M^e_i for one matrix M of finite order: the images commute,
    so this represents every (weighted) RAAG on n vertices."""
    M = {1: [[-1]], 2: S3_REPS["s3"].mats[0], 3: S3_REPS["perm3"].mats[0]}[rank]
    mats = []
    for _ in range(n):
        A = [[int(i == j) for j in range(rank)] for i in range(rank)]
        for _ in range(rng.randint(0, 2)):
            A = smat_mul(ZZ, A, M)
        mats.append(A)
    return Representation(ZZ, mats)


DUAL_RINGS = (ZZ, GF(2), GF(3))
PHIS = {
    "full": lambda pres: AbelianEpi.from_abelianization(pres),
    "rank1": lambda pres: AbelianEpi(pres, [(1,)] + [(0,)] * (pres.ngens - 1)),
    "rank0": lambda pres: AbelianEpi(pres, [()] * pres.ngens),
}


def test_duality_matches_enumeration_seeded():
    rng = random.Random(97)
    routes = set()
    # one relator, sigma of rank 1-3, phi of rank 2, 1 and 0
    for k in range(36):
        pres = kernel_presentation(random_pairs(rng, rng.randint(1, 2)))
        name = ("trivial", "s3", "perm3")[k % 3]
        ring = DUAL_RINGS[k // 3 % 3]
        phi = PHIS[("full", "rank1", "rank0")[k // 9 % 3]](pres)
        routes.add(assert_duality_matches_enumeration(pres, S3_REPS[name].over(ring), phi))
    # RAAGs with more relators than n - 1
    for k in range(18):
        n, rank = ((3, 1), (4, 1), (5, 1), (3, 2))[k % 4]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [(i, j, rng.randint(1, 2))
                 for i, j in rng.sample(pairs, rng.randint(n, min(len(pairs), 6)))]
        pres = build_weighted_raag(n, edges)
        assert len(pres.relators) > n - 1
        rep = commuting_rep(rng, n, rank).over(DUAL_RINGS[k % 3])
        routes.add(assert_duality_matches_enumeration(pres, rep))
    assert routes == {True, False}


@settings(max_examples=40, deadline=None)
@given(word_pairs, st.sampled_from(sorted(S3_REPS)), st.sampled_from(DUAL_RINGS),
       st.sampled_from(sorted(PHIS)))
def test_duality_matches_enumeration_property(pairs, name, ring, phi):
    pres = kernel_presentation(pairs)
    assert_duality_matches_enumeration(pres, S3_REPS[name].over(ring), PHIS[phi](pres))


def test_duality_fallback_and_zero_delta():
    pres = onerel().presentation
    # phi of rank 0, so every entry is a constant: the trivial sigma
    # gives d1 = 0 and an empty J0, s3 keeps J0 nonempty (det of
    # sigma(x1) - I is 3), and both take their determinantal divisors
    rank0 = PHIS["rank0"](pres)
    assert not assert_duality_matches_enumeration(pres, S3_REPS["trivial"], rank0)
    assert assert_duality_matches_enumeration(pres, S3_REPS["s3"], rank0)
    assert twisted_alexander(pres, S3_REPS["s3"], rank0).describe() == "3"
    # Delta = 0 with fewer relators than n - 1 (no row slice at all), and
    # with a triangle plus a lone vertex: d2 has k = 3 rows, but every
    # slice misses the lone vertex's column
    for pres in (build_orbifold(2, []),
                 build_weighted_raag(4, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])):
        rep = Representation.trivial(ZZ, pres.ngens)
        assert assert_duality_matches_enumeration(pres, rep)
        assert twisted_alexander(pres, rep).is_zero
        assert jump_ideal(pres, rep, i=1).is_zero_ideal


def test_singular_generator_blocks_fall_back_to_enumeration(monkeypatch):
    # the braid group <x1, x2 | x1x2x1 = x2x1x2> onto SL_2(Z) with phi of
    # rank 0: both blocks sigma(x_i) - I are singular, yet J0 is nonempty,
    # and Delta = 2, the gcd of the 2-minors of the 2 x 4 matrix d2, is
    # read off its Smith form without taking a single minor
    pres = Presentation(["x1", "x2"], [(1, 2, 1, -2, -1, -2)])
    rep = Representation(ZZ, [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]])
    phi = PHIS["rank0"](pres)

    def no_minors(M, k):
        raise AssertionError("minors called at phi of rank 0")

    monkeypatch.setattr(jumploci, "minors", no_minors)
    assert twisted_alexander(pres, rep, phi).describe() == "2"
    assert jump_ideal(pres, rep, phi, i=0).generators == [LaurentPoly.one(ZZ, 0)]
    assert render(jump_ideal(pres, rep, phi, i=1).gcd()) == "2"
    monkeypatch.undo()
    assert assert_duality_matches_enumeration(pres, rep, phi)


# -- gcd J0 from the generator blocks against every r-minor of d1 --------------


def gcd_j0_route(pres, rep, phi):
    """_by_duality's gcd J0 and Delta against gcd_list(minors(d1, r)) and
    enumeration.  Returns None when Delta = 0 (no row slice of rank k,
    and no minor taken), else whether gcd J0 needed every r-minor of d1
    because the generator blocks' gcd is not a unit."""
    d2, d1 = alexander_matrices(pres, rep, phi)
    real_minors = jumploci.minors
    taken = []
    jumploci.minors = lambda M, k: taken.append(k) or real_minors(M, k)
    try:
        g0, delta, nums, _ = jumploci._by_duality(d2, d1, rep.rank)
    finally:
        jumploci.minors = real_minors
    assert delta == delta_by_enumeration(pres, rep, phi)
    if not nums:
        assert delta.is_zero and taken == []
        return None
    assert g0 == gcd_list(minors(d1, rep.rank))
    r = rep.rank
    blocks = gcd_list([det_laurent(d1[top:top + r]) for top in range(0, len(d1), r)])
    assert taken == ([] if is_unit(blocks) else [r])
    return bool(taken)


# x1 -> 1, x2 -> 0: sigma(x2) - I is singular, so the blocks' gcd is x1's
# block 1 + t1 + t1^2, while the 2-minors of d1 have gcd 1
FALLBACK_RELATOR = (-1, 2, 1, 1, -2, -1, -2, -1, -2, -2, 1, 1, 2, -1, 2, 2)


def test_gcd_j0_falls_back_to_every_minor_when_the_blocks_gcd_is_not_a_unit():
    pres = Presentation(["x1", "x2"], [FALLBACK_RELATOR])
    phi = AbelianEpi(pres, [(1,), (0,)])
    # over F_2 no row slice has rank k, so Delta = 0 needs no gcd J0
    for ring, delta in ((ZZ, "2 - 2*t1"), (QQ, "1 - t1"), (GF(2), "0"),
                        (GF(3), "1 + 2*t1")):
        rep = S3_REPS["s3"].over(ring)
        assert verify_representation(pres, rep)
        _, d1 = alexander_matrices(pres, rep, phi)
        blocks = [det_laurent(d1[top:top + 2]) for top in (0, 2)]
        assert [render(b) for b in blocks] == ["1 + t1 + t1^2", "0"]
        assert jump_ideal(pres, rep, phi, i=0).gcd() == LaurentPoly.one(ring, 1)
        assert gcd_j0_route(pres, rep, phi) is (None if delta == "0" else True)
        assert twisted_alexander(pres, rep, phi).describe() == delta


GCD_J0_RINGS = (ZZ, QQ, GF(2), GF(3))


def test_gcd_j0_matches_every_minor_seeded():
    rng = random.Random(151)
    routes = set()
    for k in range(32):
        pres = kernel_presentation(random_pairs(rng, rng.randint(1, 2)))
        name = ("trivial", "s3", "perm3")[k % 3]
        ring = GCD_J0_RINGS[k // 2 % 4]
        phi = PHIS[("full", "rank1")[k % 2]](pres)
        routes.add(gcd_j0_route(pres, S3_REPS[name].over(ring), phi))
    for k in range(16):
        n, rank = ((3, 1), (4, 1), (5, 1), (3, 2))[k % 4]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [(i, j, rng.randint(1, 2))
                 for i, j in rng.sample(pairs, rng.randint(1, len(pairs)))]
        pres = build_weighted_raag(n, edges)
        rep = commuting_rep(rng, n, rank).over(GCD_J0_RINGS[k // 4])
        routes.add(gcd_j0_route(pres, rep, PHIS[("full", "rank1")[k // 2 % 2]](pres)))
    assert routes == {None, True, False}


@settings(max_examples=40, deadline=None)
@given(word_pairs, st.sampled_from(sorted(S3_REPS)), st.sampled_from(GCD_J0_RINGS),
       st.sampled_from(("full", "rank1")))
def test_gcd_j0_matches_every_minor_property(pairs, name, ring, phi):
    pres = kernel_presentation(pairs)
    gcd_j0_route(pres, S3_REPS[name].over(ring), PHIS[phi](pres))


# -- phi of rank 0 by determinantal divisors against enumeration ---------------


def group_elements(mats):
    """Every element of the finite group the integer matrices generate."""
    frozen = lambda m: tuple(map(tuple, m))
    found = {frozen(m) for m in mats}
    frontier = list(found)
    while frontier:
        g = frontier.pop()
        for h in mats:
            x = frozen(smat_mul(ZZ, h, g))
            if x not in found:
                found.add(x)
                frontier.append(x)
    return sorted(found)


# sigma(x_i) - I is singular over every ring for 1, the identity and the
# reflections; -1 and -I only over F_2, the rotations only over F_3
FINITE_GROUPS = (group_elements([[[-1]]]), group_elements(S3_REPS["s3"].mats))
RANK0_RINGS = (ZZ, QQ, GF(2), GF(3))


def finite_abelianization_case(images, words, powers):
    """<x_1..x_n | x_i^(k_i * ord sigma(x_i)), w * u_w> with sigma the
    representation x_i -> images[i] and u_w a shortest word with
    sigma(u_w) = sigma(w)^-1, so every relator lies in its kernel and the
    power relators leave G_ab finite.  Returns (pres, sigma over Z)."""
    n = len(images)
    rep = Representation(ZZ, [[list(row) for row in m] for m in images])
    frozen = lambda m: tuple(map(tuple, m))
    letters = [g for g in range(-n, n + 1) if g]
    # a shortest word for each element, breadth first from the identity
    word_for = {frozen(rep.identity()): ()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in letters:
                x = frozen(rep.word_image(w + (g,)))
                if x not in word_for:
                    word_for[x] = w + (g,)
                    nxt.append(w + (g,))
        frontier = nxt
    relators = []
    for g, k in enumerate(powers, 1):
        order, x = 1, rep.image(g)
        while frozen(x) != frozen(rep.identity()):
            x, order = smat_mul(ZZ, x, rep.image(g)), order + 1
        relators.append((g,) * (k * order))
    for w in words:
        w = free_reduce(w)
        inverse = frozen(rep.word_image(invert_word(w)))
        r = free_reduce(w + word_for[inverse])
        if r:
            relators.append(r)
    pres = Presentation([f"x{g}" for g in range(1, n + 1)], relators)
    assert verify_representation(pres, rep)
    return pres, rep


def assert_rank0_matches_enumeration(pres, rep):
    """The determinantal-divisor route against enumeration, without a
    single minor taken by jumploci; returns whether every generator
    block sigma(x_i) - I is singular."""
    phi = AbelianEpi.from_abelianization(pres)
    assert phi.m == 0
    real_minors = jumploci.minors

    def no_minors(M, k):
        raise AssertionError("minors called at phi of rank 0")

    jumploci.minors = no_minors
    try:
        delta = twisted_alexander(pres, rep, phi).delta
        J0 = jump_ideal(pres, rep, phi, i=0)
        J1 = jump_ideal(pres, rep, phi, i=1)
    finally:
        jumploci.minors = real_minors
    assert delta == delta_by_enumeration(pres, rep, phi)
    assert_same_ideal(J1, j1_by_blocks(pres, rep, phi), phi)
    _, d1 = alexander_matrices(pres, rep, phi)
    assert_same_ideal(J0, IdealGens(rep.ring, 0, minors(d1, rep.rank)), phi)
    r = rep.rank
    return all(det_laurent(d1[top:top + r]).is_zero for top in range(0, len(d1), r))


def test_rank0_route_matches_enumeration_seeded():
    rng = random.Random(131)
    singular = set()
    for k in range(24):
        n = rng.randint(2, 3)
        group = FINITE_GROUPS[k % 2]
        images = [rng.choice(group) for _ in range(n)]
        words = [random_word(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        pres, rep = finite_abelianization_case(images, words,
                                               [rng.randint(1, 2) for _ in range(n)])
        ring = RANK0_RINGS[k // 2 % 4]
        singular.add(assert_rank0_matches_enumeration(pres, rep.over(ring)))
    assert singular == {True, False}


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(2, 3), st.sampled_from(FINITE_GROUPS),
       st.sampled_from(RANK0_RINGS))
def test_rank0_route_matches_enumeration_property(data, n, group, ring):
    letters = st.sampled_from([g for g in range(-n, n + 1) if g])
    images = data.draw(st.lists(st.sampled_from(group), min_size=n, max_size=n))
    words = data.draw(st.lists(st.lists(letters, min_size=1, max_size=4), max_size=2))
    powers = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    pres, rep = finite_abelianization_case(images, words, powers)
    assert_rank0_matches_enumeration(pres, rep.over(ring))


def test_zero_delta_takes_no_minors(monkeypatch):
    # the free group on two generators has no relator, so d2 has no row
    # slice: Delta and J1 are zero after one block determinant of d1, and
    # J0's C(12, 6) = 924 minors for reg_s3 are never taken
    rep = onerel().representation("reg_s3")
    pres = Presentation(["x1", "x2"], [])
    real_det = linalg.det_laurent
    calls = []

    def no_minors(M, k):
        raise AssertionError("minors called with Delta = 0")

    monkeypatch.setattr(linalg, "det_laurent", lambda M: calls.append(M) or real_det(M))
    monkeypatch.setattr(jumploci, "minors", no_minors)
    assert twisted_alexander(pres, rep).is_zero
    assert jump_ideal(pres, rep, i=1).is_zero_ideal
    assert len(calls) == 2


def test_reg_s3_takes_one_d2_determinant_per_slice(monkeypatch):
    # d1 is 12 x 6 and d2 is 6 x 12: the two generator blocks of d1 (one
    # of them S0's) have gcd 1, so gcd J0 = 1 without J0's C(12, 6) = 924
    # minors, and the single 6-row slice of d2 is the one other
    # determinant; never minors(d2, .) or the rank of d2
    job = onerel()
    pres, rep = job.presentation, job.representation("reg_s3")
    phi = AbelianEpi.from_abelianization(pres)
    _, d1 = alexander_matrices(pres, rep, phi)
    d1_rows = {tuple(g.key() for g in row) for row in d1}
    real_det, real_minors = linalg.det_laurent, minors
    calls, minor_shapes = [], []

    def det_counting(M):
        calls.append(all(tuple(g.key() for g in row) in d1_rows for row in M))
        return real_det(M)

    def minors_recording(M, k):
        minor_shapes.append((len(M), len(M[0]), k))
        return real_minors(M, k)

    def no_rank(M):
        raise AssertionError("rank_laurent called with J0 nonempty")

    monkeypatch.setattr(linalg, "det_laurent", det_counting)
    monkeypatch.setattr(linalg, "rank_laurent", no_rank)
    monkeypatch.setattr(jumploci, "minors", minors_recording)
    twisted_alexander(pres, rep, phi)
    assert sorted(calls) == [False, True, True] and minor_shapes == []
    calls.clear()
    J1 = jump_ideal(pres, rep, phi, i=1)
    assert sorted(calls) == [False, True, True] and minor_shapes == []
    # reading J1's generators takes J0's 924 minors once, and finds the
    # same 143 distinct generators as enumeration
    assert len(J1.generators) == 143
    assert minor_shapes == [(12, 6, 6)]
    assert len(calls) == 3 + 924


# -- orbifold and graph-group tables -------------------------------------------


def test_orbifold_alexander_table():
    triv4 = Representation.trivial(ZZ, 4)
    v = twisted_alexander(build_orbifold(2, []), triv4)
    assert v.is_zero
    v = twisted_alexander(build_orbifold(2, [3]), Representation.trivial(ZZ, 5))
    assert v.is_zero
    orb = build_orbifold(1, [2, 3])
    v = twisted_alexander(orb, Representation.trivial(QQ, 4))
    assert is_unit(v.delta)
    orb2 = build_orbifold(1, [2])
    v = twisted_alexander(orb2, Representation.trivial(GF(2), 3))
    assert v.is_zero
    # same group away from the bad characteristic: not zero
    v = twisted_alexander(orb2, Representation.trivial(QQ, 3))
    assert is_unit(v.delta)


def test_weighted_raag_alexander_values():
    job = load_job(bundled_path("wraag_k4.json"))
    pres = job.presentation
    v = twisted_alexander(pres, Representation.trivial(QQ, 4), squarefree=True)
    assert is_unit(v.delta)
    v2 = twisted_alexander(pres, Representation.trivial(GF(2), 4), squarefree=True)
    assert not v2.is_zero and not is_unit(v2.delta)
    assert v2.delta.terms == {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}
    assert render(v2.delta) == "1 + t1"


def test_triangle_raag_alexander_values():
    g3 = build_weighted_raag(3, [(1, 2, 13), (1, 3, 13), (2, 3, 13)])
    v = twisted_alexander(g3, Representation.trivial(QQ, 3), squarefree=True)
    assert is_unit(v.delta)
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
    assert verdict.witnesses == [v2]
    assert [w.ring.tag() for w in verdict.witnesses] == ["fp:2"]
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
    const2 = AlexVerdict(LaurentPoly.constant(ZZ, 2, 2))
    assert kahler_obstruction([const2]).consistent
    shifted = AlexVerdict(LaurentPoly.monomial(ZZ, 2, (3, -1), 5))
    assert kahler_obstruction([shifted]).consistent
    genuine = AlexVerdict(LaurentPoly(ZZ, 2, {(0, 0): 1, (1, 0): 1}))
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


def conj_s3():
    """s3 conjugated by diag(3, 1): not integral, but the image is finite."""
    s3 = onerel().representation("s3")
    D = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1)]]
    Dinv = [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1)]]
    mats = [smat_mul(QQ, smat_mul(QQ, D, [[Fraction(x) for x in row] for row in m]), Dinv)
            for m in s3.mats]
    return Representation(QQ, mats)


def test_novikov_finite_image_route():
    conj = conj_s3()
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


def test_max_quotient_is_one_limit(monkeypatch):
    """TROPLEX_MAX_QUOTIENT bounds the permutation closure behind
    regular_representation and the matrix closure behind condition (b)."""
    monkeypatch.setenv("TROPLEX_MAX_QUOTIENT", "5")
    pres = onerel().presentation
    with pytest.raises(ValueError, match="exceeds 5 elements"):
        regular_representation(pres, [[1, 2, 0], [1, 0, 2]])
    v = novikov_admissible(conj_s3(), padic(3), check_finite_image=True)
    assert not v.ok and v.reason == "entry valuation -1 < 0"
    monkeypatch.setenv("TROPLEX_MAX_QUOTIENT", "6")
    assert regular_representation(pres, [[1, 2, 0], [1, 0, 2]]).rank == 6
    assert novikov_admissible(conj_s3(), padic(3), check_finite_image=True).condition == "b"


def test_novikov_rejects_padic_on_prime_field():
    s3 = onerel().representation("s3")
    v = novikov_admissible(s3.over(GF(2)), padic(2))
    assert not v.ok
    assert "undefined" in v.reason


def test_novikov_det_valuation():
    # sigma(x) = [[3]] is integral, but its determinant is not a 3-adic
    # unit: the refusal names the entry 1/3 of sigma(x)^-1
    rep = Representation(QQ, [[[Fraction(3)]]])
    v = novikov_admissible(rep, padic(3))
    assert not v.ok and v.reason == "entry valuation -1 < 0"


@st.composite
def _generators_invertible_over_q(draw):
    """(ring, one or two 1x1 to 3x3 matrices invertible over the ring),
    each a unitriangular times a triangular matrix: over Z with diagonal
    +-1, over Q with small fractions and a nonzero diagonal."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    n = draw(st.integers(1, 3))
    if ring is ZZ:
        entry, diagonal = st.integers(-2, 2), st.sampled_from((1, -1))
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 5)))
        diagonal = st.builds(Fraction, st.sampled_from((1, -1, 2, 3, 5)),
                             st.sampled_from((1, 2, 3, 5)))
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
                 for i in range(n)]
        upper = [[draw(diagonal) if i == j else draw(entry) if j > i else 0 for j in range(n)]
                 for i in range(n)]
        mats.append(smat_mul(ring, lower, upper))
    return ring, mats


def inverse_by_cofactors(M):
    det = Fraction(leibniz_det(M))
    n = len(M)
    minor = lambda i, j: [[M[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
    return [[(-1) ** (i + j) * leibniz_det(minor(j, i)) / det for j in range(n)]
            for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(_generators_invertible_over_q(), st.sampled_from((2, 3, 5)))
def test_novikov_entries_only_rule_is_the_old_rule(gens, p):
    """Condition (c) reads entry valuations only; the rule it replaced also
    asked for determinant valuation 0, which integral entries of M and
    M^-1 already force."""
    ring, mats = gens
    integral = lambda x: Fraction(x).denominator % p != 0
    unit = lambda x: integral(x) and Fraction(x).numerator % p != 0
    old = all(
        all(integral(x) for row in M + inverse_by_cofactors(M) for x in row)
        and unit(leibniz_det(M))
        for M in mats
    )
    assert novikov_admissible(Representation(ring, mats), padic(p)).ok == old


def primitive_q_associate(delta_z):
    """Gauss's lemma: the gcd over Q[t^+-1] is the gcd over Z[t^+-1] with
    its integer content divided out, up to a unit of Q."""
    if delta_z.is_zero:
        return LaurentPoly.zero(QQ, delta_z.nvars)
    content = math.gcd(*delta_z.terms.values())
    return canonical_associate(LaurentPoly(
        QQ, delta_z.nvars, {e: c // content for e, c in delta_z.terms.items()}))


def test_delta_over_q_is_the_primitive_part_over_z_seeded():
    """Delta over Q, a gcd of the minors in Q[t^+-1], against Delta over Z
    by Gauss's lemma, on groups whose relators lie in the S3 kernel and on
    weighted RAAGs."""
    rng = random.Random(30)
    contents, nonconstant = set(), 0

    def check(pres, rep, phi=None):
        nonlocal nonconstant
        delta_z = twisted_alexander(pres, rep, phi).delta
        delta_q = twisted_alexander(pres, rep.over(QQ), phi).delta
        assert delta_q == primitive_q_associate(delta_z)
        if not delta_z.is_zero:
            contents.add(math.gcd(*delta_z.terms.values()))
            nonconstant += len(delta_z.terms) > 1

    for k in range(30):
        pres = kernel_presentation(random_pairs(rng, rng.randint(1, 2)))
        check(pres, S3_REPS[("trivial", "s3", "perm3")[k % 3]],
              PHIS[("full", "rank1")[k // 3 % 2]](pres))
    for k in range(12):
        n = rng.randint(3, 5)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [(i, j, rng.randint(1, 3))
                 for i, j in rng.sample(pairs, rng.randint(1, min(len(pairs), 6)))]
        pres = build_weighted_raag(n, edges)
        check(pres, Representation.trivial(ZZ, n))
        check(pres, commuting_rep(rng, n, rng.randint(1, 2)))
    # the cases divide out a content above 1 and compare real polynomials
    assert max(contents) > 1 and nonconstant > 10
