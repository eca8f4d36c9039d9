import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    abelianization, fox_derivative, free_reduce, homology_dims_at_character, lmat_mul,
)
from troplex.fpgroup import (
    invert_word, parse_word, word_to_str, commutator,
    Presentation, Representation, AbelianEpi, verify_representation,
    alexander_matrices, build_orbifold, build_weighted_raag,
    build_product, regular_representation, _closure, _perm_mul,
)
from troplex.jobspec import load_job, bundled_path
from troplex.laurent import LaurentPoly, render, canonical_associate
from troplex.linalg import smith_normal_form
from troplex.rings import ZZ, QQ, GF

ONEREL_NAMES = ["x1", "x2"]
ONEREL_RELATOR = "x1^-1 x2^-1 x1 x2^2 x1^-1 x2^-1 x1^2 x2^-1 x1^-1 x2 x1^-1 x2 x1 x2^-1"


def onerel():
    return load_job(bundled_path("one_relator.json"))


def random_word(rng, ngens, length):
    return free_reduce([rng.choice([1, -1]) * rng.randint(1, ngens)
                        for _ in range(length)])


# -- words -------------------------------------------------------------------


def test_parse_and_render_words():
    w = parse_word("x1 x2^2 x1^-1", ONEREL_NAMES)
    assert w == (1, 2, 2, -1)
    assert word_to_str(w, ONEREL_NAMES) == "x1 x2^2 x1^-1"
    assert parse_word("", ONEREL_NAMES) == ()
    with pytest.raises(ValueError):
        parse_word("x3", ONEREL_NAMES)


def test_parse_word_round_trip_random():
    rng = random.Random(13)
    for _ in range(40):
        w = random_word(rng, 3, rng.randint(0, 12))
        names = ["a", "b", "c"]
        assert parse_word(word_to_str(w, names), names) == tuple(w)


def test_free_reduce():
    assert free_reduce([1, -1, 2]) == (2,)
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([1, 1, -1]) == (1,)


def test_invert_word_and_commutator():
    w = (1, 2, -1)
    assert invert_word(w) == (1, -2, -1)
    assert free_reduce(list(w) + list(invert_word(w))) == ()
    assert commutator((1,), (2,)) == (1, 2, -1, -2)


# -- presentations -----------------------------------------------------------


def test_presentation_shape():
    pres = onerel().presentation
    assert pres.names == ONEREL_NAMES
    assert pres.ngens == 2 and pres.nrels == 1
    assert pres.relators[0] == parse_word(ONEREL_RELATOR, ONEREL_NAMES)
    # the relator abelianizes to zero, so the exponent matrix vanishes
    assert pres.exponent_matrix() == [[0], [0]]


def test_abelianization_structure():
    pres = onerel().presentation
    assert AbelianEpi.from_abelianization(pres).vectors == [(1, 0), (0, 1)]
    assert abelianization(pres)[1] == []
    orb = build_orbifold(1, [2, 3])
    # z1 + z2 = 0, 2 z1 = 0, 3 z2 = 0 forces both torsion classes to die
    assert AbelianEpi.from_abelianization(orb).vectors == [(1, 0), (0, 1), (0, 0), (0, 0)]
    assert abelianization(orb)[1] == []


def test_abelianization_with_torsion():
    pres = Presentation(["x", "z"], [parse_word("z^2", ["x", "z"])])
    phi = AbelianEpi.from_abelianization(pres)
    assert phi.m == 1 and phi.vectors == [(1,), (0,)]
    # the torsion invariants that the character-homology oracle reads
    assert abelianization(pres) == (1, [2], [(1,), (0,)], [(0,), (1,)])


def test_abelianization_of_coprime_torsion():
    # <x1, x2 | x1^2, x2^3> has G_ab = Z/2 + Z/3; its Smith pivots are 2
    # and 3, and the invariant factors 1 and 6 are no coordinates
    pres = Presentation(["x1", "x2"], [(1, 1), (2, 2, 2)])
    assert abelianization(pres) == (0, [2, 3], [(), ()], [(1, 0), (0, 1)])
    # over F_7 the primitive 6th root 3 gives x1 -> 3^3 = 6, x2 -> 3^2 = 2;
    # the Fox images 1 + x1 and 1 + x2 + x2^2 vanish there, so d2 = 0,
    # d1 = (5, 1) has rank 1, and H_0 = 0, H_1 = 2 - 1 = 1
    triv = Representation.trivial(GF(7), 2)
    assert homology_dims_at_character(pres, triv, (), torsion_values=[6, 2]) == (0, 1)
    # x1 -> 1, x2 -> 2: the Fox image of x1^2 is 2, so d2 has rank 1
    assert homology_dims_at_character(pres, triv, (), torsion_values=[1, 2]) == (0, 0)


def test_abelianization_characters_kill_every_relator():
    # the oracle's coordinates are homomorphisms G -> Z and G -> Z/d, and
    # its orders multiply out to the torsion of G_ab (the nonzero Smith
    # invariant factors) for exponent matrices with mixed signs and ranks
    rng = random.Random(41)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        relators = []
        for _ in range(m):
            word = []
            for g in range(1, n + 1):
                e = rng.choice([0, 0, 1, -1, 2, -2, 3, -3, 4, 6])
                word += [g if e > 0 else -g] * abs(e)
            relators.append(tuple(word))
        pres = Presentation([f"x{g}" for g in range(1, n + 1)], relators)
        free_rank, orders, gen_free, gen_torsion = abelianization(pres)
        diag, _ = smith_normal_form(pres.exponent_matrix())
        assert free_rank == n - sum(1 for d in diag if d)
        assert math.prod(orders) == math.prod(d for d in diag if d)
        for rel in relators:
            for k in range(free_rank):
                assert sum((1 if x > 0 else -1) * gen_free[abs(x) - 1][k] for x in rel) == 0
            for k, d in enumerate(orders):
                assert sum((1 if x > 0 else -1) * gen_torsion[abs(x) - 1][k]
                           for x in rel) % d == 0


# -- Fox derivatives ---------------------------------------------------------


def test_fox_derivative_base_cases():
    assert fox_derivative((1,), 0) == {(): 1}
    assert fox_derivative((1,), 1) == {}
    assert fox_derivative((-1,), 0) == {(-1,): -1}
    # d(x1 x2)/dx2 = x1
    assert fox_derivative((1, 2), 1) == {(1,): 1}


def test_fox_product_rule():
    # d(uv) = du + u . dv, checked on random words
    rng = random.Random(29)
    for _ in range(30):
        u = random_word(rng, 2, rng.randint(0, 6))
        v = random_word(rng, 2, rng.randint(0, 6))
        uv = free_reduce(list(u) + list(v))
        for i in range(2):
            expect = dict(fox_derivative(u, i))
            for w, c in fox_derivative(v, i).items():
                key = free_reduce(list(u) + list(w))
                expect[key] = expect.get(key, 0) + c
            expect = {w: c for w, c in expect.items() if c}
            assert fox_derivative(uv, i) == expect


# -- representations ---------------------------------------------------------


def test_bundled_representations_satisfy_relators():
    job = onerel()
    pres = job.presentation
    for name in ("trivial", "s3", "reg_s3"):
        assert verify_representation(pres, job.representation(name))


def test_verify_representation_rejects():
    pres = Presentation(ONEREL_NAMES, [commutator((1,), (2,))])
    shear_swap = Representation(ZZ, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    assert not verify_representation(pres, shear_swap)


def test_presentation_and_representation_refusals():
    for letter in (0, 3, -3):
        with pytest.raises(ValueError, match=f"letter {letter} out of range"):
            Presentation(ONEREL_NAMES, [(1, letter)])
    with pytest.raises(ValueError, match="representation matrices must share one rank"):
        Representation(ZZ, [[[1]], [[1, 0], [0, 1]]])
    with pytest.raises(ValueError, match="a representation needs at least one generator"):
        Representation(ZZ, [])


def test_representation_word_image_is_multiplicative():
    job = onerel()
    rep = job.representation("s3")
    rng = random.Random(37)
    from troplex.linalg import smat_mul
    for _ in range(20):
        u = random_word(rng, 2, rng.randint(0, 6))
        v = random_word(rng, 2, rng.randint(0, 6))
        uv = free_reduce(list(u) + list(v))
        assert rep.word_image(uv) == smat_mul(ZZ, rep.word_image(u), rep.word_image(v))


def test_representation_over_conversion():
    rep = onerel().representation("s3")
    rep2 = rep.over(GF(2))
    assert rep2.ring == GF(2)
    assert rep2.mats[0] == [[1, 1], [1, 0]]
    with pytest.raises(ValueError):
        Representation(ZZ, [[[2]]])  # det 2 is not invertible over Z


def test_word_value_is_multiplicative():
    pres = onerel().presentation
    phi = AbelianEpi.from_abelianization(pres)
    rng = random.Random(43)
    for _ in range(10):
        u = random_word(rng, 2, rng.randint(0, 5))
        v = random_word(rng, 2, rng.randint(0, 5))
        uv = free_reduce(list(u) + list(v))
        assert phi.word_value(uv) == tuple(
            a + b for a, b in zip(phi.word_value(u), phi.word_value(v))
        )


def test_abelian_epi_values():
    pres = onerel().presentation
    phi = AbelianEpi.from_abelianization(pres)
    assert phi.m == 2
    assert phi.word_value((1,)) == (1, 0)
    assert phi.word_value((2,)) == (0, 1)
    assert phi.word_value(pres.relators[0]) == (0, 0)
    assert phi.word_value((1, 2, 2)) == (1, 2)
    # given vectors must kill every relator and map onto Z^m
    pres = Presentation(["x1", "x2"], [(1, 2, 2)])
    assert AbelianEpi(pres, [(2,), (-1,)]).word_value((1, 2)) == (1,)
    with pytest.raises(ValueError, match="does not kill every relator"):
        AbelianEpi(pres, [(1,), (0,)])
    with pytest.raises(ValueError, match="not surjective"):
        AbelianEpi(pres, [(4,), (-2,)])
    with pytest.raises(ValueError, match="one vector per generator"):
        AbelianEpi(pres, [(2,)])
    with pytest.raises(ValueError, match="share one length"):
        AbelianEpi(pres, [(2,), (-1, 0)])


# -- Alexander matrices ------------------------------------------------------


def test_untwisted_alexander_matrix_entries():
    """The two Fox derivative images, up to the canonical unit."""
    job = onerel()
    pres = job.presentation
    d2, d1 = alexander_matrices(pres, job.representation("trivial"))
    assert len(d2) == 1 and len(d2[0]) == 2
    # raw entries are t1^-1 t2^-1 (t1 - 1)(t2 - 1) and t1^-1 t2^-1 (t1 - 1)(1 - t1)
    assert d2[0][0].terms == {(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1}
    assert d2[0][1].terms == {(-1, -1): -1, (0, -1): 2, (1, -1): -1}
    assert render(canonical_associate(d2[0][0])) == "1 - t1 - t2 + t1*t2"
    assert render(canonical_associate(d2[0][1])) == "1 - 2*t1 + t1^2"
    # d1 stacks v(x_i) - 1
    assert d1[0][0].terms == {(1, 0): 1, (0, 0): -1}
    assert d1[1][0].terms == {(0, 1): 1, (0, 0): -1}


def test_twisted_alexander_matrix_entries():
    """Fox images under the rank-2 representation, frozen coefficientwise."""
    job = onerel()
    d2, d1 = alexander_matrices(job.presentation, job.representation("s3"))
    assert len(d2) == 2 and len(d2[0]) == 4
    expected = [
        [
            {(-1, -1): -1, (-1, 0): 1, (-1, 1): 2, (0, -1): 1, (0, 0): 1},
            {(-1, 0): -1, (-1, 1): -1},
            {(-1, -1): 1, (-1, 0): -1, (0, 0): -2, (1, -1): -1},
            {(-1, 0): 2, (0, -1): -1, (0, 0): 1, (1, -1): 1},
        ],
        [
            {(-1, -1): -1, (-1, 0): 1, (-1, 1): 1, (0, -1): 1},
            {(-1, -1): 1, (-1, 1): -2, (0, -1): -1, (0, 0): 1},
            {(-1, -1): 1, (-1, 0): -2, (0, -1): -1, (0, 0): -1},
            {(-1, -1): -1, (-1, 0): 1, (0, 0): -1, (1, -1): 1},
        ],
    ]
    for row, erow in zip(d2, expected):
        for entry, eterms in zip(row, erow):
            assert entry.terms == eterms


def all_bundled_pairs():
    job = onerel()
    pres = job.presentation
    pairs = [(pres, job.representation(n)) for n in ("trivial", "s3", "reg_s3")]
    for doc in ("orbifold_g2.json", "wraag_k4.json"):
        j = load_job(bundled_path(doc))
        pairs.append((j.presentation, j.representation("trivial")))
    return pairs


def test_fundamental_identity_all_bundled_pairs():
    """The composite d2 . d1 vanishes for every bundled pair."""
    for pres, rep in all_bundled_pairs():
        d2, d1 = alexander_matrices(pres, rep)
        prod = lmat_mul(d2, d1)
        assert all(entry.is_zero for row in prod for entry in row)


# -- the one-pass Fox matrix against the free Fox derivative -------------------


def specialize_fox(elem, rep, phi):
    """(sigma (x) phi) applied to a group-ring element {word: int}, one
    word image at a time: the oracle for alexander_matrices."""
    r = rep.rank
    nv = phi.m
    ring = rep.ring
    out = [[LaurentPoly.zero(ring, nv) for _ in range(r)] for _ in range(r)]
    for word, coeff in sorted(elem.items()):
        exps = phi.word_value(word)
        mat = rep.word_image(word)
        c = ring.from_int(coeff)
        for a in range(r):
            for b in range(r):
                entry = ring.mul(c, mat[a][b])
                if entry != 0:
                    out[a][b] = out[a][b] + LaurentPoly.monomial(ring, nv, exps, entry)
    return out


def fox_matrix_oracle(pres, rep, phi):
    """d2 built block by block from fox_derivative and specialize_fox."""
    r, n = rep.rank, pres.ngens
    d2 = [[None] * (n * r) for _ in range(pres.nrels * r)]
    for j, rel in enumerate(pres.relators):
        for i in range(n):
            block = specialize_fox(fox_derivative(rel, i), rep, phi)
            for a in range(r):
                for b in range(r):
                    d2[j * r + a][i * r + b] = block[a][b]
    return d2


FOX_RINGS = (ZZ, QQ, GF(2), GF(5))


def random_rep(rng, ring, ngens, rank):
    """Random invertible matrices; over Z products of elementary ones."""
    mats = []
    while len(mats) < ngens:
        if ring == ZZ:
            M = [[int(a == b) for b in range(rank)] for a in range(rank)]
            for _ in range(3):
                a, b = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
                if a == b:
                    M[a] = [-x for x in M[a]]
                else:
                    k = rng.choice((-2, -1, 1, 2))
                    M[a] = [x + k * y for x, y in zip(M[a], M[b])]
        elif ring == QQ:
            M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
                 for _ in range(rank)]
        else:
            M = [[ring.from_int(rng.randint(0, 4)) for _ in range(rank)]
                 for _ in range(rank)]
        try:
            mats.append(Representation(ring, [M]).mats[0])
        except ValueError:  # singular: draw again
            pass
    return Representation(ring, mats)


def balanced(word, ngens):
    """word followed by letters that cancel its exponent sums, unreduced."""
    out = list(word)
    for g in range(1, ngens + 1):
        e = sum((x == g) - (x == -g) for x in word)
        out += [-g if e > 0 else g] * abs(e)
    return tuple(out)


def fox_case(rng, ring, ngens, rank, words, custom_phi):
    """(pres, rep, phi): words as relators under the abelianization phi,
    or made balanced under a random surjection onto Z or Z^2."""
    if not custom_phi:
        pres = Presentation([f"x{g}" for g in range(1, ngens + 1)], words)
        return pres, random_rep(rng, ring, ngens, rank), None
    pres = Presentation([f"x{g}" for g in range(1, ngens + 1)],
                        [balanced(w, ngens) for w in words])
    m = rng.randint(1, min(2, ngens))
    # x1 -> e1 and x2 -> (k, 1) make phi onto; the rest are arbitrary
    vectors = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(ngens)]
    vectors[0] = (1,) + (0,) * (m - 1)
    if m == 2:
        vectors[1] = (vectors[1][0], 1)
    return pres, random_rep(rng, ring, ngens, rank), AbelianEpi(pres, vectors)


def assert_fox_matrices_match(pres, rep, phi):
    d2, _ = alexander_matrices(pres, rep, phi)
    if phi is None:
        phi = AbelianEpi.from_abelianization(pres)
    assert d2 == fox_matrix_oracle(pres, rep, phi)


def test_fox_matrices_match_the_oracle_seeded():
    rng = random.Random(71)
    for k in range(120):
        ring = FOX_RINGS[k % len(FOX_RINGS)]
        ngens, rank = rng.randint(1, 3), rng.randint(1, 3)
        words = [random_word(rng, ngens, rng.randint(0, 12))
                 for _ in range(rng.randint(0, 3))]
        assert_fox_matrices_match(*fox_case(rng, ring, ngens, rank, words, k % 2 == 1))
    job = onerel()
    for name in ("trivial", "s3", "reg_s3"):
        assert_fox_matrices_match(job.presentation, job.representation(name), None)


@st.composite
def fox_cases(draw):
    ngens = draw(st.integers(1, 3))
    letters = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    words = draw(st.lists(st.lists(letters, max_size=12).map(tuple), max_size=3))
    return fox_case(
        draw(st.randoms(use_true_random=False)), draw(st.sampled_from(FOX_RINGS)),
        ngens, draw(st.integers(1, 3)), words, draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(fox_cases())
def test_fox_matrices_match_the_oracle_property(case):
    assert_fox_matrices_match(*case)


# -- homology dimensions -----------------------------------------------------


def test_homology_dims_torus():
    torus = Presentation(["x", "y"], [commutator((1,), (2,))])
    triv = Representation.trivial(QQ, 2)
    assert homology_dims_at_character(torus, triv, (1, 1)) == (1, 2)
    assert homology_dims_at_character(torus, triv, (2, 3)) == (0, 0)
    assert homology_dims_at_character(torus, triv, (1, -1)) == (0, 0)


def test_homology_dims_input_validation():
    torus = Presentation(["x", "y"], [commutator((1,), (2,))])
    triv = Representation.trivial(QQ, 2)
    with pytest.raises(ValueError):
        homology_dims_at_character(torus, triv, (1,))
    with pytest.raises(ValueError):
        homology_dims_at_character(torus, triv, (0, 1))
    with pytest.raises(ValueError):
        homology_dims_at_character(torus, triv, (1, 1), torsion_values=[1])


def test_homology_dims_torsion_characters():
    pres = Presentation(["x", "z"], [parse_word("z^2", ["x", "z"])])
    triv = Representation.trivial(QQ, 2)
    d_plus = homology_dims_at_character(pres, triv, (1,), torsion_values=[1])
    assert d_plus == (1, 1)
    # at tau = -1 the Fox image of z^2, namely 1 + z, evaluates to zero,
    # so the relator contributes nothing and H_1 of the complex survives
    d_minus = homology_dims_at_character(pres, triv, (1,), torsion_values=[-1])
    assert d_minus == (0, 1)
    assert homology_dims_at_character(pres, triv, (2,), torsion_values=[1]) == (0, 0)
    with pytest.raises(ValueError):
        homology_dims_at_character(pres, triv, (1,), torsion_values=[2])


# -- builders ----------------------------------------------------------------


def test_build_orbifold():
    pres = build_orbifold(2, [])
    assert pres.names == ["x1", "y1", "x2", "y2"]
    assert pres.nrels == 1
    assert pres.exponent_matrix() == [[0], [0], [0], [0]]
    pres = build_orbifold(1, [2, 3])
    assert pres.names == ["x1", "y1", "z1", "z2"]
    assert [word_to_str(r, pres.names) for r in pres.relators] == [
        "x1 y1 x1^-1 y1^-1 z1 z2", "z1^2", "z2^3",
    ]
    with pytest.raises(ValueError):
        build_orbifold(-1, [])
    with pytest.raises(ValueError):
        build_orbifold(1, [0])


def test_build_weighted_raag():
    pres = build_weighted_raag(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1),
                                   (2, 3, 2), (2, 4, 2), (3, 4, 2)])
    assert pres.names == ["a1", "a2", "a3", "a4"]
    assert pres.nrels == 6
    # the weight-2 edge squares the commutator
    rel = pres.relators[3]
    comm = commutator((2,), (3,))
    assert rel == tuple(comm) * 2
    with pytest.raises(ValueError):
        build_weighted_raag(3, [(0, 1, 1)])  # vertices are 1-based
    with pytest.raises(ValueError):
        build_weighted_raag(3, [(1, 1, 1)])  # no loops
    with pytest.raises(ValueError):
        build_weighted_raag(3, [(1, 2, 0)])  # weights are positive


def test_build_product():
    a = Presentation(["x"], [])
    torus = build_product(a, a)
    assert torus.names == ["x", "x'"]
    assert torus.relators == [commutator((1,), (2,))]
    job = onerel()
    prod = build_product(job.presentation, a)
    assert prod.names == ["x1", "x2", "x"]
    assert prod.nrels == 3  # one inherited relator + two mixed commutators
    phi = AbelianEpi.from_abelianization(prod)
    assert phi.m == 3
    assert phi.vectors == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# -- permutation helpers -----------------------------------------------------


def closure_size(perms):
    return len(_closure([tuple(p) for p in perms], _perm_mul, tuple(range(len(perms[0])))))


def trace_of(rep, word):
    mat = rep.word_image(word)
    return sum(mat[i][i] for i in range(rep.rank))


def test_permutation_helpers():
    assert closure_size([[1, 2, 0], [1, 0, 2]]) == 6  # 3-cycle and swap generate S_3
    assert closure_size([[1, 0]]) == 2


def test_regular_representation_z2():
    pres = onerel().presentation
    # both generators map to the swap; the relator has zero exponent sum
    reg = regular_representation(pres, [[1, 0], [1, 0]], ring=QQ)
    assert reg.rank == 2
    assert verify_representation(pres, reg)
    # character of the regular representation: group order at 1, zero elsewhere
    assert trace_of(reg, ()) == 2
    assert trace_of(reg, (1,)) == 0
    assert trace_of(reg, (1, 2)) == 2


def test_regular_representation_s3():
    job = onerel()
    pres = job.presentation
    reg = regular_representation(pres, [[1, 2, 0], [1, 0, 2]])
    assert reg.rank == 6
    assert verify_representation(pres, reg)
    assert trace_of(reg, ()) == 6
    assert trace_of(reg, (1,)) == 0
    # matches the bundled copy
    assert reg.mats == job.representation("reg_s3").mats


def test_regular_representation_validation(monkeypatch):
    pres = onerel().presentation
    with pytest.raises(ValueError):
        regular_representation(pres, [[1, 0], [0, 2]])  # not a permutation
    with pytest.raises(ValueError):
        regular_representation(pres, [[1, 0]])  # one permutation per generator
    monkeypatch.setenv("TROPLEX_MAX_QUOTIENT", "5")
    with pytest.raises(ValueError):
        # closure capped below the group order
        regular_representation(pres, [[1, 2, 0], [1, 0, 2]])
