"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS line when
its checks (all exact, no tolerances) go through; run with -s to see them.
The whole file is expected to finish in well under a minute.
"""

import random
from fractions import Fraction

from oracles import (
    cell_contains, complex_contains, homology_dims_at_character, lmat_mul, vertices,
)
from troplex.bnsreport import assemble_bound, brown_one_relator, compare_fixture
from troplex.fpgroup import (
    Presentation, Representation, alexander_matrices, build_orbifold,
    build_product, build_weighted_raag, regular_representation,
)
from troplex.jobspec import bundled_path, load_job
from troplex.jumploci import (
    jump_ideal, kahler_obstruction, novikov_admissible, twisted_alexander,
)
from troplex.laurent import (
    LaurentPoly, canonical_associate, exact_div, laurent_gcd, map_coefficients,
    render,
)
from troplex.linalg import smat_mul
from troplex.rings import ZZ, QQ, GF, TRIVIAL, padic
from troplex.sphere import SphereArcSet
from troplex.tropical import (
    union_over_valuations, sphere_projection, trop_contains, trop_hypersurface,
    trop_Z_contains, trop_Z_principal, tropicalize,
)


def onerel_job():
    return load_job(bundled_path("one_relator.json"))


def V(i):
    return LaurentPoly.var(ZZ, 2, i)


ONE = LaurentPoly.one(ZZ, 2)
QUADRIC = (ONE - V(0)) * (ONE - V(0)) - V(1) * V(1) * 3


def report(n, text):
    print(f"criterion {n}: PASS - {text}", flush=True)


def rand_point(rng, span=10, den=6):
    return (Fraction(rng.randint(-span, span), rng.randint(1, den)),
            Fraction(rng.randint(-span, span), rng.randint(1, den)))


def test_criterion_1_untwisted_running_example():
    job = onerel_job()
    pres = job.presentation
    triv = job.representation("trivial")
    d2, d1 = alexander_matrices(pres, triv)
    assert len(d2) == 1 and len(d2[0]) == 2 and len(d1) == 2

    unit = LaurentPoly.monomial(ZZ, 2, (-1, -1), 1)
    common = V(0) - ONE
    targets = [unit * common * (V(1) - ONE), unit * common * (ONE - V(0))]
    for entry, target in zip(d2[0], targets):
        assert canonical_associate(entry) == canonical_associate(target)

    J1 = jump_ideal(pres, triv, i=1)
    g = J1.gcd()
    assert g == canonical_associate(V(0) - ONE)
    assert render(g) == "1 - t1"

    T = trop_Z_principal(g)
    assert sorted((c.kind, c.base, c.dir) for c in T.cells) == [
        ("ray", (Fraction(0), Fraction(0)), (0, -1)),
        ("ray", (Fraction(0), Fraction(0)), (0, 1)),
    ]
    rng = random.Random(201)
    for _ in range(50):
        w = rand_point(rng)
        assert complex_contains(T, w) == (w[0] == 0)

    assert sphere_projection(T) == SphereArcSet.points([(0, 1), (0, -1)])
    report(1, "untwisted Fox matrix, gcd t1 - 1, the line w1 = 0, two antipodal points")


def test_criterion_2_twisted_gcd():
    job = onerel_job()
    J1 = jump_ideal(job.presentation, job.representation("s3"), i=1)
    assert J1.gcd() == canonical_associate(QUADRIC)
    assert render(J1.gcd()) == "1 - 2*t1 + t1^2 - 3*t2^2"
    report(2, "rank-2 twisted gcd equals (1 - t1)^2 - 3 t2^2")


def _figures():
    q = LaurentPoly(QQ, 2, QUADRIC.terms)
    return [
        ("trivial/Q", q, TRIVIAL),
        ("2-adic/Q", q, padic(2)),
        ("3-adic/Q", q, padic(3)),
        ("trivial/F2", map_coefficients(QUADRIC, GF(2)), TRIVIAL),
        ("trivial/F3", map_coefficients(QUADRIC, GF(3)), TRIVIAL),
    ]


def test_criterion_3_figure_reproduction():
    q = LaurentPoly(QQ, 2, QUADRIC.terms)
    origin = (Fraction(0), Fraction(0))

    T = trop_hypersurface(q, TRIVIAL)
    assert sorted((c.kind, c.base, c.dir) for c in T.cells) == [
        ("ray", origin, (-1, -1)), ("ray", origin, (0, 1)), ("ray", origin, (1, 0))]

    T = trop_hypersurface(map_coefficients(QUADRIC, GF(3)), TRIVIAL)
    assert sorted((c.kind, c.base, c.dir) for c in T.cells) == [
        ("ray", origin, (0, -1)), ("ray", origin, (0, 1))]

    T = trop_hypersurface(q, padic(3))
    low = (Fraction(0), Fraction(-1, 2))
    assert vertices(T) == [low]
    assert sorted((c.kind, c.base, c.dir) for c in T.cells) == [
        ("ray", low, (-1, -1)), ("ray", low, (0, 1)), ("ray", low, (1, 0))]

    TZ = trop_Z_principal(QUADRIC)
    rays = sorted((c.base, c.dir) for c in TZ.cells if c.kind == "ray")
    assert rays == [(origin, (-1, -1)), (origin, (0, 1)), (origin, (1, 0))]
    cones = [c for c in TZ.cells if c.kind == "cone2"]
    assert len(cones) == 1
    rng = random.Random(203)
    for _ in range(100):
        w = rand_point(rng)
        assert cell_contains(cones[0], w) == (2 * w[1] <= min(0, w[0], 2 * w[0]))
    for _ in range(100):
        chi = (rng.randint(-8, 8), rng.randint(-8, 8))
        if chi == (0, 0):
            continue
        assert complex_contains(TZ, chi) == trop_Z_contains(QUADRIC, chi)

    for name, f, val in _figures():
        T = trop_hypersurface(f, val)
        for _ in range(100):
            w = rand_point(rng)
            assert complex_contains(T, w) == trop_contains(f, val, w), (name, w)
    report(3, "all five valued figures plus the integral fan, membership oracle agrees")


def test_criterion_4_sigma_bound_equals_fixture():
    fx = brown_one_relator()
    comps = sorted(fx.arcs.components)
    assert [c[0] for c in comps] == ["arc", "arc"]
    dirs = {d for c in comps for d in (c[1], c[2])}
    assert dirs == {(1, 0), (0, 1), (-1, -1)}
    assert all(not c[3] and not c[4] for c in comps)  # open at both ends

    job = onerel_job()
    rp = assemble_bound(job.presentation, [
        ("s3", job.representation("s3"), "Z"),
        ("trivial", job.representation("trivial"), "Z"),
    ])
    c = compare_fixture(rp, fx)
    assert c.kind == "Equal"
    assert rp.complement == fx.arcs

    weak = assemble_bound(job.presentation,
                          [("trivial", job.representation("trivial"), "Z")])
    assert compare_fixture(weak, fx).kind == "BoundWeaker"
    report(4, "integral bound complement matches the known invariant; untwisted alone is weaker")


def test_criterion_5_five_valuation_union():
    rp = union_over_valuations([QUADRIC])
    assert len(rp.entries) == 5 and rp.primes == [2, 3]
    assert rp.sphere_union == sphere_projection(trop_Z_principal(QUADRIC))

    w = (1, -1)
    assert trop_Z_contains(QUADRIC, w)
    settings = [("trivial over Q", QUADRIC, TRIVIAL)]
    for p in rp.primes:
        settings += [(f"{p}-adic over Q", QUADRIC, padic(p)),
                     (f"trivial over F_{p}", map_coefficients(QUADRIC, GF(p)), TRIVIAL)]
    assert [label for label, _, _ in settings] == [e.label for e in rp.entries]
    for (label, f, valuation), e in zip(settings, rp.entries):
        T = tropicalize(f, valuation)
        assert e.arcs == sphere_projection(T), label
        assert not complex_contains(T, w), label
    report(5, "union over five valuations equals the integral sphere set; "
              "(1,-1) is integral-only before projection")


def test_criterion_6_orbifold_table():
    for mu in ([], [3]):
        orb = build_orbifold(2, mu)
        v = twisted_alexander(orb, Representation.trivial(QQ, orb.ngens))
        assert v.is_zero
    v = twisted_alexander(build_orbifold(1, [2, 3]), Representation.trivial(QQ, 4))
    assert v.describe() == "1"
    v = twisted_alexander(build_orbifold(1, [2]), Representation.trivial(GF(2), 3))
    assert v.is_zero
    report(6, "orbifold polynomials: genus 2 vanishes, (1,[2,3]) over Q is 1, "
              "(1,[2]) over F_2 vanishes")


def test_criterion_7_obstruction_examples():
    wr = load_job(bundled_path("wraag_k4.json"))
    vq = twisted_alexander(wr.presentation, wr.representation("trivial").over(QQ),
                           squarefree=True)
    assert vq.describe() == "1"
    assert kahler_obstruction([vq]).consistent
    vf2 = twisted_alexander(wr.presentation, wr.representation("trivial").over(GF(2)),
                            squarefree=True)
    assert render(vf2.delta_poly()) == "1 + t1"  # the associate of t1 - 1 over F_2
    out = kahler_obstruction([vq, vf2])
    assert not out.consistent and out.witnesses == [vf2]
    assert out.witnesses[0].ring.tag() == "fp:2"

    g3 = build_weighted_raag(3, [(1, 2, 13), (1, 3, 13), (2, 3, 13)])
    vq = twisted_alexander(g3, Representation.trivial(QQ, 3), squarefree=True)
    assert vq.describe() == "1"
    v13 = twisted_alexander(g3, Representation.trivial(GF(13), 3), squarefree=True)
    assert v13.is_zero
    assert kahler_obstruction([vq, v13]).consistent
    report(7, "weighted Artin group fails the obstruction mod 2; "
              "the weight-13 triangle stays consistent")


def _bundled_pairs():
    job = onerel_job()
    pairs = [(job.presentation, job.representation(n))
             for n in ("trivial", "s3", "reg_s3")]
    for doc in ("orbifold_g2.json", "wraag_k4.json"):
        j = load_job(bundled_path(doc))
        pairs.append((j.presentation, j.representation("trivial")))
    return pairs


def _dims(pres, chi):
    rep = Representation.trivial(QQ, pres.ngens)
    return homology_dims_at_character(pres, rep, tuple(Fraction(x) for x in chi))


def test_criterion_8_property_suites():
    # differential composes to zero for every bundled pair
    for pres, rep in _bundled_pairs():
        d2, d1 = alexander_matrices(pres, rep)
        assert all(e.is_zero for row in lmat_mul(d2, d1) for e in row)

    # product homology is the degree-wise convolution of the factors
    free1 = Presentation(["x"], [])
    job = onerel_job()
    products = [
        (free1, free1, [(1, 1), (2, 3), (1, -1), (5, 1), (1, 7)]),
        (job.presentation, free1,
         [(1, 1, 1), (1, 1, 2), (3, 1, 1), (2, 1, 1), (1, 2, 1)]),
    ]
    for a, b, chars in products:
        prod = build_product(a, b)
        for chi in chars:
            da = _dims(a, chi[:a.ngens])
            db = _dims(b, chi[a.ngens:])
            dp = _dims(prod, chi)
            assert dp[0] == da[0] * db[0]
            assert dp[1] == da[0] * db[1] + da[1] * db[0], chi

    # induced regular representations decompose like their quotients
    chars = [(1, 1), (2, 1), (1, 2), (Fraction(2, 3), 5), (-1, Fraction(7, 2))]
    pres = job.presentation
    trivQ = Representation.trivial(QQ, 2)
    reg2 = regular_representation(pres, [[1, 0], [1, 0]], ring=QQ)
    sign2 = Representation(QQ, [[[-1]], [[-1]]])
    reg6 = job.representation("reg_s3").over(QQ)
    s3 = job.representation("s3").over(QQ)
    sign = Representation(QQ, [[[1]], [[-1]]])
    saw_jump = False
    for chi in chars:
        chi = tuple(Fraction(x) for x in chi)
        t = homology_dims_at_character(pres, trivQ, chi)
        assert homology_dims_at_character(pres, reg2, chi) == tuple(
            x + y for x, y in zip(t, homology_dims_at_character(pres, sign2, chi)))
        d6 = homology_dims_at_character(pres, reg6, chi)
        dsg = homology_dims_at_character(pres, sign, chi)
        d2d = homology_dims_at_character(pres, s3, chi)
        assert d6 == tuple(a + b + 2 * c for a, b, c in zip(t, dsg, d2d))
        saw_jump = saw_jump or any(d6)
    assert saw_jump

    # complex membership equals the initial-form oracle, 100 points per figure
    rng = random.Random(205)
    for name, f, val in _figures():
        T = trop_hypersurface(f, val)
        for _ in range(100):
            w = rand_point(rng)
            assert complex_contains(T, w) == trop_contains(f, val, w), (name, w)

    # gcd divides both arguments; canonical form is idempotent
    for ring in (ZZ, GF(7)):
        for _ in range(25):
            terms = lambda: {
                tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(1, 6)
                for _ in range(rng.randint(1, 3))}
            a = LaurentPoly(ring, 2, {e: ring.check(c % 7 if ring != ZZ else c)
                                      for e, c in terms().items()})
            b = LaurentPoly(ring, 2, {e: ring.check(c % 7 if ring != ZZ else c)
                                      for e, c in terms().items()})
            if a.is_zero or b.is_zero:
                continue
            d = laurent_gcd(a, b)
            assert exact_div(a, d) is not None
            assert exact_div(b, d) is not None
            assert canonical_associate(d) == d
            assert canonical_associate(canonical_associate(a)) == canonical_associate(a)

    # completion admissibility: three yes routes and a genuine counterexample
    s3z = job.representation("s3")
    assert novikov_admissible(s3z, TRIVIAL).condition == "a"
    assert novikov_admissible(s3z, padic(3)).condition == "c"
    D = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1)]]
    Dinv = [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1)]]
    conj = Representation(QQ, [
        smat_mul(QQ, smat_mul(QQ, D, [[Fraction(x) for x in row] for row in m]), Dinv)
        for m in s3z.mats])
    assert not novikov_admissible(conj, padic(3)).ok
    assert novikov_admissible(conj, padic(3), check_finite_image=True).condition == "b"
    bad = Representation(QQ, [[[Fraction(3), 0], [0, Fraction(1, 3)]]])
    assert not novikov_admissible(bad, padic(3), check_finite_image=True).ok

    report(8, "chain identity, product homology, induced-representation sums, "
              "oracle agreement, gcd laws, admissibility routes")
