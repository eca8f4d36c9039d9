import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cell_contains, complex_contains, contains, edge_supports_by_scan, on_edge, vertices,
)
from troplex import tropical
from troplex.laurent import LaurentPoly, map_coefficients
from troplex.rings import ZZ, QQ, GF, TRIVIAL, padic
from troplex.tropical import (
    Cell, cell_weight, full_plane_complex,
    trop_contains, trop_hypersurface, trop_Z_contains, trop_Z_principal,
    sphere_projection, tropicalize, union_over_valuations,
)
from troplex.sphere import SphereArcSet

# the running example: (1 - t1)^2 - 3 t2^2, integral coefficients
QUADRIC = LaurentPoly(ZZ, 2, {(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): -3})
QUADRIC_Q = LaurentPoly(QQ, 2, QUADRIC.terms)


def cell_data(T):
    return sorted((c.kind, c.base, c.dir, c.dir2, c.label) for c in T.cells)


def F(x):
    return Fraction(x)


# -- hypersurfaces over valued fields -----------------------------------------


def test_quadric_trivial_valuation():
    T = trop_hypersurface(QUADRIC_Q, TRIVIAL)
    assert cell_data(T) == [
        ("ray", (F(0), F(0)), (-1, -1), None, ((0, 2), (2, 0))),
        ("ray", (F(0), F(0)), (0, 1), None, ((0, 0), (1, 0), (2, 0))),
        ("ray", (F(0), F(0)), (1, 0), None, ((0, 0), (0, 2))),
    ]
    assert all(cell_weight(c) == 2 for c in T.cells)
    assert vertices(T) == [(F(0), F(0))]
    # balancing: weighted primitive directions cancel
    total = [0, 0]
    for c in T.cells:
        w = cell_weight(c)
        total[0] += w * c.dir[0]
        total[1] += w * c.dir[1]
    assert total == [0, 0]


def test_quadric_3adic():
    T = trop_hypersurface(QUADRIC_Q, padic(3))
    base = (F(0), Fraction(-1, 2))
    assert cell_data(T) == [
        ("ray", base, (-1, -1), None, ((0, 2), (2, 0))),
        ("ray", base, (0, 1), None, ((0, 0), (1, 0), (2, 0))),
        ("ray", base, (1, 0), None, ((0, 0), (0, 2))),
    ]
    assert vertices(T) == [base]
    assert complex_contains(T, base)
    assert complex_contains(T, (F(0), F(40)))
    assert not complex_contains(T, (F(1), F(0)))


def test_quadric_2adic_matches_mod2_shape():
    T2 = trop_hypersurface(QUADRIC_Q, padic(2))
    F2 = trop_hypersurface(map_coefficients(QUADRIC, GF(2)), TRIVIAL)
    # the -2 coefficient disappears either way; same cells and labels
    expected = [
        ("ray", (F(0), F(0)), (-1, -1), None, ((0, 2), (2, 0))),
        ("ray", (F(0), F(0)), (0, 1), None, ((0, 0), (2, 0))),
        ("ray", (F(0), F(0)), (1, 0), None, ((0, 0), (0, 2))),
    ]
    assert cell_data(T2) == expected
    assert cell_data(F2) == expected


def test_quadric_mod3_line():
    T = trop_hypersurface(map_coefficients(QUADRIC, GF(3)), TRIVIAL)
    label = ((0, 0), (1, 0), (2, 0))
    assert cell_data(T) == [
        ("ray", (F(0), F(0)), (0, -1), None, label),
        ("ray", (F(0), F(0)), (0, 1), None, label),
    ]
    # two antipodal rays form a line; no vertex survives
    assert vertices(T) == []
    assert complex_contains(T, (F(0), F(17)))
    assert not complex_contains(T, (F(1), F(0)))


def test_hypersurface_input_validation():
    with pytest.raises(ValueError):
        trop_hypersurface(LaurentPoly.zero(QQ, 2), TRIVIAL)
    with pytest.raises(ValueError):
        trop_hypersurface(map_coefficients(QUADRIC, GF(2)), padic(2))
    f3 = LaurentPoly.one(QQ, 3) + LaurentPoly.var(QQ, 3, 0)
    with pytest.raises(ValueError):
        trop_hypersurface(f3, TRIVIAL)
    # a monomial has empty tropical set
    T = trop_hypersurface(LaurentPoly.monomial(QQ, 2, (2, -1), Fraction(5)), TRIVIAL)
    assert T.cells == []
    assert not complex_contains(T, (F(0), F(0)))


def test_tie_line_clipped_away_by_other_terms():
    """Terms 0 and 1 tie on the line w1 = 0.  A term lower on all of it, or
    two terms that each win one side of it, leave no cell."""
    tie = [((0, 0), 0), ((1, 0), 0)]
    assert len(tropical._clip_tie_line(tie, 0, 1, (-1, 0), 0)) == 2  # the whole line
    assert tropical._clip_tie_line(tie + [((2, 0), -5)], 0, 1, (-1, 0), 0) == []
    sides = [((0, 1), -1), ((0, -1), -1)]
    assert tropical._clip_tie_line(tie + sides, 0, 1, (-1, 0), 0) == []


def test_univariate_newton_polygon():
    # (t - 1)(t - 3): 3-adic roots have valuations 0 and 1
    f = LaurentPoly(QQ, 1, {(0,): 3, (1,): -4, (2,): 1})
    T = trop_hypersurface(f, padic(3))
    assert cell_data(T) == [
        ("vertex", (F(0),), None, None, ((1,), (2,))),
        ("vertex", (F(1),), None, None, ((0,), (1,))),
    ]
    assert all(cell_weight(c) == 1 for c in T.cells)
    # t^2 - 9: double root valuation 1, weight 2
    g = LaurentPoly(QQ, 1, {(0,): -9, (2,): 1})
    T = trop_hypersurface(g, padic(3))
    assert cell_data(T) == [("vertex", (F(1),), None, None, ((0,), (2,)))]
    assert cell_weight(T.cells[0]) == 2
    with pytest.raises(ValueError, match="cell label has no extent"):
        cell_weight(Cell("vertex", (0,), label=[(1,)]))
    with pytest.raises(ValueError, match="degenerate label"):
        cell_weight(Cell("vertex", (0,), label=[(1,), (1,)]))


def test_oracle_agreement_100_points_per_figure():
    """Membership in the cell complex equals the initial-form oracle."""
    figures = [
        (QUADRIC_Q, TRIVIAL),
        (QUADRIC_Q, padic(2)),
        (QUADRIC_Q, padic(3)),
        (map_coefficients(QUADRIC, GF(2)), TRIVIAL),
        (map_coefficients(QUADRIC, GF(3)), TRIVIAL),
    ]
    rng = random.Random(101)
    for f, val in figures:
        T = trop_hypersurface(f, val)
        hits = 0
        for _ in range(100):
            if rng.random() < 0.5:
                # bias toward the skeleton: perturb along cell parameters
                c = rng.choice(T.cells)
                t = Fraction(rng.randint(0, 8), rng.randint(1, 4))
                if c.kind == "vertex":
                    w = c.base
                elif c.kind == "ray":
                    w = tuple(b + t * d for b, d in zip(c.base, c.dir))
                else:
                    w = c.base
                if rng.random() < 0.3:
                    w = (w[0] + Fraction(rng.randint(-2, 2), 3), w[1])
            else:
                w = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                     Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
            member = trop_contains(f, val, w)
            assert complex_contains(T, w) == member, (val, w)
            hits += member
        assert hits > 0  # the sample really exercises both sides


def test_product_initial_forms_multiply():
    # w lies in the tropical set of fg iff it lies in that of f or of g
    rng = random.Random(103)
    t1 = LaurentPoly.var(QQ, 2, 0)
    t2 = LaurentPoly.var(QQ, 2, 1)
    one = LaurentPoly.one(QQ, 2)
    polys = [one + t1, one + t2, QUADRIC_Q, one + t1 * 3 + t2 * 9]
    for val in (TRIVIAL, padic(3)):
        for _ in range(40):
            f, g = rng.choice(polys), rng.choice(polys)
            w = (Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            assert trop_contains(f * g, val, w) == (
                trop_contains(f, val, w) or trop_contains(g, val, w)
            )


# -- integral tropicalization --------------------------------------------------


def test_quadric_integral_fan():
    T = trop_Z_principal(QUADRIC)
    assert cell_data(T) == [
        ("cone2", (F(0), F(0)), (-1, -1), (1, 0), ((0, 2),)),
        ("ray", (F(0), F(0)), (-1, -1), None, ((0, 2), (2, 0))),
        ("ray", (F(0), F(0)), (0, 1), None, ((0, 0), (1, 0), (2, 0))),
        ("ray", (F(0), F(0)), (1, 0), None, ((0, 0), (0, 2))),
    ]


def test_integral_fan_two_cell_matches_inequalities():
    # the 2-cell is exactly {2 w2 <= min(0, w1, 2 w1)}
    T = trop_Z_principal(QUADRIC)
    cone = next(c for c in T.cells if c.kind == "cone2")
    rng = random.Random(107)
    for _ in range(200):
        w = (Fraction(rng.randint(-12, 12), rng.randint(1, 3)),
             Fraction(rng.randint(-12, 12), rng.randint(1, 3)))
        inside = 2 * w[1] <= min(0, w[0], 2 * w[0])
        assert cell_contains(cone, w) == inside, w


def test_integral_membership_oracle():
    T = trop_Z_principal(QUADRIC)
    rng = random.Random(109)
    assert trop_Z_contains(QUADRIC, (1, -1)) and complex_contains(T, (1, -1))
    for _ in range(150):
        chi = (rng.randint(-6, 6), rng.randint(-6, 6))
        if chi == (0, 0):
            continue
        assert complex_contains(T, chi) == trop_Z_contains(QUADRIC, chi), chi


def test_integral_fan_of_linear_poly():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    T = trop_Z_principal(t1 - 1)
    label = ((0, 0), (1, 0))
    assert cell_data(T) == [
        ("ray", (F(0), F(0)), (0, -1), None, label),
        ("ray", (F(0), F(0)), (0, 1), None, label),
    ]
    assert all(cell_weight(c) == 1 for c in T.cells)
    assert sphere_projection(T) == SphereArcSet.points([(0, 1), (0, -1)])


def test_integral_fan_degenerate_supports():
    one = LaurentPoly.one(ZZ, 2)
    t1 = LaurentPoly.var(ZZ, 2, 0)
    # non-unit constant: everything
    T = trop_Z_principal(one * 2)
    assert cell_data(T) == cell_data(full_plane_complex()) and complex_contains(T, (3, -5))
    # unit monomial: nothing
    T = trop_Z_principal(t1.shift((0, 1)))
    assert T.cells == []
    # zero: everything
    T = trop_Z_principal(LaurentPoly.zero(ZZ, 2))
    assert sphere_projection(T).full
    # collinear support with unit extremes: the perpendicular line only
    T = trop_Z_principal(one + t1 * t1)
    assert [c.kind for c in T.cells] == ["ray", "ray"]
    assert cell_weight(T.cells[0]) == 2
    # non-unit extreme coefficient widens the line to a halfplane
    T = trop_Z_principal(one * 2 + t1)
    kinds = sorted(c.kind for c in T.cells)
    assert kinds == ["cone2", "cone2", "ray", "ray"]
    for w in [(2, 5), (2, -5), (0, 1), (Fraction(1, 2), 0)]:
        assert complex_contains(T, w)
    assert not complex_contains(T, (-1, 0))
    with pytest.raises(ValueError):
        trop_Z_principal(QUADRIC_Q)  # integral tropicalization needs Z


def test_integral_fan_of_a_diagonal_segment():
    # 2 + 3 t1 t2: both ends are non-units, so each one's half plane is
    # split into two salient cones at the normal turned a quarter turn
    f = LaurentPoly(ZZ, 2, {(0, 0): 2, (1, 1): 3})
    T = trop_Z_principal(f)
    ends = ((0, 0), (1, 1))
    assert cell_data(T) == [
        ("cone2", (F(0), F(0)), (-1, -1), (1, -1), ((1, 1),)),
        ("cone2", (F(0), F(0)), (-1, 1), (-1, -1), ((1, 1),)),
        ("cone2", (F(0), F(0)), (1, -1), (1, 1), ((0, 0),)),
        ("cone2", (F(0), F(0)), (1, 1), (-1, 1), ((0, 0),)),
        ("ray", (F(0), F(0)), (-1, 1), None, ends),
        ("ray", (F(0), F(0)), (1, -1), None, ends),
    ]
    assert sphere_projection(T).full


def test_integral_fan_of_segments_matches_the_oracle():
    rng = random.Random(113)
    for _ in range(200):
        d = (rng.randint(-2, 2), rng.randint(-2, 2))
        if d == (0, 0):
            continue
        terms = {(k * d[0] + 1, k * d[1] - 1): rng.choice([1, -1, 2, -3])
                 for k in rng.sample(range(4), rng.randint(2, 4))}
        f = LaurentPoly(ZZ, 2, terms)
        T = trop_Z_principal(f)
        for _ in range(10):
            chi = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert complex_contains(T, chi) == trop_Z_contains(f, chi), (terms, chi)


@st.composite
def _supports_with_collinear_points(draw):
    """Integer polynomials in two variables whose support holds a run of
    points on one line, plus a few more points on a small grid."""
    base = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    step = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    ks = draw(st.sets(st.integers(-2, 3), min_size=2, max_size=5))
    points = {(base[0] + k * step[0], base[1] + k * step[1]) for k in ks}
    points |= draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5))
    coeffs = st.sampled_from([1, -1, 2, -3])
    return LaurentPoly(ZZ, 2, {u: draw(coeffs) for u in points})


@settings(max_examples=200, deadline=None)
@given(_supports_with_collinear_points())
def test_integral_fan_edge_labels_match_the_segment_scan(f):
    """Each ray's label, the support on its hull edge, found by level
    under the inward normal, is the support that lies on the edge's
    segment."""
    T = trop_Z_principal(f)
    labels = {c.dir: c.label for c in T.cells if c.kind == "ray"}
    assert labels == edge_supports_by_scan(f)


_random_supports = st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=2, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_supports_with_collinear_points().map(lambda f: set(f.terms)),
                 _random_supports))
def test_edge_chain_keeps_the_support_on_the_segment(points):
    """_edge_chain keeps the points collinear with [p, q]; on a hull edge,
    or across a collinear support, they are the points on the segment."""
    support = sorted(points)
    hull = tropical._convex_hull(support)
    edges = [hull] if len(hull) == 2 else zip(hull, hull[1:] + hull[:1])
    for p, q in edges:
        e = (q[0] - p[0], q[1] - p[1])
        pos = lambda u: (u[0] - p[0]) * e[0] + (u[1] - p[1]) * e[1]
        # heights on a parabola along the edge put every point on its lower chain
        chain = tropical._edge_chain([(u, pos(u) ** 2) for u in support], p, q)
        assert [u for _, _, u in chain] == sorted(
            (u for u in support if on_edge(p, q, u)), key=pos)


def test_tropicalize_dispatch():
    assert cell_data(tropicalize(QUADRIC, "Z")) == cell_data(trop_Z_principal(QUADRIC))
    assert cell_data(tropicalize(QUADRIC_Q, padic(3))) == cell_data(
        trop_hypersurface(QUADRIC_Q, padic(3)))
    for mode in ("Z", TRIVIAL):
        T = tropicalize(LaurentPoly.zero(ZZ, 2), mode)
        assert cell_data(T) == cell_data(full_plane_complex())
        # a unit monomial is empty in any rank
        assert tropicalize(LaurentPoly.monomial(ZZ, 4, (1, 0, -2, 3), -1), mode).cells == []
    # other cells stop at the plane and point to the membership test
    f3 = LaurentPoly.one(ZZ, 3) + LaurentPoly.var(ZZ, 3, 0)
    for mode in ("Z", TRIVIAL):
        with pytest.raises(ValueError, match="trop --contains"):
            tropicalize(f3, mode)
    with pytest.raises(ValueError, match="trop --contains"):
        tropicalize(LaurentPoly.monomial(ZZ, 3, (1, 0, 0), 2), "Z")


def test_full_plane_complex():
    T = full_plane_complex()
    assert [(c.kind, c.dir, c.dir2) for c in T.cells] == [
        ("cone2", (1, 0), (0, 1)), ("cone2", (0, 1), (-1, 0)),
        ("cone2", (-1, 0), (0, -1)), ("cone2", (0, -1), (1, 0)),
    ]
    assert sphere_projection(T).full
    for w in [(0, 0), (5, -3), (Fraction(-7, 2), Fraction(1, 3))]:
        assert complex_contains(T, w)
    with pytest.raises(ValueError):
        full_plane_complex(3)


# -- projections ----------------------------------------------------------------


def test_sphere_projection_of_figures():
    S_triv = sphere_projection(trop_hypersurface(QUADRIC_Q, TRIVIAL))
    assert S_triv == SphereArcSet.points([(1, 0), (0, 1), (-1, -1)])
    S_z = sphere_projection(trop_Z_principal(QUADRIC))
    expected = SphereArcSet.point((0, 1)).union(
        SphereArcSet.arc((-1, -1), (1, 0)))
    assert S_z == expected
    # the 3-adic picture already fills the same arc
    S_3 = sphere_projection(trop_hypersurface(QUADRIC_Q, padic(3)))
    assert S_3 == expected
    S_full = sphere_projection(full_plane_complex())
    assert S_full == SphereArcSet.full_circle()


# 3-adic figures with one segment each (the last has three): its base at
# the origin, its end at the origin, through the origin, and off it
SEGMENT_FIGURES = [
    ({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 9},
     [((0, 0), (-2, -2))],
     SphereArcSet.points([(1, 0), (0, 1)]).union(SphereArcSet.arc((-1, 0), (0, -1)))),
    ({(0, 0): 9, (1, 0): 1, (0, 1): 1, (1, 1): 1},
     [((2, 2), (0, 0))],
     SphereArcSet.points([(-1, 0), (0, -1)]).union(SphereArcSet.arc((1, 0), (0, 1)))),
    ({(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 1},
     [((-1, 1), (1, -1))],
     SphereArcSet.arc((0, 1), (-1, 0)).union(SphereArcSet.arc((0, -1), (1, 0)))),
    ({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 9},
     [((-2, 0), (0, -2)), ((-2, 0), (0, 0)), ((0, 0), (0, -2))],
     SphereArcSet.points([(1, 0), (0, 1)]).union(SphereArcSet.arc((-2, 1), (1, -2)))),
]


@pytest.mark.parametrize("terms, segments, arcs", SEGMENT_FIGURES,
                         ids=["base-at-0", "end-at-0", "through-0", "off-0"])
def test_sphere_projection_of_segments_matches_the_oracle(terms, segments, arcs):
    """The projection is the closure of the directions of T's nonzero
    points: those reached at some scale, plus each ray's own direction."""
    T = trop_hypersurface(LaurentPoly(QQ, 2, terms), padic(3))
    assert sorted((c.base, c.end) for c in T.cells if c.kind == "segment") == [
        (tuple(map(F, a)), tuple(map(F, b))) for a, b in segments]
    S = sphere_projection(T)
    assert S.components == arcs.components
    scales = {F(a) / b for a in range(1, 13) for b in range(1, 13)}
    rays = [c.dir for c in T.cells if c.kind == "ray"]
    for x in range(-4, 5):
        for y in range(-4, 5):
            if gcd(x, y) != 1:
                continue
            reached = any(complex_contains(T, (s * x, s * y)) for s in scales)
            limit = (x, y) in rays
            assert contains(S, (x, y)) == (reached or limit), (x, y)


def test_sphere_projection_planar_only():
    f = LaurentPoly(QQ, 1, {(0,): 3, (1,): -4, (2,): 1})
    T = trop_hypersurface(f, padic(3))
    with pytest.raises(ValueError):
        sphere_projection(T)


# -- the union-of-valuations report ------------------------------------------------


def test_union_over_valuations_principal():
    rp = union_over_valuations([QUADRIC])
    assert rp.primes == [2, 3]
    assert [e.label for e in rp.entries] == [
        "trivial over Q", "2-adic over Q", "trivial over F_2",
        "3-adic over Q", "trivial over F_3",
    ]
    expected = SphereArcSet.point((0, 1)).union(SphereArcSet.arc((-1, -1), (1, 0)))
    assert rp.sphere_union == expected
    assert rp.sphere_union == sphere_projection(trop_Z_principal(QUADRIC))


def test_valuation_union_witness_point():
    """(1,-1) sits in the integral fan but in no single-valuation picture;
    each entry's arcs are the projection of its setting's tropical set."""
    rp = union_over_valuations([QUADRIC])
    w = (1, -1)
    assert trop_Z_contains(QUADRIC, w)
    assert complex_contains(trop_Z_principal(QUADRIC), w)
    settings = [("trivial over Q", QUADRIC, TRIVIAL)]
    for p in rp.primes:
        settings += [(f"{p}-adic over Q", QUADRIC, padic(p)),
                     (f"trivial over F_{p}", map_coefficients(QUADRIC, GF(p)), TRIVIAL)]
    assert [label for label, _, _ in settings] == [e.label for e in rp.entries]
    for (label, f, valuation), e in zip(settings, rp.entries):
        T = tropicalize(f, valuation)
        assert e.arcs == sphere_projection(T), label
        assert not complex_contains(T, w), label


def test_valuation_union_zero_reduction_note():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    # 2 t1 + 2 t2 reduces to 0 mod 2, whose tropical set is the whole plane
    f = t1 * 2 + t2 * 2
    rp = union_over_valuations([f])
    f2 = next(e for e in rp.entries if e.label == "trivial over F_2")
    assert sphere_projection(tropicalize(map_coefficients(f, GF(2)), TRIVIAL)).full
    assert f2.arcs == SphereArcSet.full_circle()


def test_valuation_union_non_principal_prevariety():
    t1 = LaurentPoly.var(ZZ, 2, 0)
    t2 = LaurentPoly.var(ZZ, 2, 1)
    # the prevariety (one point under the trivial valuation) is refused:
    # its complement would be no bound
    with pytest.raises(ValueError, match="exactly one polynomial, got 2"):
        union_over_valuations([t1 - 1, t2 - 1])
    with pytest.raises(ValueError, match="got 0"):
        union_over_valuations([])
    with pytest.raises(ValueError, match="needs Z coefficients"):
        union_over_valuations([LaurentPoly.var(QQ, 2, 0) - 1])
    assert union_over_valuations([t1 - 1]).primes == []
