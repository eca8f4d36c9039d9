import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ccw_strictly_between, contains, normalize_dir_by_fractions
from troplex.sphere import (
    DIR_KEY, normalize_dir, same_dir, antipode, compare_dirs, degrees, SphereArcSet, union_all,
)


def test_normalize_dir():
    assert normalize_dir((2, 4)) == (1, 2)
    assert normalize_dir((-6, -9)) == (-2, -3)
    assert normalize_dir((0, 5)) == (0, 1)
    with pytest.raises(ValueError, match="the zero vector has no direction"):
        normalize_dir((0, 0))
    with pytest.raises(ValueError, match="the zero vector has no direction"):
        normalize_dir((Fraction(0), 0))
    assert normalize_dir((Fraction(-1, 2), Fraction(3, 4))) == (-2, 3)
    assert normalize_dir((Fraction(2, 3), 0)) == (1, 0)
    assert normalize_dir((-(2**70), 3 * 2**69)) == (-2, 3)


_BIG = 2**70
_RATIONALS = st.one_of(
    st.integers(-_BIG, _BIG),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_normalize_dir_matches_the_fraction_oracle(x, y):
    """int, Fraction and mixed pairs, of either sign, small or past 2^64."""
    if x == 0 and y == 0:
        with pytest.raises(ValueError, match="the zero vector has no direction"):
            normalize_dir((x, y))
        return
    d = normalize_dir((x, y))
    assert d == normalize_dir_by_fractions((x, y))
    assert all(type(c) is int for c in d)


def test_dir_predicates():
    assert same_dir((1, 1), (3, 3))
    assert not same_dir((1, 1), (-1, -1))
    assert antipode((2, -3)) == (-2, 3)
    assert compare_dirs((1, 0), (1, 0)) == 0
    # counterclockwise from (1,0): (1,1) comes before (0,1)
    assert compare_dirs((1, 1), (0, 1)) < 0
    assert ccw_strictly_between((1, 0), (1, 1), (0, 1))
    assert not ccw_strictly_between((1, 0), (1, -1), (0, 1))
    assert not ccw_strictly_between((1, 0), (1, 0), (0, 1))
    assert degrees((0, 1)) == 90.0
    assert degrees((-1, -1)) == 225.0


def test_point_and_arc_membership():
    p = SphereArcSet.point((0, 2))
    assert contains(p, (0, 1)) and contains(p, (0, 7))
    assert not contains(p, (0, -1))
    a = SphereArcSet.arc((1, 0), (0, 1))
    assert contains(a, (1, 1))
    assert contains(a, (1, 0)) and contains(a, (0, 1))  # closed by default
    assert not contains(a, (-1, 1))
    half_open = SphereArcSet.arc((1, 0), (0, 1), closed_start=False)
    assert not contains(half_open, (1, 0)) and contains(half_open, (0, 1))
    with pytest.raises(ValueError):
        SphereArcSet.arc((1, 0), (2, 0))


def test_full_and_empty():
    assert contains(SphereArcSet.full_circle(), (5, -7))
    assert SphereArcSet.empty().is_empty
    assert not SphereArcSet.full_circle().is_empty
    assert SphereArcSet.empty().complement() == SphereArcSet.full_circle()
    assert SphereArcSet.full_circle().complement().is_empty


def test_complement_of_point_wraps():
    p = SphereArcSet.point((1, 0))
    c = p.complement()
    assert not contains(c, (1, 0))
    for d in [(0, 1), (-1, 0), (0, -1), (1, 1), (1, -1)]:
        assert contains(c, d)
    assert c.union(p) == SphereArcSet.full_circle()
    assert c.complement() == p


@pytest.mark.parametrize("d, axis", [((1, 1), (0, 1)), ((1, 0), (0, 1)),
                                      ((-3, 1), (-1, 0)), ((1, -1), (1, 0))])
def test_circle_minus_a_point_splits_at_the_next_axis(d, axis):
    # the run of every atom but the point d wraps around the circle; it
    # is stored as two arcs meeting at the first axis direction ccw of d
    c = SphereArcSet.point(d).complement()
    assert c.components == sorted([
        ("arc", d, axis, False, True),
        ("arc", axis, d, False, False),
    ], key=lambda comp: DIR_KEY(comp[1]))
    assert not c.is_empty


def test_circle_minus_a_point_does_not_depend_on_the_operands():
    # the boundary (1, 1) lies between (1, 0) and the axis (0, 1), yet the
    # split stays at the axis: one set, one form
    u = SphereArcSet.arc((1, 0), (1, 1), closed_start=False).union(
        SphereArcSet.arc((1, 1), (1, 0), closed_end=False))
    assert u.components == [
        ("arc", (1, 0), (0, 1), False, True),
        ("arc", (0, 1), (1, 0), False, False),
    ]
    assert u.components == SphereArcSet.point((1, 0)).complement().components
    assert u == SphereArcSet.point((1, 0)).complement()


def test_points_are_sorted_ccw_without_duplicates():
    s = SphereArcSet.points([(0, -2), (1, 1), (0, -1), (-1, 0), (3, 3), (2, 0)])
    assert s.components == [("point", (1, 0)), ("point", (1, 1)),
                            ("point", (-1, 0)), ("point", (0, -1))]
    assert s == union_all(SphereArcSet.point(d) for d in [(0, -1), (-1, 0), (1, 1), (1, 0)])
    assert SphereArcSet.points([]).is_empty


def test_union_and_intersection_fixed():
    a = SphereArcSet.arc((1, 0), (0, 1))
    b = SphereArcSet.arc((1, 1), (-1, 0))
    u = a.union(b)
    assert u == SphereArcSet.arc((1, 0), (-1, 0))
    i = a.intersection(b)
    assert i == SphereArcSet.arc((1, 1), (0, 1))
    d = a.difference(b)
    assert d == SphereArcSet.arc((1, 0), (1, 1), closed_end=False)


def test_adjacent_open_arcs_fuse_without_the_joint():
    left = SphereArcSet.arc((1, 0), (0, 1), closed_start=False, closed_end=False)
    right = SphereArcSet.arc((0, 1), (-1, -1), closed_start=False, closed_end=False)
    u = left.union(right)
    assert not contains(u, (1, 0)) and not contains(u, (-1, -1))
    assert not contains(u, (0, 1))  # the shared endpoint stays out
    assert contains(u, (1, 1)) and contains(u, (-1, 1))
    joined = u.union(SphereArcSet.point((0, 1)))
    assert joined == SphereArcSet.arc((1, 0), (-1, -1),
                                      closed_start=False, closed_end=False)


def test_union_all():
    pieces = [SphereArcSet.point((1, 0)), SphereArcSet.point((0, 1)),
              SphereArcSet.arc((-1, 0), (0, -1))]
    u = union_all(pieces)
    for d in [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]:
        assert contains(u, d)
    assert not contains(u, (1, 1))
    assert union_all([]).is_empty


def random_arc_set(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return SphereArcSet.empty()
    if kind == 1:
        return SphereArcSet.point(random_dir(rng))
    a, b = random_dir(rng), random_dir(rng)
    if same_dir(a, b):
        return SphereArcSet.point(a)
    return SphereArcSet.arc(a, b, closed_start=rng.random() < 0.5,
                            closed_end=rng.random() < 0.5)


def random_dir(rng):
    while True:
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if v != (0, 0):
            return v


def test_set_algebra_matches_membership():
    """Union, intersection, difference, complement agree with pointwise logic."""
    rng = random.Random(71)
    for _ in range(50):
        A = random_arc_set(rng).union(random_arc_set(rng))
        B = random_arc_set(rng)
        probes = [random_dir(rng) for _ in range(8)]
        for s in (A, B):
            for comp in s.components:
                probes.append(comp[1])
                if comp[0] == "arc":
                    probes.append(comp[2])
        for d in probes:
            a, b = contains(A, d), contains(B, d)
            assert contains(A.union(B), d) == (a or b)
            assert contains(A.intersection(B), d) == (a and b)
            assert contains(A.difference(B), d) == (a and not b)
            assert contains(A.complement(), d) == (not a)


def test_subset_and_equality():
    rng = random.Random(83)
    for _ in range(25):
        A = random_arc_set(rng)
        B = random_arc_set(rng)
        u = A.union(B)
        assert A.is_subset(u) and B.is_subset(u)
        assert A.intersection(B).is_subset(A)
        assert A == A.union(A) == A.intersection(A)
        assert A.complement().complement() == A
        assert (A.is_subset(B) and B.is_subset(A)) == (A == B)
    assert SphereArcSet.empty() != "empty"
    assert SphereArcSet.empty().__eq__("empty") is NotImplemented


_DIRS = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0))


@st.composite
def _leaves(draw, closed=False):
    kind = draw(st.sampled_from(["empty", "full", "point", "arc", "arc"]))
    if kind == "empty":
        return SphereArcSet.empty()
    if kind == "full":
        return SphereArcSet.full_circle()
    a = draw(_DIRS)
    b = draw(_DIRS)
    if kind == "point" or same_dir(a, b):
        return SphereArcSet.point(a)
    if closed:
        return SphereArcSet.arc(a, b)
    return SphereArcSet.arc(a, b, closed_start=draw(st.booleans()),
                            closed_end=draw(st.booleans()))


def _sets():
    # a union of up to three leaves, open ends and all
    return st.lists(_leaves(), min_size=1, max_size=3).map(union_all)


def _probes(*sets):
    """Every boundary direction of the sets, the axes, and the midpoint of
    each gap between consecutive ones (the axes keep gaps below a half turn)."""
    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for s in sets:
        for comp in s.components:
            dirs.update(comp[1:3])
    ring = sorted(dirs, key=DIR_KEY)
    gaps = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(ring, ring[1:] + ring[:1])]
    return ring + gaps


@settings(max_examples=300, deadline=None)
@given(_sets(), _sets(), st.lists(_leaves(closed=True), max_size=5))
def test_set_algebra_matches_the_scan_oracle(A, B, closed):
    results = [A.union(B), A.intersection(B), A.difference(B), A.complement()]
    for d in _probes(A, B, *results):
        a, b = contains(A, d), contains(B, d)
        assert [contains(r, d) for r in results] == [a or b, a and b, a and not b, not a]
    # each result is already in its canonical form
    for r in results:
        again = SphereArcSet._combine([r], lambda m: m[0])
        assert (again.full, again.components) == (r.full, r.components)
    # equality is an empty symmetric difference
    assert (A == B) == (A.difference(B).is_empty and B.difference(A).is_empty)
    # a union of closed sets in one pass equals the pairwise fold
    fold = SphereArcSet.empty()
    for s in closed:
        fold = fold.union(s)
    once = union_all(closed)
    assert (once.full, once.components) == (fold.full, fold.components)
