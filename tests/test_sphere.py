import random

import pytest

from troplex.sphere import (
    normalize_dir, same_dir, antipode, compare_dirs, ccw_strictly_between,
    degrees, SphereArcSet, union_all,
)


def test_normalize_dir():
    assert normalize_dir((2, 4)) == (1, 2)
    assert normalize_dir((-6, -9)) == (-2, -3)
    assert normalize_dir((0, 5)) == (0, 1)
    with pytest.raises(ValueError):
        normalize_dir((0, 0))


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
    assert p.contains((0, 1)) and p.contains((0, 7))
    assert not p.contains((0, -1))
    a = SphereArcSet.arc((1, 0), (0, 1))
    assert a.contains((1, 1))
    assert a.contains((1, 0)) and a.contains((0, 1))  # closed by default
    assert not a.contains((-1, 1))
    half_open = SphereArcSet.arc((1, 0), (0, 1), closed_start=False)
    assert not half_open.contains((1, 0)) and half_open.contains((0, 1))
    with pytest.raises(ValueError):
        SphereArcSet.arc((1, 0), (2, 0))


def test_full_and_empty():
    assert SphereArcSet.full_circle().contains((5, -7))
    assert SphereArcSet.empty().is_empty
    assert not SphereArcSet.full_circle().is_empty
    assert SphereArcSet.empty().complement() == SphereArcSet.full_circle()
    assert SphereArcSet.full_circle().complement().is_empty


def test_complement_of_point_wraps():
    p = SphereArcSet.point((1, 0))
    c = p.complement()
    assert not c.contains((1, 0))
    for d in [(0, 1), (-1, 0), (0, -1), (1, 1), (1, -1)]:
        assert c.contains(d)
    assert c.union(p) == SphereArcSet.full_circle()
    assert c.complement() == p


@pytest.mark.parametrize("d", [(1, 1), (1, 0)])
def test_circle_minus_a_point_splits_at_the_next_boundary(d):
    # the run of every atom but the point d wraps around the circle; it
    # is stored as two arcs meeting at the next boundary direction ccw
    # of d, which is (0, 1) for both: the axes are always boundaries
    c = SphereArcSet.point(d).complement()
    assert c.components == [
        ("arc", d, (0, 1), False, True),
        ("arc", (0, 1), d, False, False),
    ]
    assert not c.is_empty


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
    assert not u.contains((1, 0)) and not u.contains((-1, -1))
    assert not u.contains((0, 1))  # the shared endpoint stays out
    assert u.contains((1, 1)) and u.contains((-1, 1))
    joined = u.union(SphereArcSet.point((0, 1)))
    assert joined == SphereArcSet.arc((1, 0), (-1, -1),
                                      closed_start=False, closed_end=False)


def test_union_all():
    pieces = [SphereArcSet.point((1, 0)), SphereArcSet.point((0, 1)),
              SphereArcSet.arc((-1, 0), (0, -1))]
    u = union_all(pieces)
    for d in [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]:
        assert u.contains(d)
    assert not u.contains((1, 1))
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
            assert A.union(B).contains(d) == (A.contains(d) or B.contains(d))
            assert A.intersection(B).contains(d) == (A.contains(d) and B.contains(d))
            assert A.difference(B).contains(d) == (A.contains(d) and not B.contains(d))
            assert A.complement().contains(d) == (not A.contains(d))


def test_subset_and_equality():
    rng = random.Random(83)
    for _ in range(25):
        A = random_arc_set(rng)
        B = random_arc_set(rng)
        u = A.union(B)
        assert A.is_subset(u) and B.is_subset(u)
        assert A.intersection(B).is_subset(A)
        assert A == A.canonical()
        assert A.complement().complement() == A
        assert (A.is_subset(B) and B.is_subset(A)) == (A == B)
