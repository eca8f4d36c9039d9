"""Exact subsets of the unit circle S^1.

A SphereArcSet is a finite union of arcs and isolated points whose
endpoints are rational directions, stored as primitive integer vectors.
No angles are ever computed: circular order and membership use integer
cross/dot products only, so set algebra (union, intersection, complement,
equality) is exact.

Internally every operation refines the operands over a common boundary
set: the two operands' endpoint directions plus the four axis directions
(inserted so consecutive boundary directions span less than a half turn,
which makes the sum of two consecutive directions an interior sample).
Membership is decided per atom (boundary point or open arc between
neighbours) and maximal runs are reassembled into components.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd


def normalize_dir(v):
    """Primitive integer direction of a nonzero rational vector."""
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise ValueError("the zero vector has no direction")
    scale = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    ix, iy = int(x * scale), int(y * scale)
    g = gcd(abs(ix), abs(iy))
    return (ix // g, iy // g)


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def same_dir(a, b):
    return cross(a, b) == 0 and dot(a, b) > 0


def antipode(d):
    return (-d[0], -d[1])


def _half(d):
    x, y = d
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def compare_dirs(a, b):
    """Counterclockwise order starting from (1, 0)."""
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


DIR_KEY = cmp_to_key(compare_dirs)

_AXES = ((1, 0), (0, 1), (-1, 0), (0, -1))


def ccw_strictly_between(a, d, b):
    """Is d strictly inside the open ccw arc from a to b (a, b distinct)?"""
    if same_dir(d, a) or same_dir(d, b):
        return False
    cab = cross(a, b)
    cad = cross(a, d)
    cdb = cross(d, b)
    if cab > 0:
        return cad > 0 and cdb > 0
    if cab < 0:
        return cad > 0 or cdb > 0
    # antipodal endpoints: the arc is the open half circle ccw of a
    return cad > 0


def degrees(d):
    """Approximate angle for human-readable output only."""
    import math

    return math.degrees(math.atan2(d[1], d[0])) % 360.0


class SphereArcSet:
    """Components: ("point", d) or ("arc", a, b, closed_a, closed_b),
    the arc running counterclockwise from a to b."""

    def __init__(self, components=(), full=False):
        self.full = full
        self.components = [] if full else list(components)

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def full_circle(cls):
        return cls(full=True)

    @classmethod
    def point(cls, d):
        return cls([("point", normalize_dir(d))])

    @classmethod
    def arc(cls, a, b, closed_start=True, closed_end=True):
        a, b = normalize_dir(a), normalize_dir(b)
        if same_dir(a, b):
            raise ValueError("degenerate arc: use point() or full_circle()")
        return cls([("arc", a, b, closed_start, closed_end)])

    @classmethod
    def points(cls, dirs):
        return cls([("point", normalize_dir(d)) for d in dirs])

    # -- membership ---------------------------------------------------------

    def contains(self, d):
        d = normalize_dir(d)
        if self.full:
            return True
        for comp in self.components:
            if comp[0] == "point":
                if same_dir(d, comp[1]):
                    return True
            else:
                _, a, b, ca, cb = comp
                if same_dir(d, a):
                    if ca:
                        return True
                elif same_dir(d, b):
                    if cb:
                        return True
                elif ccw_strictly_between(a, d, b):
                    return True
        return False

    # -- refinement machinery ------------------------------------------------

    def _boundary_dirs(self):
        out = []
        for comp in self.components:
            if comp[0] == "point":
                out.append(comp[1])
            else:
                out.append(comp[1])
                out.append(comp[2])
        return out

    @staticmethod
    def _combine(sets, predicate):
        dirs = list(_AXES)
        for s in sets:
            dirs.extend(s._boundary_dirs())
        uniq = []
        for d in sorted(dirs, key=DIR_KEY):
            if not uniq or compare_dirs(uniq[-1], d) != 0:
                uniq.append(d)
        k = len(uniq)
        # atoms alternate: point uniq[i], open arc (uniq[i], uniq[i+1])
        atoms = []
        for i in range(k):
            atoms.append(("point", uniq[i]))
            atoms.append(("gap", uniq[i], uniq[(i + 1) % k]))
        member = []
        for atom in atoms:
            if atom[0] == "point":
                rep = atom[1]
            else:
                a, b = atom[1], atom[2]
                rep = (a[0] + b[0], a[1] + b[1])
            member.append(predicate(tuple(s.contains(rep) for s in sets)))
        if all(member):
            return SphereArcSet.full_circle()
        if not any(member):
            return SphereArcSet.empty()
        n = len(atoms)
        start = next(i for i in range(n) if not member[i])
        comps = []
        i = (start + 1) % n
        steps = 0
        while steps < n:
            if not member[i]:
                i = (i + 1) % n
                steps += 1
                continue
            run = []
            while member[i]:
                run.append(atoms[i])
                i = (i + 1) % n
                steps += 1
            comps.extend(SphereArcSet._run_to_components(run))
        comps.sort(key=lambda c: (DIR_KEY(c[1]), c[0]))
        return SphereArcSet(comps)

    @staticmethod
    def _run_to_components(run):
        if len(run) == 1 and run[0][0] == "point":
            return [("point", run[0][1])]
        first, last = run[0], run[-1]
        start = first[1]
        start_closed = first[0] == "point"
        end = last[1] if last[0] == "point" else last[2]
        end_closed = last[0] == "point"
        if not same_dir(start, end):
            return [("arc", start, end, start_closed, end_closed)]
        # a run stops before an atom outside the set, so it closes up only
        # as the circle minus the point start; split it at the next boundary
        # point, which differs from start since the four axes are boundaries
        mid = run[1][1]
        return [("arc", start, mid, False, True), ("arc", mid, end, False, False)]

    # -- set algebra ----------------------------------------------------------

    def union(self, other):
        return SphereArcSet._combine([self, other], lambda m: m[0] or m[1])

    def intersection(self, other):
        return SphereArcSet._combine([self, other], lambda m: m[0] and m[1])

    def difference(self, other):
        return SphereArcSet._combine([self, other], lambda m: m[0] and not m[1])

    def complement(self):
        return SphereArcSet._combine([self], lambda m: not m[0])

    def canonical(self):
        return SphereArcSet._combine([self], lambda m: m[0])

    @property
    def is_empty(self):
        # a component is a point or an arc between distinct directions
        return not self.full and not self.components

    def is_subset(self, other):
        return self.difference(other).is_empty

    def __eq__(self, other):
        if not isinstance(other, SphereArcSet):
            return NotImplemented
        return SphereArcSet._combine(
            [self, other], lambda m: m[0] != m[1]
        ).is_empty

    def __repr__(self):
        if self.full:
            return "<SphereArcSet full circle>"
        if not self.components:
            return "<SphereArcSet empty>"
        return f"<SphereArcSet {self.describe()}>"

    def describe(self):
        if self.full:
            return "full circle"
        if not self.components:
            return "empty"
        bits = []
        for comp in self.canonical().components:
            if comp[0] == "point":
                bits.append(f"point {comp[1]} ({degrees(comp[1]):.1f} deg)")
            else:
                _, a, b, ca, cb = comp
                lb, rb = "[" if ca else "(", "]" if cb else ")"
                bits.append(
                    f"arc {lb}{a}, {b}{rb} "
                    f"({degrees(a):.1f} to {degrees(b):.1f} deg)"
                )
        return "; ".join(bits)


def union_all(sets):
    out = SphereArcSet.empty()
    for s in sets:
        out = out.union(s)
    return out
