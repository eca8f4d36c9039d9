"""Exact subsets of the unit circle S^1.

A SphereArcSet is a finite union of arcs and isolated points whose
endpoints are rational directions, stored as primitive integer vectors.
No angles are ever computed: circular order uses integer cross products
only, so set algebra (union, intersection, complement, equality) is exact.

Every operation refines its operands over one common boundary: their
endpoint directions plus the four axes, sorted ccw and numbered, which
cuts the circle into atoms (boundary point 2i, open arc 2i + 1 after it).
A primitive direction is its own key, so each operand marks its atoms by
boundary index, with no membership test: a point its atom, an arc the
atoms strictly between its ends and each closed end, the full circle
all.  The predicate then decides each atom from its operands' marks, and
maximal runs of member atoms are reassembled into components.

Every set is stored in one canonical form: its maximal components sorted
ccw by start, and the circle minus a point p split into two arcs at the
first axis ccw after p.  Constructors and operations build that form
directly, so equality compares components, and union_all unions any
number of sets in one pass.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import groupby
from math import gcd


def normalize_dir(v):
    """Primitive integer direction of a nonzero rational vector (ints or
    Fractions): the two ratios cross-multiplied over a common denominator,
    then divided by the gcd."""
    xn, xd = v[0].as_integer_ratio()
    yn, yd = v[1].as_integer_ratio()
    if not (xn or yn):
        raise ValueError("the zero vector has no direction")
    ix, iy = xn * yd, yn * xd
    g = gcd(ix, iy)
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
        return cls([("point", d) for d in sorted(set(map(normalize_dir, dirs)), key=DIR_KEY)])

    # -- refinement machinery ------------------------------------------------

    @staticmethod
    def _combine(sets, predicate):
        uniq = sorted(set(_AXES).union(*(c[1:3] for s in sets for c in s.components)),
                      key=DIR_KEY)
        index = {d: i for i, d in enumerate(uniq)}
        n = 2 * len(uniq)
        # atom 2i is the point uniq[i], atom 2i + 1 the open arc after it
        flags = []
        for s in sets:
            flag = [s.full] * n
            for comp in s.components:
                i = 2 * index[comp[1]]
                if comp[0] == "point":
                    flag[i] = True
                    continue
                _, _, b, ca, cb = comp
                j = 2 * index[b]
                if i < j:
                    flag[i + 1:j] = [True] * (j - i - 1)
                else:
                    flag[i + 1:] = [True] * (n - i - 1)
                    flag[:j] = [True] * j
                flag[i] = flag[i] or ca
                flag[j] = flag[j] or cb
            flags.append(flag)
        member = [predicate(m) for m in zip(*flags)]
        if all(member):
            return SphereArcSet.full_circle()
        if not any(member):
            return SphereArcSet.empty()
        # from an atom outside the set no run of members wraps around
        start = member.index(False)
        comps = []
        for inside, run in groupby(member[start:] + member[:start]):
            end = start + sum(1 for _ in run)
            if inside:
                comps.extend(SphereArcSet._run_to_components(uniq, start % n, (end - 1) % n))
            start = end
        comps.sort(key=lambda c: index[c[1]])
        return SphereArcSet(comps)

    @staticmethod
    def _run_to_components(uniq, first, last):
        """The components of the run of member atoms first..last (ccw)."""
        start = uniq[first // 2]
        end = uniq[(last + 1) // 2 % len(uniq)]
        if first == last and first % 2 == 0:
            return [("point", start)]
        if start != end:
            return [("arc", start, end, first % 2 == 0, last % 2 == 0)]
        # a run stops before an atom outside the set, so it closes up only
        # as the circle minus the point start; split it at the next axis
        # direction ccw of start, which does not depend on the other atoms
        mid = next((x for x in _AXES if compare_dirs(start, x) < 0), _AXES[0])
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

    @property
    def is_empty(self):
        # a component is a point or an arc between distinct directions
        return not self.full and not self.components

    def is_subset(self, other):
        return self.difference(other).is_empty

    def __eq__(self, other):
        if not isinstance(other, SphereArcSet):
            return NotImplemented
        # every set is stored in its one canonical form
        return (self.full, self.components) == (other.full, other.components)

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
        for comp in self.components:
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
    sets = list(sets)
    return SphereArcSet._combine(sets, any) if sets else SphereArcSet.empty()
