"""Tropicalization of Laurent polynomials, exactly, in the plane.

Three flavors:

* trop_hypersurface(f, v): the corner locus of w -> min_u (v(a_u) + <u, w>),
  i.e. where the minimum is attained by at least two terms.  Computed for
  one or two variables from the regular subdivision of the Newton polytope
  that the term heights v(a_u) induce: its cells are dual to the
  subdivision's edges (Maclagan-Sturmfels, Introduction to Tropical
  Geometry, Prop. 3.1.6).  Each edge's tie line is clipped by the other
  terms' inequalities; every cell is a rational segment, ray, or (as two
  rays) a line, and in one variable a rational point.
* trop_Z_principal(f): the integer-coefficient version {chi :
  init_chi(f) is not +-monomial}, read off the Newton polytope's normal
  fan: edge normals always contribute rays, vertex cones contribute
  2-dimensional cells exactly when the vertex coefficient is not a unit.
* tropicalize(f, mode): the one dispatch over the coefficient settings,
  mode "Z" or a Valuation.
* union_over_valuations([f]): for one polynomial over Z, the union over
  the trivial valuation, p-adic valuations, and mod-p reductions for all
  candidate primes p (primes dividing some coefficient), reported per
  valuation and combined on the sphere.  Several generators are refused:
  the intersection of their curves (the prevariety) can be larger than
  the ideal's tropical set, and its complement is then no valid bound.

The whole plane is the four quadrant cones of full_plane_complex; a unit
monomial is the empty complex in any rank.

Everything is exact: bases and endpoints are Fractions and directions are
primitive integer vectors.  Inside, the corner locus is integer
arithmetic: a valuation of a nonzero scalar is an integer, so term
heights are ints, tie-line bounds are integer pairs compared by
cross-multiplication, and minimal terms are found over a common
denominator; only the cells' coordinates are made Fractions.  The
membership predicates trop_contains and trop_Z_contains read initial
forms and share no code with the cell enumeration; the tests hold the
cell-side membership test that checks the two against each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .laurent import (
    coefficient_primes,
    initial_form_valued,
    is_unit,
    map_coefficients,
)
from .rings import GF, TRIVIAL, padic, valuate
from .sphere import SphereArcSet, antipode, cross, normalize_dir, same_dir, union_all


class Cell:
    """One closed convex piece of a tropical set.

    kind "vertex": the point base.
    kind "segment": from base to end.
    kind "ray": base + s*dir, s >= 0.
    kind "cone2": base + s*dir + t*dir2, s, t >= 0 (salient, ccw from dir
    to dir2); only produced by the integer tropicalization.
    label: the exponent tuples whose terms achieve the minimum on the
    cell's relative interior.
    """

    __slots__ = ("kind", "base", "end", "dir", "dir2", "label")

    def __init__(self, kind, base, end=None, dir=None, dir2=None, label=()):
        self.kind = kind
        self.base = tuple(Fraction(x) for x in base)
        self.end = None if end is None else tuple(Fraction(x) for x in end)
        self.dir = None if dir is None else tuple(dir)
        self.dir2 = None if dir2 is None else tuple(dir2)
        self.label = tuple(sorted(label))

    def key(self):
        return (self.kind, self.base, self.end, self.dir, self.dir2)

    def __repr__(self):
        if self.kind == "vertex":
            return f"<vertex {_fmt_pt(self.base)}>"
        if self.kind == "segment":
            return f"<segment {_fmt_pt(self.base)} to {_fmt_pt(self.end)}>"
        if self.kind == "ray":
            return f"<ray {_fmt_pt(self.base)} dir {self.dir}>"
        return f"<cone2 {_fmt_pt(self.base)} dirs {self.dir}, {self.dir2}>"

    def interior_point(self):
        """A point inside a segment or a ray, the kinds the walk labels."""
        if self.kind == "segment":
            return tuple((a + b) / 2 for a, b in zip(self.base, self.end))
        return tuple(a + d for a, d in zip(self.base, self.dir))


def _fmt_pt(p):
    return "(" + ", ".join(str(x) for x in p) + ")"


class TropicalComplex:
    def __init__(self, nvars, cells):
        self.nvars = nvars
        self.cells = list(cells)

    def __repr__(self):
        return f"<TropicalComplex {len(self.cells)} cells in R^{self.nvars}>"


def cell_weight(c):
    """Multiplicity of a cell dual to a Newton-polytope edge: the lattice
    length between the extreme exponents of its label."""
    if len(c.label) < 2:
        raise ValueError("cell label has no extent, no dual edge")
    lo, hi = c.label[0], c.label[-1]
    g = 0
    for a, b in zip(lo, hi):
        g = gcd(g, abs(b - a))
    if g == 0:
        raise ValueError("degenerate label")
    return g


def full_plane_complex(nvars=2):
    """All of R^2 as its four closed quadrant cones, the one representation
    of the whole plane: membership and sphere projection need no special
    case (the cones project to the full circle)."""
    if nvars != 2:
        raise ValueError("full-plane cells are only materialized in the plane")
    quads = [
        ((1, 0), (0, 1)),
        ((0, 1), (-1, 0)),
        ((-1, 0), (0, -1)),
        ((0, -1), (1, 0)),
    ]
    cells = [Cell("cone2", (0, 0), dir=a, dir2=b) for a, b in quads]
    return TropicalComplex(2, cells)


# -- corner locus over a valued field ---------------------------------------


def _term_heights(f, valuation):
    """(exponent, height) per term.  The valuation of a nonzero scalar is
    an integer, so every height is an int."""
    return [
        (exps, valuate(valuation, c, f.ring))
        for exps, c in sorted(f.terms.items())
    ]


def trop_contains(f, valuation, w):
    """Membership oracle: the minimum of v(a_u) + <u, w> ties."""
    return len(initial_form_valued(f, w, valuation).terms) >= 2


def trop_hypersurface(f, valuation=TRIVIAL):
    """Exact corner-locus complex for nvars <= 2."""
    if f.is_zero:
        raise ValueError("cannot tropicalize the zero polynomial")
    if not valuation.compatible_with(f.ring):
        raise ValueError("valuation/ring mismatch")
    items = _term_heights(f, valuation)
    if len(items) == 1:
        return TropicalComplex(f.nvars, [])  # one term: empty corner locus
    if f.nvars > 2:
        raise ValueError(f"exact cells need rank 1 or 2, not {f.nvars}; "
                         "test single points with trop --contains")
    if f.nvars == 1:
        return _trop_line(f, items)
    return _trop_plane(f, items)


def _trop_line(f, items):
    """One vertex per edge of the lower chain of the points (exponent, height)."""
    chain = _lower_chain([(u[0], h) for u, h in items])
    points = sorted(
        Fraction(h2 - h1, u1 - u2) for (u1, h1), (u2, h2) in zip(chain, chain[1:])
    )
    cells = [Cell("vertex", (x,)) for x in points]
    for c in cells:
        c.label = _argmin_label(items, c.base)
    return TropicalComplex(1, cells)


def _argmin_label(items, w):
    """Exponents of the terms minimal at the rational point w.  Each value
    h + u.w is compared as h*D + u.(D*w), an integer, with D the common
    denominator of w's coordinates."""
    D = lcm(*(x.denominator for x in w))
    W = [x.numerator * (D // x.denominator) for x in w]
    vals = [(h * D + sum(e * x for e, x in zip(u, W)), u) for u, h in items]
    best = min(v for v, _ in vals)
    return tuple(sorted(u for v, u in vals if v == best))


def _trop_plane(f, items):
    """Cells dual to the edges of the regular subdivision.

    Collinear support: one full line per edge of the lower chain of
    (position, height).  Otherwise walk the tropical vertices: the terms
    tied at a vertex span its dual 2-cell, and each edge of that cell's hull
    is clipped once.  Every subdivision edge bounds a 2-cell and the
    2-cells are connected through interior edges, so the walk reaches every
    cell; the first edge of the lower chain over a boundary edge of the
    Newton polygon is a subdivision edge whose cell is a ray, which gives
    the first vertex.  Any two terms on one subdivision edge clip to the
    same cell, so clipping only the extreme pair loses nothing.
    """
    index = {u: k for k, (u, _) in enumerate(items)}
    hull = _convex_hull(list(index))
    chain = _edge_chain(items, hull[0], hull[1])
    clipped = {}

    def clip(a, b):
        i, j = sorted((index[a], index[b]))
        if (i, j) not in clipped:
            (u1, h1), (u2, h2) = items[i], items[j]
            normal = (u1[0] - u2[0], u1[1] - u2[1])
            clipped[(i, j)] = _clip_tie_line(items, i, j, normal, h2 - h1)
        return clipped[(i, j)]

    if len(hull) == 2:
        for (_, _, a), (_, _, b) in zip(chain, chain[1:]):
            clip(a, b)
    else:
        edges = [(chain[0][2], chain[1][2])]
        seen = set()
        while edges:
            for c in clip(*edges.pop()):
                for pt in (c.base,) if c.end is None else (c.base, c.end):
                    if pt not in seen:
                        seen.add(pt)
                        cell = _convex_hull(_argmin_label(items, pt))
                        edges.extend(zip(cell, cell[1:] + cell[:1]))
    cells = _dedupe_cells([c for cs in clipped.values() for c in cs])
    for c in cells:
        c.label = _argmin_label(items, c.interior_point())
    return TropicalComplex(2, cells)


def _edge_chain(items, p, q):
    """Terms on the segment [p, q] of the support, lifted to
    (position along the segment, height, exponent): their lower chain.
    [p, q] is a hull edge or spans a collinear support, so the points on
    its line are the points on the segment."""
    e = (q[0] - p[0], q[1] - p[1])
    lifted = sorted(
        ((u[0] - p[0]) * e[0] + (u[1] - p[1]) * e[1], h, u)
        for u, h in items
        if cross(e, (u[0] - p[0], u[1] - p[1])) == 0
    )
    return _lower_chain(lifted)


def _clip_tie_line(items, i, j, a, rhs):
    """Cells of {w : a.w = rhs, term i minimal}: a segment, a ray, or the
    whole line as two rays; [] when terms i and j tie at one point at most.

    The line is w = base + s*d, with base = rhs*a/N, N = a.a and d the
    primitive direction normal to a.  Scaled by N, term k bounds s by
    c0 + c1*s <= 0 with integers c0 = N*(h1 - h3) + rhs*(du.a) and
    c1 = N*(du.d), du = u1 - u3.  A bound -c0/c1 is kept as the pair
    (num, den), den > 0, and bounds compare by cross-multiplication, so
    only the ends of the returned cell are Fractions.
    """
    u1, h1 = items[i]
    n = a[0] * a[0] + a[1] * a[1]
    d = normalize_dir((-a[1], a[0]))
    lo, hi = None, None  # None encodes the infinite end
    for k, (u3, h3) in enumerate(items):
        if k == i or k == j:
            continue
        du0, du1 = u1[0] - u3[0], u1[1] - u3[1]
        c0 = n * (h1 - h3) + rhs * (du0 * a[0] + du1 * a[1])
        c1 = n * (du0 * d[0] + du1 * d[1])
        if c1 > 0:  # s <= -c0/c1
            if hi is None or -c0 * hi[1] < hi[0] * c1:
                hi = (-c0, c1)
        elif c1 < 0:  # s >= c0/-c1
            if lo is None or c0 * lo[1] > lo[0] * -c1:
                lo = (c0, -c1)
        elif c0 > 0:
            return []

    def at(s):
        num, den = s
        return tuple(
            Fraction(rhs * ax * den + num * n * dx, n * den) for ax, dx in zip(a, d)
        )

    if lo is not None and hi is not None:
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return []
        return [Cell("segment", at(lo), end=at(hi))]
    if lo is not None:
        return [Cell("ray", at(lo), dir=d)]
    if hi is not None:
        return [Cell("ray", at(hi), dir=antipode(d))]
    base = at((0, 1))
    return [Cell("ray", base, dir=d), Cell("ray", base, dir=antipode(d))]


def _dedupe_cells(cells):
    """Cells with distinct keys, sorted.  No cell of the subdivision walk
    lies inside another: each subdivision edge is clipped once, by its
    extreme pair, and the cells of distinct edges meet only at their ends."""
    uniq = {}
    for c in cells:
        uniq.setdefault(c.key(), c)
    kind_order = {"vertex": 0, "segment": 1, "ray": 2, "cone2": 3}
    return sorted(
        uniq.values(),
        key=lambda c: (kind_order[c.kind], c.base, c.dir or (), c.end or ()),
    )


# -- integer-coefficient tropicalization ------------------------------------


def trop_Z_contains(f, chi):
    """chi lies in Trop_Z((f)) iff init_chi(f) is not a unit of Z[t^{+-1}]."""
    if f.ring.kind != "Z":
        raise ValueError("integer tropicalization needs Z coefficients")
    return not is_unit(initial_form_valued(f, chi, TRIVIAL))


def _lower_chain(points):
    """Lower convex chain of points sorted by (x, y), collinear points
    dropped; only the first two coordinates of each point are read."""
    out = []
    for p in points:
        while (
            len(out) >= 2
            and cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-1][0], p[1] - out[-1][1]),
            )
            <= 0
        ):
            out.pop()
        out.append(p)
    return out


def _convex_hull(points):
    """Monotone chain; returns ccw hull vertices, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = _lower_chain(pts)
    upper = _lower_chain(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def trop_Z_principal(f):
    """Trop_Z of the principal ideal (f), from the Newton polytope.

    Sound for principal ideals because initial forms are multiplicative
    over a domain: init_chi((f)) = (init_chi(f)), so chi is in Trop_Z
    exactly when init_chi(f) fails to be +-monomial.
    """
    if f.ring.kind != "Z":
        raise ValueError("integer tropicalization needs Z coefficients")
    support = sorted(f.terms)
    if len(support) == 1 and f.ring.is_unit(f.terms[support[0]]):
        return TropicalComplex(f.nvars, [])  # a unit monomial: nowhere
    if f.nvars != 2:
        raise ValueError(f"exact cells over Z need rank 2, not {f.nvars}; "
                         "test single points with trop --contains")
    if len(support) <= 1:
        return full_plane_complex(2)  # zero or a non-unit monomial: everywhere
    hull = _convex_hull(support)
    k = len(hull)
    cells, inward = [], []
    for idx in range(k):
        u, v = hull[idx], hull[(idx + 1) % k]
        d = (v[0] - u[0], v[1] - u[1])
        n_in = normalize_dir((-d[1], d[0]))
        # the edge is the face of the hull where n_in is least
        level = n_in[0] * u[0] + n_in[1] * u[1]
        edge_support = tuple(p for p in support if n_in[0] * p[0] + n_in[1] * p[1] == level)
        cells.append(Cell("ray", (0, 0), dir=n_in, label=edge_support))
        inward.append(n_in)
    for idx in range(k):
        v = hull[idx]
        if f.ring.is_unit(f.terms[v]):
            continue
        a, b = inward[idx - 1], inward[idx]
        if a == antipode(b):
            # an end of a segment: its half plane, as two salient cones
            mid = (-a[1], a[0])
            cones = [(a, mid), (mid, b)]
        else:
            cones = [(a, b)]
        cells.extend(Cell("cone2", (0, 0), dir=c, dir2=d, label=(v,)) for c, d in cones)
    return TropicalComplex(2, _dedupe_cells(cells))


def tropicalize(f, mode):
    """The tropical set of the principal ideal (f) under one coefficient
    setting: mode "Z" for the integer tropicalization, or a Valuation for
    the corner locus over a valued field.  The zero polynomial vanishes
    everywhere, which gives the whole plane."""
    if f.is_zero:
        return full_plane_complex(f.nvars)
    if mode == "Z":
        return trop_Z_principal(f)
    return trop_hypersurface(f, mode)


# -- sphere projection -------------------------------------------------------


def _short_arc(da, db):
    """Direction set spanned between two directions, the narrow way."""
    if same_dir(da, db):
        return SphereArcSet.point(da)
    if same_dir(da, antipode(db)):
        return SphereArcSet.points([da, db])
    if cross(da, db) > 0:
        return SphereArcSet.arc(da, db)
    return SphereArcSet.arc(db, da)


def _project_cell(c):
    origin = all(x == 0 for x in c.base)
    if c.kind == "segment":  # its two ends differ
        if origin:
            return SphereArcSet.point(c.end)
        if all(x == 0 for x in c.end):
            return SphereArcSet.point(c.base)
        # _short_arc keeps both ends of a segment through the origin
        return _short_arc(normalize_dir(c.base), normalize_dir(c.end))
    if c.kind == "ray":
        du = normalize_dir(c.dir)
        if origin:
            return SphereArcSet.point(du)
        return _short_arc(normalize_dir(c.base), du)
    # cone2: emitted with apex at the origin by construction
    if not origin:
        raise ArithmeticError("internal: cone2 cells are expected to have their apex at 0")
    if same_dir(c.dir, antipode(c.dir2)):
        raise ArithmeticError("internal: cone2 spanning a half plane should be split")
    return SphereArcSet.arc(c.dir, c.dir2)


def sphere_projection(T):
    """Directions of the nonzero points of T, as an exact arc set (nvars 2)."""
    if T.nvars != 2:
        raise ValueError("sphere projection is exact only in the plane")
    return union_all(_project_cell(c) for c in T.cells)


# -- union over valuations, prime by prime ------------------------------------


class ValuationEntry:
    def __init__(self, label, arcs):
        self.label = label
        self.arcs = arcs


class ValuationUnionReport:
    def __init__(self, primes, entries, sphere_union):
        self.primes = primes
        self.entries = entries
        self.sphere_union = sphere_union


def union_over_valuations(gens):
    """Tropicalize one polynomial over Q-trivial, p-adic, and mod-p for
    candidate primes.

    gens: a one-element list of a LaurentPoly over Z; several generators
    raise ValueError (pass their gcd, whose tropical set contains the
    ideal's).  The candidate prime set is every prime dividing a
    coefficient.  This is complete: for any other prime, reduction mod p
    keeps the support and every coefficient valuation is zero, so every
    tropicalization equals the trivial one.  A reduction to zero gives
    the whole plane.
    """
    gens = list(gens)
    if len(gens) != 1:
        raise ValueError(
            f"need exactly one polynomial, got {len(gens)} "
            "(the union over valuations is exact only for a principal ideal)"
        )
    (f,) = gens
    if f.ring.kind != "Z":
        raise ValueError("prime-union tropicalization needs Z coefficients")
    primes = coefficient_primes(f)
    settings = [("trivial over Q", TRIVIAL, None)]
    for p in primes:
        settings.append((f"{p}-adic over Q", padic(p), None))
        settings.append((f"trivial over F_{p}", TRIVIAL, p))
    entries = []
    for label, val, red in settings:
        g = f if red is None else map_coefficients(f, GF(red))
        entries.append(ValuationEntry(label, sphere_projection(tropicalize(g, val))))
    sphere_union = union_all(e.arcs for e in entries)
    return ValuationUnionReport(primes, entries, sphere_union)
