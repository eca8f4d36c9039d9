"""The subdivision walk of trop_hypersurface against pair enumeration.

The oracle is the enumeration the walk replaced: it clips the tie line of
every pair of terms against every term, O(n^3) exact operations, so it runs
only here, on small polynomials.  Unlike the walk, it clips pieces of one
cell from several pairs, so it drops every cell that lies inside another.
It shares no arithmetic with the walk: its heights, tie-line clipping and
minimal-term labels are the Fraction versions below, where the walk works
in integers.  Both sides are compared through the TSV rows the CLI prints,
which carry every cell's geometry and label.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import cell_contains
from troplex import tropical
from troplex.cli import _tsv_rows
from troplex.laurent import LaurentPoly
from troplex.rings import GF, QQ, TRIVIAL, ZZ, padic, valuate
from troplex.sphere import antipode, normalize_dir
from troplex.tropical import (
    Cell,
    TropicalComplex,
    _convex_hull,
    _dedupe_cells,
    trop_hypersurface,
)


def term_heights(f, valuation):
    return [(u, Fraction(valuate(valuation, c, f.ring))) for u, c in sorted(f.terms.items())]


def argmin_label(items, w):
    vals = [(h + sum(e * x for e, x in zip(u, w)), u) for u, h in items]
    best = min(v for v, _ in vals)
    return tuple(sorted(u for v, u in vals if v == best))


def clip_tie_line(items, i, j, a, rhs):
    """Cells of {w : a.w = rhs, term i minimal} as vertex/segment/rays."""
    u1, h1 = items[i]
    norm = Fraction(a[0] * a[0] + a[1] * a[1])
    base = (rhs * a[0] / norm, rhs * a[1] / norm)
    d = normalize_dir((-a[1], a[0]))
    lo, hi = None, None  # None encodes the infinite end
    for k, (u3, h3) in enumerate(items):
        if k in (i, j):
            continue
        # (h1 + u1.w) <= (h3 + u3.w) along w = base + s*d
        du = (u1[0] - u3[0], u1[1] - u3[1])
        c0 = (h1 - h3) + du[0] * base[0] + du[1] * base[1]
        c1 = du[0] * d[0] + du[1] * d[1]
        if c1 == 0:
            if c0 > 0:
                return []
            continue
        bound = -c0 / c1
        if c1 > 0:
            if hi is None or bound < hi:
                hi = bound
        elif lo is None or bound > lo:
            lo = bound
    at = lambda s: (base[0] + s * d[0], base[1] + s * d[1])
    if lo is not None and hi is not None:
        if lo > hi:
            return []
        if lo == hi:
            return [Cell("vertex", at(lo))]
        return [Cell("segment", at(lo), end=at(hi))]
    if lo is not None:
        return [Cell("ray", at(lo), dir=d)]
    if hi is not None:
        return [Cell("ray", at(hi), dir=antipode(d))]
    return [Cell("ray", base, dir=d), Cell("ray", base, dir=antipode(d))]


def _pair_enum_line(items):
    points = set()
    n = len(items)
    for i in range(n):
        u1, h1 = items[i]
        for j in range(i + 1, n):
            u2, h2 = items[j]
            du = u1[0] - u2[0]
            if du == 0:
                continue
            x = (h2 - h1) / du  # Fraction heights: an exact rational
            value = h1 + u1[0] * x
            if all(value <= h + u[0] * x for u, h in items):
                points.add(x)
    cells = [Cell("vertex", (x,)) for x in sorted(points)]
    for c in cells:
        c.label = argmin_label(items, c.base)
    return TropicalComplex(1, cells)


def _cell_subsumed(c, d):
    """Is cell c geometrically contained in a different cell d?"""
    if c.kind == "vertex":
        return d.kind != "vertex" and cell_contains(d, c.base)
    if c.kind == "segment":
        return d.kind != "vertex" and cell_contains(d, c.base) and cell_contains(d, c.end)
    if c.kind == "ray":
        if d.kind == "ray":
            return tuple(c.dir) == tuple(d.dir) and cell_contains(d, c.base)
        if d.kind == "cone2":
            return cell_contains(d, c.base) and cell_contains(d, c.interior_point())
    return False


def _pair_enum_plane(items):
    n = len(items)
    raw = []
    for i in range(n):
        u1, h1 = items[i]
        for j in range(i + 1, n):
            u2, h2 = items[j]
            a = (u1[0] - u2[0], u1[1] - u2[1])
            if a == (0, 0):
                continue
            raw.extend(clip_tie_line(items, i, j, a, h2 - h1))
    cells = _dedupe_cells(raw)
    cells = [c for c in cells if not any(d is not c and _cell_subsumed(c, d) for d in cells)]
    for c in cells:
        c.label = argmin_label(items, c.interior_point())
    return TropicalComplex(2, cells)


def oracle_hypersurface(f, valuation):
    items = term_heights(f, valuation)
    if len(items) == 1:
        return TropicalComplex(f.nvars, [])
    if f.nvars == 1:
        return _pair_enum_line(items)
    return _pair_enum_plane(items)


# (ring, valuation, prime that shapes the coefficients)
SETTINGS = [
    (ZZ, TRIVIAL, 2),
    (ZZ, padic(2), 2),
    (ZZ, padic(3), 3),
    (QQ, TRIVIAL, 3),
    (QQ, padic(2), 2),
    (QQ, padic(3), 3),
    (GF(2), TRIVIAL, 2),
    (GF(3), TRIVIAL, 3),
    (GF(5), TRIVIAL, 5),
]


def coefficient(ring, p, k, m):
    """A nonzero coefficient of ring whose p-adic valuation varies with k."""
    if ring.kind == "FP":
        return 1 + m % (ring.p - 1) if ring.p > 2 else 1
    if ring.kind == "Z":
        return m * p ** k
    return Fraction(m, p ** 2) * p ** k


def support(nvars, box):
    return sorted({p[:nvars] for p in box})


def line_support(base, step, ks):
    return sorted({(base[0] + k * step[0], base[1] + k * step[1]) for k in ks})


def build(setting, exps, draws):
    ring, val, p = SETTINGS[setting]
    nvars = len(exps[0])
    terms = {u: coefficient(ring, p, k, m) for u, (k, m) in zip(exps, draws)}
    return LaurentPoly(ring, nvars, terms), val


def assert_walk_matches(f, val):
    assert _tsv_rows(trop_hypersurface(f, val)) == _tsv_rows(oracle_hypersurface(f, val))


def random_case(rng):
    if rng.random() < 0.25:
        step = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3), (2, 2)])
        base = (rng.randint(-3, 3), rng.randint(-3, 3))
        exps = line_support(base, step, rng.sample(range(9), rng.randint(1, 7)))
    else:
        box = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 12))]
        exps = support(rng.choice((1, 2, 2)), box)
    draws = [
        (rng.randint(0, 4), rng.choice((-1, 1)) * rng.randint(1, 7)) for _ in exps
    ]
    return build(rng.randrange(len(SETTINGS)), exps, draws)


def test_walk_matches_pair_enumeration_seeded():
    rng = random.Random(311)
    for _ in range(600):
        assert_walk_matches(*random_case(rng))


def test_walk_matches_on_coplanar_and_collinear_lifts():
    # trivial valuation: every lifted point on one plane, one vertex at 0
    dense = LaurentPoly(QQ, 2, {(a, b): 1 + a * b for a in range(4) for b in range(4)})
    T = trop_hypersurface(dense, TRIVIAL)
    assert {c.base for c in T.cells} == {(0, 0)}
    assert_walk_matches(dense, TRIVIAL)
    # collinear support, heights 0, 2, 0, 3: the lower chain has two edges,
    # so two parallel lines
    line = LaurentPoly(QQ, 2, {(0, 0): 1, (1, 1): 4, (2, 2): 1, (3, 3): 8})
    T = trop_hypersurface(line, padic(2))
    assert sorted(c.dir for c in T.cells) == [(-1, 1), (-1, 1), (1, -1), (1, -1)]
    assert_walk_matches(line, padic(2))


@pytest.mark.parametrize("degree", [2, 3])
def test_rank_1_vertex_is_an_exact_fraction(degree):
    """2 + t1^k under the 2-adic valuation: integer heights 1 and 0 give one
    vertex at 1/k, a Fraction (int / int would give the float 0.333...)."""
    f = LaurentPoly(ZZ, 1, {(0,): 2, (degree,): 1})
    (c,) = trop_hypersurface(f, padic(2)).cells
    assert (c.kind, c.base, c.label) == ("vertex", (Fraction(1, degree),), ((0,), (degree,)))
    assert type(c.base[0]) is Fraction
    assert_walk_matches(f, padic(2))


@st.composite
def polynomials(draw):
    setting = draw(st.integers(0, len(SETTINGS) - 1))
    nvars = draw(st.sampled_from((1, 2)))
    coords = st.integers(-4, 4)
    if nvars == 2 and draw(st.booleans()):
        step = draw(st.tuples(st.integers(-2, 2), st.integers(1, 3)))
        base = draw(st.tuples(coords, coords))
        ks = draw(st.sets(st.integers(0, 8), min_size=1, max_size=8))
        exps = line_support(base, step, ks)
    else:
        exps = support(nvars, draw(st.sets(st.tuples(coords, coords), min_size=1, max_size=11)))
    draws = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(-9, 9).filter(bool)),
            min_size=len(exps),
            max_size=len(exps),
        )
    )
    return build(setting, exps, draws)


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_walk_matches_pair_enumeration_property(case):
    assert_walk_matches(*case)


def test_clip_count_is_linear_in_the_cells(monkeypatch):
    """A 121-term polynomial: pair enumeration would clip 7260 tie lines."""
    rng = random.Random(313)
    terms = {
        (a, b): Fraction(2) ** rng.randint(0, 6) for a in range(11) for b in range(11)
    }
    f = LaurentPoly(QQ, 2, terms)
    calls = []

    clip = tropical._clip_tie_line

    def counting(*args):
        calls.append(args[1:3])
        return clip(*args)

    monkeypatch.setattr(tropical, "_clip_tie_line", counting)
    T = trop_hypersurface(f, padic(2))
    hull_edges = len(_convex_hull(list(terms)))
    assert len(T.cells) > 2 * hull_edges
    assert len(calls) <= hull_edges + 2 * len(T.cells)
    assert len(set(calls)) == len(calls)  # no tie line is clipped twice
