"""Second routes to what troplex computes, kept only as test oracles.

The program computes every result one way; each function here reaches
the same result another way (word by word, cell by cell, or by evaluation
at a character), so that the tests can check one against the other.
Nothing in src/troplex calls them.
"""

import itertools
import math
from fractions import Fraction

from operator import add, lt, sub

from troplex import linalg, tropical
from troplex.laurent import LaurentPoly, _lex_key
from troplex.rings import QQ
from troplex.sphere import antipode, cross, normalize_dir, same_dir


# -- the normal form of a scalar ----------------------------------------------


def normal_type(ring, c):
    """The one type that the value c has in ring's normal form: Fraction
    for a non-integral rational, int for everything else (Z, F_p and an
    integral rational).  A float has no denominator and fails here."""
    return Fraction if ring.kind == "Q" and c.denominator != 1 else int


# -- words and the free Fox derivative ----------------------------------------


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def fox_derivative(word, i):
    """The free Fox derivative d(word)/d(x_{i+1}) as {prefix word: int}.

    Rules: d(x)/dx = 1, d(x^-1)/dx = -x^-1, d(uv)/dx = du/dx + u dv/dx.
    Prefixes are freely reduced; zero coefficients are dropped.  The
    oracle for fpgroup.alexander_matrices, which walks each relator once.
    """
    target = i + 1
    out = {}
    prefix = []
    for letter in word:
        if letter == target:
            key = tuple(prefix)
            out[key] = out.get(key, 0) + 1
        if prefix and prefix[-1] == -letter:
            prefix.pop()
        else:
            prefix.append(letter)
        if letter == -target:
            key = tuple(prefix)
            out[key] = out.get(key, 0) - 1
    return {w: c for w, c in out.items() if c != 0}


# -- determinants -------------------------------------------------------------


def leibniz_det(M):
    """Determinant of a square matrix of ints or Fractions, expanded over
    permutations, independent of the library routines."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= M[i][perm[i]]
        total += sign * prod
    return total


def smat_mul_by_terms(ring, A, B):
    """A * B by one ring.add and one ring.mul per term, each reduced at
    once: the oracle for linalg.smat_mul, which reduces each entry once."""
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero()
            for t in range(k):
                acc = ring.add(acc, ring.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


# -- homology at a character: the oracle for the jump loci ---------------------


def smat_rank(ring, M):
    """Rank over the ring's field of fractions."""
    return linalg._gauss_jordan(ring, M)[0]


def abelianization(pres):
    """(free rank, torsion orders, free coordinates per generator,
    torsion coordinates per generator) of G_ab.

    Row i of the unimodular Smith transform U of the exponent matrix M is
    a functional on Z^n; it sends the relators onto d_i Z with d_i the
    gcd of the entries of U[i] * M.  G_ab is the sum of Z/d_i over the
    rows with d_i > 1 and Z over the rows with d_i = 0, so generator j
    has coordinate U[i][j] mod d_i.  The d_i need not form a divisibility
    chain: Z/2 + Z/3 keeps its two orders."""
    n = pres.ngens
    M = pres.exponent_matrix()
    _, U = linalg.smith_normal_form(M)
    orders = [
        math.gcd(*(sum(u * row[c] for u, row in zip(U[i], M)) for c in range(pres.nrels)))
        for i in range(n)
    ]
    free_rows = [i for i, d in enumerate(orders) if d == 0]
    torsion_rows = [i for i, d in enumerate(orders) if d > 1]
    gen_free = [tuple(U[i][j] for i in free_rows) for j in range(n)]
    gen_torsion = [tuple(U[i][j] % orders[i] for i in torsion_rows) for j in range(n)]
    return len(free_rows), [orders[i] for i in torsion_rows], gen_free, gen_torsion


def _character_values(pres, ring, rho_free, torsion_values):
    free_rank, torsion, gen_free, gen_torsion = abelianization(pres)
    if len(rho_free) != free_rank:
        raise ValueError(f"need {free_rank} character values (free rank)")
    rho = [ring.check(x) for x in rho_free]
    if any(x == 0 for x in rho):
        raise ValueError("character values must be nonzero")
    tors = []
    if torsion:
        torsion_values = torsion_values or [ring.one()] * len(torsion)
        if len(torsion_values) != len(torsion):
            raise ValueError("need one torsion value per torsion order")
        for d, tau in zip(torsion, torsion_values):
            tau = ring.check(tau)
            acc = ring.one()
            for _ in range(d):
                acc = ring.mul(acc, tau)
            if acc != ring.one():
                raise ValueError(f"torsion value {tau} does not satisfy tau^{d} = 1")
            tors.append(tau)
    elif torsion_values:
        raise ValueError("presentation has no torsion characters")

    def power(base, k):
        if k < 0:
            return power(ring.inv(base), -k)
        acc = ring.one()
        for _ in range(k):
            acc = ring.mul(acc, base)
        return acc

    values = []
    for g in range(pres.ngens):
        val = ring.one()
        for x, e in zip(rho, gen_free[g]):
            val = ring.mul(val, power(x, e))
        for tau, e in zip(tors, gen_torsion[g]):
            val = ring.mul(val, power(tau, e))
        values.append(val)
    return values


def homology_dims_at_character(pres, rep, rho_free, torsion_values=None):
    """(dim H_0, dim H_1) of the sigma (x) rho - twisted complex at a character.

    rho_free lists nonzero field values for the free abelianization
    coordinates; torsion_values (optional) one root of unity per torsion
    order of abelianization().
    Representations over Z are computed over Q.  The complex is built
    from the free Fox derivatives evaluated at the character, sharing no
    code with alexander_matrices or the minor ideals.
    """
    ring = QQ if rep.ring.kind == "Z" else rep.ring
    if not ring.is_field:
        raise ValueError("character homology needs field coefficients")
    rep = rep.over(ring)
    values = _character_values(pres, ring, rho_free, torsion_values)
    inv_values = [ring.inv(v) for v in values]
    r = rep.rank
    n, m = pres.ngens, pres.nrels

    def scaled_image(letter):
        mat = rep.image(letter)
        scale = values[letter - 1] if letter > 0 else inv_values[-letter - 1]
        return [[ring.mul(scale, x) for x in row] for row in mat]

    def scaled_word(word):
        out = linalg.smat_identity(ring, r)
        for letter in word:
            out = linalg.smat_mul(ring, out, scaled_image(letter))
        return out

    d1 = [[ring.zero()] * r for _ in range(n * r)]
    for i in range(n):
        mat = scaled_image(i + 1)
        for a in range(r):
            for b in range(r):
                entry = mat[a][b]
                if a == b:
                    entry = ring.sub(entry, ring.one())
                d1[i * r + a][b] = entry
    d2 = [[ring.zero()] * (n * r) for _ in range(m * r)]
    for j, rel in enumerate(pres.relators):
        for i in range(n):
            block = [[ring.zero()] * r for _ in range(r)]
            for word, coeff in fox_derivative(rel, i).items():
                mat = scaled_word(word)
                c = ring.from_int(coeff)
                for a in range(r):
                    for b in range(r):
                        block[a][b] = ring.add(block[a][b], ring.mul(c, mat[a][b]))
            for a in range(r):
                for b in range(r):
                    d2[j * r + a][i * r + b] = block[a][b]
    rank1 = smat_rank(ring, d1)
    rank2 = smat_rank(ring, d2)
    return r - rank1, n * r - rank1 - rank2


# -- Laurent matrices ------------------------------------------------------------


def lmat_identity(ring, nvars, n):
    one = LaurentPoly.one(ring, nvars)
    zero = LaurentPoly.zero(ring, nvars)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def lmat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def exact_div_by_scan(f, g):
    """f / g in the Laurent ring, or None when g does not divide f: long
    division that scans the whole remainder for its lex-leading term at
    every step.  The oracle for laurent.exact_div, which keeps a heap.
    A quotient term below min_exponents(f) - min_exponents(g) in some
    variable proves the division inexact, as there.
    """
    if f.is_zero:
        return f
    R = f.ring
    p = R.p
    low = tuple(map(sub, f.min_exponents(), g.min_exponents()))
    gl = max(g.terms, key=_lex_key)
    glc = g.terms[gl]
    inv = None if R.kind == "Z" else R.inv(glc)
    tail = [(e, c) for e, c in g.terms.items() if e != gl]
    rem = dict(f.terms)
    q = {}
    while rem:
        rl = max(rem, key=_lex_key)
        e = tuple(map(sub, rl, gl))
        if any(map(lt, e, low)):
            return None
        c = rem.pop(rl)
        if inv is None:
            qc, r = divmod(c, glc)
            if r:
                return None
        else:
            qc = c * inv % p if p else c * inv
        q[e] = qc
        for ge, gc in tail:
            ke = tuple(map(add, e, ge))
            s = rem.get(ke, 0) - qc * gc
            if p:
                s %= p
            if s:
                rem[ke] = s
            else:
                rem.pop(ke, None)
    return LaurentPoly(R, f.nvars, q)


# -- directions and Newton polygons ----------------------------------------------


def normalize_dir_by_fractions(v):
    """Primitive integer direction of a nonzero rational vector, through
    Fractions scaled by the lcm of the denominators.  The oracle for
    sphere.normalize_dir, which cross-multiplies integer ratios."""
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise ValueError("the zero vector has no direction")
    scale = math.lcm(x.denominator, y.denominator)
    ix, iy = int(x * scale), int(y * scale)
    g = math.gcd(ix, iy)
    return (ix // g, iy // g)


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


def contains(s, d):
    """Is the direction d (any nonzero rational vector) in the SphereArcSet
    s?  Scans every component with cross products.  The oracle for the
    set algebra, which marks atoms by boundary index and tests no point."""
    d = normalize_dir(d)
    if s.full:
        return True
    for comp in s.components:
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


def on_edge(p, q, u):
    """Does the integer point u lie on the segment [p, q] (p != q)?  The
    segment test for Newton polygon edges: collinear with [p, q], and
    between its ends."""
    e = (q[0] - p[0], q[1] - p[1])
    r = (u[0] - p[0], u[1] - p[1])
    if e[0] * r[1] - e[1] * r[0] != 0:
        return False
    return 0 <= r[0] * e[0] + r[1] * e[1] <= e[0] * e[0] + e[1] * e[1]


def edge_supports_by_scan(f):
    """{primitive inward normal: support points on that edge} over the
    edges of f's Newton polygon, testing every point for lying on the
    edge's segment.  The oracle for the ray labels of trop_Z_principal,
    which compares each point's level under the normal instead."""
    support = sorted(f.terms)
    hull = tropical._convex_hull(support)
    out = {}
    for u, v in zip(hull, hull[1:] + hull[:1]):
        n_in = normalize_dir((u[1] - v[1], v[0] - u[0]))
        out[n_in] = tuple(p for p in support if on_edge(u, v, p))
    return out


# -- tropical cells: the oracle for trop_contains and trop_Z_contains -----------


def cell_contains(c, w):
    """Is the point w in the closed cell c?  Read off the cell's geometry."""
    w = tuple(Fraction(x) for x in w)
    if c.kind == "vertex":
        return w == c.base
    if c.kind == "segment":
        return _on_segment(c.base, c.end, w)
    if c.kind == "ray":
        s = _ray_param(c.base, c.dir, w)
        return s is not None and s >= 0
    return _in_cone2(c.base, c.dir, c.dir2, w)


def complex_contains(T, w):
    return any(cell_contains(c, w) for c in T.cells)


def _on_segment(p, q, w):
    """Is w on the planar segment [p, q]?  (Segments only arise in the plane.)"""
    d = tuple(b - a for a, b in zip(p, q))
    r = tuple(b - a for a, b in zip(p, w))
    if d[0] * r[1] - d[1] * r[0] != 0:
        return False
    t = None
    for dd, rr in zip(d, r):
        if dd != 0:
            t = rr / dd
            break
    if t is None:
        return all(x == 0 for x in r)
    return 0 <= t <= 1 and all(rr == t * dd for dd, rr in zip(d, r))


def _ray_param(base, direction, w):
    r = tuple(b - a for a, b in zip(base, w))
    if len(base) == 2 and direction[0] * r[1] - direction[1] * r[0] != 0:
        return None
    s = None
    for dd, rr in zip(direction, r):
        if dd != 0:
            s = rr / dd
            break
    if s is None:
        return Fraction(0) if all(x == 0 for x in r) else None
    if all(rr == s * dd for dd, rr in zip(direction, r)):
        return s
    return None


def _in_cone2(base, d1, d2, w):
    r = tuple(b - a for a, b in zip(base, w))
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det == 0:
        raise ValueError("cone2 with dependent directions")
    s = Fraction(r[0] * d2[1] - r[1] * d2[0], det)
    t = Fraction(d1[0] * r[1] - d1[1] * r[0], det)
    return s >= 0 and t >= 0


def vertices(T):
    """0-cells of the complex: cell corner points that are not smooth
    interior points (a point with exactly two opposite incident
    directions and no other cell data is interior to an edge)."""
    incid = {}
    for c in T.cells:
        if c.kind == "vertex":
            incid.setdefault(c.base, set()).add(None)
        elif c.kind == "segment":
            d = _primitive(tuple(b - a for a, b in zip(c.base, c.end)))
            incid.setdefault(c.base, set()).add(d)
            incid.setdefault(c.end, set()).add(antipode(d))
        elif c.kind == "ray":
            incid.setdefault(c.base, set()).add(tuple(c.dir))
        else:
            incid.setdefault(c.base, set()).add(tuple(c.dir))
            incid.setdefault(c.base, set()).add(tuple(c.dir2))
    out = []
    for pt, dirs in sorted(incid.items()):
        real = [d for d in dirs if d is not None]
        if len(real) == 2 and real[0] == antipode(real[1]):
            continue
        out.append(pt)
    return out


def _primitive(v):
    if len(v) == 2:
        return normalize_dir(v)
    if v[0] == 0:
        raise ValueError("zero vector")
    return (1,) if v[0] > 0 else (-1,)
