"""Determinantal invariants of the twisted chain complex.

Everything here works on the two matrices (d2, d1) produced by
``fpgroup.alexander_matrices``: homology jump ideals as minor ideals,
the twisted Alexander polynomial (the GCD of the (n-1)r-minors of d2,
one canonical LaurentPoly, so "delta is 0 or 1" reads off the
polynomials 0 and 1), the obstruction built on it, and the Novikov-ring
admissibility check for a representation under a valuation.

Neither delta nor J1 enumerates the minors of d2; the rank of phi
chooses one of two routes.

phi of rank 0 (finite abelianization).  Every entry of d2 and d1 is a
constant of the PID Z or F, so each ideal is principal, generated by a
determinantal divisor D_k, the gcd of the k-minors:

    delta = D_(n-1)r(d2),  J0 = (D_r(d1)),
    J1 = (gcd over a of D_a(d2) * D_(nr-a)(d1))

by I_s(diag(A, B)) = sum over a + b = s of I_a(A) I_b(B).  D_k is 0
above the rank; below it D_k is 1 over a field (one rank_laurent) and
the product of the first k invariant factors over Z (one Smith form).

phi of rank >= 1: kernel duality.  d2 is m x nr, d1 is nr x r and
d2 * d1 = 0, so with rank d1 = r and k = (n-1)r every k-row slice R of
d2 of rank k spans the left kernel of d1, and its k-minors are d1's
complementary r-minors times one factor:

    det d2[R, S] = +-c_R * det d1[S^c],   c_R = det d2[R, S0] / det d1[S0^c]

for any S0 with det d1[S0^c] != 0.  A slice with det d2[R, S0] = 0 has
rank below k and no nonzero k-minor.  So the k-minors of d2 are the
c_R * q for q in J0 = I_r(d1), delta = gcd_R(c_R * gcd J0), and the
maximal minors of d2[:, S0], one per row slice, replace all
C(m, k) * C(nr, k) minors (Wada, Topology 33, 1994; Kirk-Livingston,
Topology 38, 1999).  One Laplace expansion over the k columns of
d2[:, S0] (linalg.maximal_minors) takes all of them at once, sharing
each partial minor among the slices that contain its rows; it hands over
to one Bareiss elimination per slice only when its products or its live
terms pass their bounds.  S0 is the complement of the generator block
sigma(x_i) t^phi(x_i) - I of d1 for the first x_i with phi(x_i) != 0,
which exists as phi is onto Z^m.  With s = t^phi(x_i) a nonconstant
monomial, that block's determinant det(sigma(x_i) s - I) has constant
term (-1)^r, so it is nonzero over every ring.

Only gcd J0 enters delta, and every generator block's determinant is
itself an r-minor of d1.  So when the gcd of the blocks is a unit, it is
gcd J0, and no other minor of d1 is taken; otherwise gcd J0 is folded
over all C(nr, r) r-minors.  J0's generators are enumerated only for
jump_ideal(i=0) and when a caller reads J1's generators.

A determinant is a polynomial in the entries, so it commutes with the
coefficient maps of rings.scalar_map.  So one TwistedComplex is read at
any ring F that the representation's ring R maps into, in two stages.
Stage 1 walks the relators once and takes den, the nonzero maximal
minors num of d2[:, S0], the other blocks and g0 = gcd J0 over R, each
on first use, and divides each slice once: q_R = num * g0 / den.
Stage 2 takes the q_R into F, drops those that vanish there and folds
their gcd, times gcd J0 over F / image(g0): exact, as image(g0) divides
every r-minor's image, nonzero, as g0 divides den, and a unit unless J0
grows in F (for <x1, x2 | x1^2 x2^-2> with sigma(x2) = -1, from 1 over
Z to 1 + t1 over F_2).  den survives by its constant term, which is why
S0 is chosen by phi and not as the first block with a nonzero
determinant: a constant block, such as det(-1 - 1) = -2, can vanish
mod 2.  At phi of rank 0, d2 and d1 are taken into F and read by their
divisors.

J1 is generated by the (n*r)-minors of diag(d2, d1), but that block
matrix is never built: a minor of a block-diagonal matrix is zero unless
it takes as many rows as columns from each block, and then it is the
product of the two block minors.  rank d1 = r and rank d2 <= (n-1)r
leave only the products of a (n-1)r-minor of d2 and an r-minor of d1,
which by duality are the c_R*q_a*q_b over the generators q_a, q_b of
J0, each formed once per unordered pair (b >= a).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

from . import fpgroup, linalg
from .laurent import (
    LaurentPoly,
    _exact_div_strict,
    canonical_associate,
    gcd_list,
    is_unit,
    map_coefficients,
    render,
    squarefree_part,
)
from .rings import valuate


# -- minors and ideals ------------------------------------------------------


def minors(M, k):
    """All k x k minors of a LaurentPoly matrix, 1 <= k, canonicalized
    and deduped; zero minors are dropped."""
    out = []
    seen = set()
    for rsel in combinations(range(len(M)), k):
        for csel in combinations(range(len(M[0])), k):
            sub = [[M[i][j] for j in csel] for i in rsel]
            d = linalg.det_laurent(sub)
            if d.is_zero:
                continue
            d = canonical_associate(d)
            key = d.key()
            if key not in seen:
                seen.add(key)
                out.append(d)
    return out


class IdealGens:
    """A finite generating set for an ideal of Laurent polynomials in
    nvars variables over ring.

    Generators are stored as deduplicated canonical associates with zeros
    dropped; the zero ideal is the empty list with is_zero_ideal set, and
    its gcd is the zero polynomial of ring and nvars.  A caller that knows
    the generators' gcd passes it as its canonical associate; then the
    ideal is zero exactly when the gcd is, and the generator iterable is
    left unconsumed until .generators is first read.  Otherwise gcd()
    folds gcd_list over the generators once.
    """

    def __init__(self, ring, nvars, generators, gcd=None):
        self._source = generators
        if gcd is None:
            self.is_zero_ideal = not self.generators
            gcd = LaurentPoly.zero(ring, nvars) if self.is_zero_ideal else None
        else:
            self.is_zero_ideal = gcd.is_zero
        self._gcd = gcd

    @cached_property
    def generators(self):
        gens = []
        seen = set()
        for g in self._source:
            if g.is_zero:
                continue
            g = canonical_associate(g)
            key = g.key()
            if key not in seen:
                seen.add(key)
                gens.append(g)
        return gens

    def __repr__(self):
        if self.is_zero_ideal:
            return "<IdealGens (0)>"
        return f"<IdealGens {len(self.generators)} gens>"

    def gcd(self):
        if self._gcd is None:
            self._gcd = gcd_list(self.generators)
        return self._gcd


def _divisors(M, ring):
    """[D_0, D_1, .., D_rank] of a matrix of constants (phi of rank 0),
    taken into ring.

    D_k, the gcd of the k-minors, is 0 above the rank.  Up to the rank
    it is 1 over a field and the product of the first k invariant
    factors of the Smith form over Z.
    """
    M = [[map_coefficients(x, ring) for x in row] for row in M]
    if ring.kind != "Z":
        return [1] * (linalg.rank_laurent(M) + 1)
    out = [1]
    for d in linalg.smith_normal_form([[x.terms.get((), 0) for x in row] for row in M])[0]:
        if not d:
            break
        out.append(out[-1] * d)
    return out


def _divisor(divisors, k):
    return divisors[k] if k < len(divisors) else 0


def _nonzero_into(polys, ring):
    """The polys taken into ring, without those that vanish there."""
    return [g for f in polys if not (g := map_coefficients(f, ring)).is_zero]


class TwistedComplex:
    """The twisted chain complex of (pres, rep, phi): delta, gcd J0 and
    gcd J1 at any ring that rep.ring maps into, by the two stages of the
    module docstring.  Nothing here checks that sigma is defined over that
    ring: a caller that reads a field F asks rep.over(F) first, which
    refuses an entry of sigma with no image in F.
    """

    def __init__(self, pres, rep, phi=None):
        if phi is None:
            phi = fpgroup.AbelianEpi.from_abelianization(pres)
        self.ngens, self.ring, self.phi, self.r = pres.ngens, rep.ring, phi, rep.rank
        self.d2, self.d1 = fpgroup.alexander_matrices(pres, rep, phi)  # the one walk
        # S0's block: the first generator with phi(x_i) != 0 (none at rank 0)
        self._top = next((self.r * i for i, v in enumerate(phi.vectors) if any(v)), None)
        self._stage1 = self._q = self._blocks = None  # taken on first use

    def slices(self):
        """(den, nums) over rep.ring: den = det(sigma(x_i) s - I) for S0's
        block, and the nonzero det d2[R, S0], one per row slice R."""
        if self._stage1 is None:
            d2, d1, top, r = self.d2, self.d1, self._top, self.r
            den = linalg.det_laurent(d1[top:top + r])
            cols = list(range(top)) + list(range(top + r, len(d1)))
            # n = 1 leaves k = 0 and one empty slice, of determinant 1
            nums = (linalg.maximal_minors([[row[j] for j in cols] for row in d2]) if cols
                    else [LaurentPoly.one(den.ring, den.nvars)])
            self._stage1 = den, nums
        return self._stage1

    def gcd_j0(self, ring):
        """gcd J0 over ring, the gcd of the r-minors of d1 (zero when they
        all vanish).  At phi of rank >= 1 it is the gcd of the generator
        blocks when that is a unit, which gcd_list returns as 1, and of
        every r-minor of d1 taken into ring otherwise."""
        d1, r = self.d1, self.r
        if not self.phi.m:
            return LaurentPoly.constant(ring, 0, _divisor(_divisors(d1, ring), r))
        if self._blocks is None:  # the other blocks' nonzero determinants
            self._blocks = [b for i in range(0, len(d1), r) if i != self._top
                            if not (b := linalg.det_laurent(d1[i:i + r])).is_zero]
        g0 = gcd_list(_nonzero_into([self.slices()[0]] + self._blocks, ring))
        if is_unit(g0):
            return g0
        return gcd_list(minors([[map_coefficients(x, ring) for x in row] for row in d1], r))

    def _by_duality(self, ring):
        """(delta, gcd J0) over ring at phi of rank >= 1, by the two stages
        of the module docstring.  When every q_R vanishes there, delta is
        zero and gcd J0 is not taken (None)."""
        if self._q is None:  # stage 1, without g0 when there is no slice
            den, nums = self.slices()
            g0 = self.gcd_j0(self.ring) if nums else None
            self._q = g0, [_exact_div_strict(num if is_unit(g0) else num * g0, den)
                           for num in nums]
        g0, qs = self._q
        qs = _nonzero_into(qs, ring)
        if not qs:
            return LaurentPoly.zero(ring, self.phi.m), None
        delta = gcd_list(qs)
        if ring == self.ring:
            return delta, g0
        g0_ring = self.gcd_j0(ring)
        grown = _exact_div_strict(g0_ring, map_coefficients(g0, ring))
        return (delta if is_unit(grown) else canonical_associate(delta * grown)), g0_ring

    def delta(self, ring):
        """delta over ring."""
        if not self.phi.m:
            k = (self.ngens - 1) * self.r
            return LaurentPoly.constant(ring, 0, _divisor(_divisors(self.d2, ring), k))
        return self._by_duality(ring)[0]

    def gcd_j1(self, ring):
        """gcd J1 over ring: delta * gcd J0 at phi of rank >= 1, and at phi
        of rank 0 the gcd over a of D_a(d2) * D_(nr-a)(d1)."""
        if not self.phi.m:
            div1, size = _divisors(self.d1, ring), self.r * self.ngens
            gen = math.gcd(*(p * _divisor(div1, size - a)
                             for a, p in enumerate(_divisors(self.d2, ring))))
            return LaurentPoly.constant(ring, 0, gen)
        delta, g0 = self._by_duality(ring)
        return delta if g0 is None else canonical_associate(delta * g0)

    def alexander(self, ring, squarefree=False):
        """twisted_alexander(pres, rep.over(ring), phi, squarefree)."""
        delta = self.delta(ring)
        if squarefree:
            delta = squarefree_part(delta)
        return AlexVerdict(canonical_associate(delta))


def jump_ideal(pres, rep, phi=None, i=1):
    """Degree-i homology jump ideal of the twisted presentation complex.

    Generated by the minors of size r*c_i of the block matrix
    diag(d_{i+1}, d_i), with chain ranks c_0 = 1 and c_1 = n.  Only
    degrees 0 and 1 exist for a presentation 2-complex.  J0 needs d1
    alone, since the zero columns of d0 enter no nonzero minor, and takes
    no determinant of d2.

    J1 never builds diag(d2, d1); see the module docstring for both
    routes.  At phi of rank 0 each ideal comes back on its one generator,
    a determinantal divisor.  Otherwise J0 is generated by the r-minors
    of d1, and J1 by the c_R*q_a*q_b with q_a, q_b in J0, so gcd J1 =
    delta * gcd J0.  As c_R*q_a*q_b = c_R*q_b*q_a, only b >= a is formed:
    the pairs b < a are the duplicates that IdealGens would drop, so the
    generators and their order are those of the full product.  J1 gets
    that gcd up front, so J0's generators and the products are formed
    only if a caller reads J1's generators.
    """
    if i not in (0, 1):
        raise ValueError("jump ideals are defined here for degrees 0 and 1 only")
    complex_, ring = TwistedComplex(pres, rep, phi), rep.ring
    if not complex_.phi.m:
        return IdealGens(ring, 0, [complex_.gcd_j1(ring) if i else complex_.gcd_j0(ring)])
    d1 = complex_.d1
    if i == 0:
        return IdealGens(ring, complex_.phi.m, minors(d1, rep.rank))
    den, nums = complex_.slices()

    def gens():
        gens0 = minors(d1, rep.rank) if nums else []
        for num in nums:
            for a, q in enumerate(gens0):
                p = _exact_div_strict(num * q, den)
                yield from (p * q_b for q_b in gens0[a:])

    return IdealGens(ring, complex_.phi.m, gens(), gcd=complex_.gcd_j1(ring))


# -- twisted Alexander polynomial -------------------------------------------


class AlexVerdict:
    """Outcome of a twisted Alexander polynomial computation.

    delta is a canonical LaurentPoly: the zero polynomial when all relevant
    minors vanish, the polynomial 1 when their GCD is a unit.  Over Z the
    integer content is kept, so delta may be a non-unit constant; such a
    constant still counts as "unit over the fraction field" for the
    obstruction test.  Off the common zero set of the r-minors of d1 (the
    generators of jump_ideal(i=0)) the minor route and the homology module
    define the same hypersurface.
    """

    def __init__(self, delta):
        self.delta = delta
        self.ring = delta.ring

    @property
    def is_zero(self):
        return self.delta.is_zero

    def delta_poly(self):
        return self.delta

    def describe(self):
        return render(self.delta)

    def __repr__(self):
        return f"<AlexVerdict {self.describe()}>"


def twisted_alexander(pres, rep, phi=None, squarefree=False):
    """Twisted Alexander polynomial: the GCD of the (n-1)*r minors of d2.

    The zero polynomial when the generic rank of d2 is below (n-1)*r (an
    empty d2 has rank 0), otherwise that GCD (canonical associate, so a
    unit GCD is 1; integer content kept over Z; squarefree part only if
    requested).  At phi of rank 0 it is the determinantal divisor
    D_(n-1)r(d2); otherwise it comes from J0 and the maximal minors of
    d2[:, S0], one per row slice, by kernel duality (see the module
    docstring).  The excluded locus is not computed here: read it from
    jump_ideal(pres, rep, phi, i=0).
    """
    return TwistedComplex(pres, rep, phi).alexander(rep.ring, squarefree)


# -- obstruction and admissibility ------------------------------------------


class KahlerVerdict:
    def __init__(self, consistent, witnesses):
        self.consistent = consistent
        self.witnesses = list(witnesses)

    def __repr__(self):
        if self.consistent:
            return "<KahlerVerdict Consistent>"
        return f"<KahlerVerdict NotKahler {[w.ring.tag() for w in self.witnesses]}>"


def kahler_obstruction(verdicts):
    """A group whose twisted Alexander polynomial is neither 0 nor a unit
    (over some coefficient field) cannot be a Kahler group.

    One-sided: Consistent never certifies the group as Kahler.  The
    witnesses are the offending verdicts, sorted by their ring's tag.
    """
    verdicts = list(verdicts)
    if not verdicts:
        raise ValueError("need at least one verdict")
    # 0 has no term, and any single term c*t^e is a unit once
    # coefficients live in a field
    witnesses = sorted((v for v in verdicts if len(v.delta.terms) > 1),
                       key=lambda v: v.ring.tag())
    return KahlerVerdict(not witnesses, witnesses)


class NovikovVerdict:
    def __init__(self, ok, condition=None, reason=None):
        self.ok = ok
        self.condition = condition
        self.reason = reason

    def __repr__(self):
        if self.ok:
            return f"<NovikovVerdict Yes({self.condition})>"
        return f"<NovikovVerdict No({self.reason})>"


def novikov_admissible(rep, valuation, check_finite_image=False):
    """Is sigma admissible for the Novikov completion under this valuation?

    Trivial valuation: always Yes (condition a).  Otherwise the sufficient
    matrix test (condition c): every entry of every generator matrix and
    inverse has valuation >= 0, which traps the whole image inside GL_r of
    the valuation ring.  Determinant valuation 0 follows: det M and
    det M^-1 are then integral, and their product is 1.  The finite-image
    condition (b) is tried only on request: it holds when the bounded
    closure fpgroup._closure of the generator matrices stays within
    TROPLEX_MAX_QUOTIENT elements.
    """
    if valuation.kind == "trivial":
        return NovikovVerdict(True, condition="a")
    if rep.ring.kind == "FP":
        return NovikovVerdict(
            False, reason=f"{valuation!r} undefined on {rep.ring!r} coefficients"
        )
    ring = rep.ring
    if check_finite_image:
        frozen = lambda m: tuple(map(tuple, m))
        try:
            fpgroup._closure(
                [frozen(m) for m in rep.mats],
                lambda h, g: frozen(linalg.smat_mul(ring, h, g)),
                frozen(rep.identity()),
            )
            return NovikovVerdict(True, condition="b")
        except fpgroup.QuotientTooLarge:
            pass
    for mat in rep.mats + rep.invs:
        for row in mat:
            for x in row:
                # a zero entry's valuation is infinite, never negative
                val = valuate(valuation, x, ring) if x else 0
                if val < 0:
                    return NovikovVerdict(
                        False, reason=f"entry valuation {val} < 0"
                    )
    return NovikovVerdict(True, condition="c")
