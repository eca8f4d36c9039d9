"""An independent check of the trivial-representation Delta.

For a one-relator group on x1, x2 with the trivial representation, Delta
is the gcd of the two Fox derivatives of the relator, mapped to
Z[t1^+-1, t2^+-1] by the abelianization.  This module computes it with
its own Fox calculus and sympy's gcd, never with troplex.laurent.
"""

from __future__ import annotations

from collections import Counter


def abelian_fox(word):
    """The abelianized Fox derivatives d/dx1, d/dx2 as {(e1, e2): coeff}.

    d(x)/dx = 1 at the prefix's exponent; d(x^-1)/dx = -x^-1, that is
    minus the monomial of the prefix followed by x^-1.
    """
    derivs = (Counter(), Counter())
    pos = [0, 0]
    for x in word:
        g = abs(x) - 1
        if x > 0:
            derivs[g][tuple(pos)] += 1
            pos[g] += 1
        else:
            pos[g] -= 1
            derivs[g][tuple(pos)] -= 1
    return [{e: c for e, c in d.items() if c} for d in derivs]


def normalize(terms):
    """The associate up to units +-t^a: minimum exponents 0 and a positive
    coefficient at the least exponent tuple."""
    if not terms:
        return {}
    lo = [min(e[i] for e in terms) for i in range(2)]
    out = {(e[0] - lo[0], e[1] - lo[1]): c for e, c in terms.items()}
    if out[min(out)] < 0:
        out = {e: -c for e, c in out.items()}
    return out


def delta(word):
    """Normalized gcd of the abelianized Fox derivatives, via sympy."""
    from sympy import Poly, ZZ, symbols

    t = symbols("t1 t2")
    polys = [Poly.from_dict(normalize(d) or {(0, 0): 0}, *t, domain=ZZ)
             for d in abelian_fox(word)]
    g = polys[0].gcd(polys[1])
    return normalize({e: int(c) for e, c in g.as_dict().items() if c})
