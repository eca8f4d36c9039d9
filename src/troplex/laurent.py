"""Multivariate Laurent polynomials with exact coefficients.

A polynomial is a dict mapping exponent tuples (negative entries allowed)
to nonzero coefficients of a fixed :class:`~troplex.rings.Ring`.  All
arithmetic is exact; units are ``c * t^u`` with ``c`` a unit of the
coefficient ring.

Term order
----------
Terms print and compare in lexicographic exponent order with the *last*
variable most significant, so ``1 - 2*t1 + t1^2 - 3*t2^2`` is canonical.
That expanded rendering (coefficient 1 omitted on nonconstant terms,
exponents as ``t3^-2``, single spaces around ``+``/``-``) is the
golden-file contract for every consumer of ``str(f)``.

Normal form
-----------
Every polynomial holds distinct exponent tuples of length nvars and
nonzero coefficients in the form ``ring.check`` returns (over Q an
``int`` when integral and a ``Fraction`` otherwise, over F_p a residue
in ``[0, p)``).  The public constructor enforces this on any input.
Results built here from terms already in normal form go through
``_trusted``, which skips those checks: products, sums, negation, shifts
and exact quotients.  Products accumulate in raw coefficient arithmetic
(``_add_products``), and ``_from_raw`` reduces mod p, lowers an integral
rational to ``int`` and drops zeros once per term, so a Bareiss update
a*d - b*c is one pass, in integers whenever its entries are integral.
Exact division works in place on the dividend's exponents, takes leading
terms from a heap after the first, and stops at the quotient's forced
minimum exponents.

GCDs are computed by content/primitive-part recursion (Gauss's lemma)
with a subresultant pseudo-remainder sequence in the chosen main
variable; over Z the content GCD is retained, over a field the result is
the canonical (monic at the least term) associate.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, lt, neg, sub

from .rings import GF, rational, reduce_scalar, valuate


def _lex_key(exps):
    # last variable most significant; fixes the printed term order
    return exps[::-1]


def _trusted(ring, nvars, terms):
    """A LaurentPoly on terms already in normal form, without the checks
    of the public constructor: distinct exponent tuples of length nvars,
    nonzero coefficients as ring.check returns them."""
    f = object.__new__(LaurentPoly)
    f.ring, f.nvars, f.terms = ring, nvars, terms
    return f


def _add_products(acc, f, g, negate=False):
    """acc += f * g, or acc -= f * g, on term dicts in raw coefficient
    arithmetic: nothing is reduced mod p and zero sums stay in acc."""
    get = acc.get
    for e1, c1 in f.items():
        if negate:
            c1 = -c1
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            c = get(e)
            acc[e] = c1 * c2 if c is None else c + c1 * c2
    return acc


def _from_raw(ring, nvars, acc):
    """The polynomial of an _add_products sum: each coefficient reduced
    mod p (or lowered to int when integral over Q) once, zeros dropped
    once."""
    p = ring.p
    if p:
        return _trusted(ring, nvars, {e: r for e, c in acc.items() if (r := c % p)})
    if ring.kind == "Q":
        return _trusted(ring, nvars, {e: rational(c) for e, c in acc.items() if c})
    return _trusted(ring, nvars, {e: c for e, c in acc.items() if c})


class LaurentPoly:
    """Immutable-by-discipline sparse Laurent polynomial."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length (nvars={nvars})")
            c = ring.check(c)
            if c == 0:
                continue
            if exps in clean:
                raise ValueError(f"duplicate exponent tuple {exps}")
            clean[exps] = c
        self.ring = ring
        self.nvars = nvars
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars, {})

    @classmethod
    def constant(cls, ring, nvars, c):
        return cls(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, ring, nvars):
        return cls.constant(ring, nvars, ring.one())

    @classmethod
    def var(cls, ring, nvars, i, power=1):
        exps = [0] * nvars
        exps[i] = power
        return cls(ring, nvars, {tuple(exps): ring.one()})

    @classmethod
    def monomial(cls, ring, nvars, exps, c):
        return cls(ring, nvars, {tuple(exps): c})

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def key(self):
        return (self.ring, self.nvars, tuple(sorted(self.terms.items())))

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.key())

    def lex_min_exponent(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no terms")
        return min(self.terms, key=_lex_key)

    def min_exponents(self):
        """Componentwise minimum exponent over the support (zero poly: zeros)."""
        if self.is_zero:
            return (0,) * self.nvars
        cols = list(zip(*self.terms.keys()))
        return tuple(min(col) for col in cols)

    def max_exponents(self):
        if self.is_zero:
            return (0,) * self.nvars
        cols = list(zip(*self.terms.keys()))
        return tuple(max(col) for col in cols)

    def degree_in(self, i):
        return max(e[i] for e in self.terms)

    def constant_value(self):
        """The coefficient ring element, if the polynomial is constant."""
        if self.is_zero:
            return self.ring.zero()
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if all(e == 0 for e in exps):
                return c
        raise ArithmeticError("internal: not a constant polynomial")

    # -- arithmetic -----------------------------------------------------

    def _check_same(self, other):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.ring, self.nvars, other)
        self._check_same(other)
        R = self.ring
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = R.add(terms.get(exps, R.zero()), c)
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return _trusted(R, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        R = self.ring
        return _trusted(R, self.nvars, {e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.ring, self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        R = self.ring
        if not isinstance(other, LaurentPoly):
            c = R.check(other)
            if c == 0:
                return LaurentPoly.zero(R, self.nvars)
            # a product of nonzero elements of a domain is nonzero
            return _trusted(R, self.nvars, {e: R.mul(cc, c) for e, cc in self.terms.items()})
        self._check_same(other)
        return _from_raw(R, self.nvars, _add_products({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only for single-term units")
            (exps, c), = self.terms.items()
            R = self.ring
            cinv = R.inv(c)
            ck = R.one()
            for _ in range(-k):
                ck = R.mul(ck, cinv)
            return LaurentPoly.monomial(R, self.nvars, tuple(e * k for e in exps), ck)
        out = LaurentPoly.one(self.ring, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, exps):
        """Multiply by the monomial t^exps (a unit)."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent tuple {exps} has wrong length (nvars={self.nvars})")
        return _trusted(
            self.ring, self.nvars, {tuple(map(add, e, exps)): c for e, c in self.terms.items()}
        )

    # -- rendering ------------------------------------------------------

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<LaurentPoly {render(self)} over {self.ring!r}>"


def _var_name(i):
    return f"t{i + 1}"


def render(f):
    """Canonical text form; the exact golden-file contract."""
    if f.is_zero:
        return "0"
    pieces = []
    for exps in sorted(f.terms, key=_lex_key):
        c = f.terms[exps]
        vars_part = "*".join(
            _var_name(i) if e == 1 else f"{_var_name(i)}^{e}"
            for i, e in enumerate(exps)
            if e != 0
        )
        negative = (f.ring.kind != "FP") and c < 0
        mag = -c if negative else c
        if not vars_part:
            body = str(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


# -- units and canonical associates -------------------------------------


def is_unit(f):
    """True iff f is a unit of the Laurent ring: one term, unit coefficient."""
    if len(f.terms) != 1:
        return False
    (c,) = f.terms.values()
    return f.ring.is_unit(c)


def _shift_to_zero(f):
    """f times the monomial that makes every minimum exponent 0."""
    low = f.min_exponents()
    return f.shift(tuple(-m for m in low)) if any(low) else f


def canonical_associate(f):
    """The canonical representative of f up to units.

    Exponents are shifted so each variable's minimum exponent is 0; then
    the coefficient of the lex-least term is made 1 (fields) or positive
    (Z; content is deliberately retained).  Zero maps to zero.
    """
    if f.is_zero:
        return f
    shifted = _shift_to_zero(f)
    lead = shifted.terms[shifted.lex_min_exponent()]
    R = f.ring
    if R.is_field:
        if lead == R.one():
            return shifted
        return shifted * R.inv(lead)
    if lead < 0:
        return -shifted
    return shifted


# -- exact division ------------------------------------------------------


def exact_div(f, g):
    """f / g in the Laurent ring, or None when g does not divide f.

    Long division by g's lex-leading term, in place on f's exponents.
    The first leading term of the remainder is found by one scan; once a
    second is needed, the remainder goes into a heap keyed on negated
    reversed exponents, and a term cancelled after it was pushed is
    skipped.  Minimum exponents are additive over products, so a quotient
    term below min_exponents(f) - min_exponents(g) in some variable
    proves the division inexact.  Over Z and Q a quotient coefficient is
    an integral divmod by lc(g); over Q a Fraction is formed only when
    that leaves a remainder.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    f._check_same(g)
    R = f.ring
    p = R.p
    low = tuple(map(sub, f.min_exponents(), g.min_exponents()))
    gl = max(g.terms, key=_lex_key)
    glc = g.terms[gl]
    inv = None if R.kind == "Z" else R.inv(glc)
    tail = [(e, c) for e, c in g.terms.items() if e != gl]
    rem = dict(f.terms)
    rl = max(rem, key=_lex_key)
    heap = None  # a one-term quotient builds none
    q = {}
    while True:
        e = tuple(map(sub, rl, gl))
        if any(map(lt, e, low)):
            return None
        # the leading term cancels exactly
        c = rem.pop(rl)
        if p:
            qc = c * inv % p
        else:
            qc, r = divmod(c, glc)
            if r:
                if inv is None:  # over Z
                    return None
                qc = c * inv  # not integral, so already Q's normal form
        q[e] = qc
        for ge, gc in tail:
            ke = tuple(map(add, e, ge))
            s = rem.get(ke)
            if s is None:
                if heap is not None:
                    heappush(heap, (tuple(map(neg, ke[::-1])), ke))
                s = 0
            s -= qc * gc
            if p:
                s %= p
            if s:
                rem[ke] = s
            else:
                del rem[ke]
        if not rem:
            return _trusted(R, f.nvars, q)
        if heap is None:
            heap = [(tuple(map(neg, e[::-1])), e) for e in rem]
            heapify(heap)
        rl = heappop(heap)[1]
        while rl not in rem:  # cancelled since it was pushed
            rl = heappop(heap)[1]


def _exact_div_strict(f, g):
    q = exact_div(f, g)
    if q is None:
        raise ArithmeticError("internal: division expected to be exact")
    return q


# -- GCD -----------------------------------------------------------------


def _coeffs_in(f, x):
    """Coefficients of powers of variable x, as polynomials with x-exponent 0."""
    out = {}
    for exps, c in f.terms.items():
        d = exps[x]
        rest = exps[:x] + (0,) + exps[x + 1:]
        bucket = out.setdefault(d, {})
        bucket[rest] = c
    return {
        d: LaurentPoly(f.ring, f.nvars, terms) for d, terms in sorted(out.items())
    }


def _scalar_gcd(ring, a, b):
    if ring.kind == "Z":
        import math

        return math.gcd(a, b)
    return ring.one()


def _content(f, x, acc):
    """gcd of acc and f's coefficients in x; one once that is a unit."""
    for poly in _coeffs_in(f, x).values():
        acc = _poly_gcd(acc, poly)
        if is_unit(acc):
            return LaurentPoly.one(f.ring, f.nvars)
    return acc


def _content_pp(f, x):
    content = _content(f, x, LaurentPoly.zero(f.ring, f.nvars))
    if is_unit(content):
        return content, f
    return content, _exact_div_strict(f, content)


def _lc_deg(f, x):
    d = f.degree_in(x)
    lc = {e[:x] + (0,) + e[x + 1:]: c for e, c in f.terms.items() if e[x] == d}
    return LaurentPoly(f.ring, f.nvars, lc), d


def _pseudo_rem(A, B, x):
    """prem(A, B) in variable x with the deterministic lc(B)^(dA-dB+1) scaling."""
    lB, dB = _lc_deg(B, x)
    dA = A.degree_in(x)
    steps = 0
    rem = A
    while not rem.is_zero and rem.degree_in(x) >= dB:
        lR, dR = _lc_deg(rem, x)
        xshift = [0] * A.nvars
        xshift[x] = dR - dB
        rem = rem * lB - (lR * B).shift(tuple(xshift))
        steps += 1
    want = dA - dB + 1
    for _ in range(want - steps):
        rem = rem * lB
    return rem


def _prs_gcd(A, B, x):
    """GCD of two nonzero x-primitive polynomials via the subresultant
    PRS; the result is x-primitive."""
    one = LaurentPoly.one(A.ring, A.nvars)
    if A.degree_in(x) < B.degree_in(x):
        A, B = B, A
    g = one
    h = one
    while True:
        delta = A.degree_in(x) - B.degree_in(x)
        R = _pseudo_rem(A, B, x)
        if R.is_zero:
            if B.degree_in(x) == 0:
                return one
            return _content_pp(B, x)[1]
        A, B = B, _exact_div_strict(R, g * h**delta)
        g, _ = _lc_deg(A, x)
        if delta > 0:
            h = _exact_div_strict(g**delta, h ** (delta - 1)) if delta > 1 else g
    # unreachable


def _poly_gcd(f, g):
    """GCD of polynomials, up to canonical associate.

    The recursion reads exponents as polynomial degrees, but exact division
    in the subresultant PRS works in the Laurent ring and can hand back a
    negative exponent (t1^-1 would pass for a constant).  Monomials are
    units, so each input is first shifted to minimum exponent 0, and a
    variable occurs where f or g has a positive maximum exponent.  g is
    nonzero; f is zero only as the seed of `_content`'s fold.
    """
    if f.is_zero:
        return g
    f, g = (_shift_to_zero(h) for h in (f, g))
    active = [i for i, pair in enumerate(zip(f.max_exponents(), g.max_exponents()))
              if max(pair) > 0]
    if not active:
        return LaurentPoly.constant(
            f.ring, f.nvars, _scalar_gcd(f.ring, f.constant_value(), g.constant_value())
        )
    x = active[-1]
    if all(e[x] == 0 for e in f.terms):
        f, g = g, f
    if all(e[x] == 0 for e in g.terms):
        # a divisor of the x-free g is x-free: it divides f's x-content
        return _content(f, x, g)
    cf, pf = _content_pp(f, x)
    cg, pg = _content_pp(g, x)
    c = _poly_gcd(cf, cg)
    return c * _prs_gcd(pf, pg, x)


def laurent_gcd(f, g):
    """GCD in the Laurent ring, returned as the canonical associate.

    gcd(f, 0) = canonical_associate(f); gcd(0, 0) = 0.  Over Z content is
    part of the answer (gcd(2*t1, 4) = 2); over a field the result is
    monic at its lex-least term.
    """
    if f.is_zero and g.is_zero:
        return f
    if f.is_zero:
        return canonical_associate(g)
    if g.is_zero:
        return canonical_associate(f)
    f._check_same(g)
    return canonical_associate(_poly_gcd(f, g))


def gcd_list(polys):
    """Fold laurent_gcd over a list (deterministic order; [] is an error),
    stopping at the first unit."""
    acc = None
    for f in polys:
        acc = f if acc is None else laurent_gcd(acc, f)
        if is_unit(acc):
            return canonical_associate(acc)
    if acc is None:
        raise ArithmeticError("internal: gcd of an empty list")
    return canonical_associate(acc) if not acc.is_zero else acc


# -- derivatives, squarefree part ----------------------------------------


def partial_derivative(f, i):
    R = f.ring
    terms = {}
    for exps, c in f.terms.items():
        k = exps[i]
        if k == 0:
            continue
        cc = R.mul(c, R.from_int(k))
        if cc == 0:
            continue
        e = exps[:i] + (k - 1,) + exps[i + 1:]
        terms[e] = cc
    return LaurentPoly(R, f.nvars, terms)


def _pth_root(f, p):
    # valid when every exponent is divisible by p; Frobenius fixes F_p coefficients
    terms = {}
    for exps, c in f.terms.items():
        terms[tuple(e // p for e in exps)] = c
    return LaurentPoly(f.ring, f.nvars, terms)


def squarefree_part(f):
    """Radical of f up to canonical associate (content over Z retained).

    Char 0: f / gcd(f, all partials).  Char p: factors with exponent
    divisible by p hide in the gcd; they are a p-th power and are handled
    by exponent division and recursion.
    """
    if f.is_zero:
        return f
    f = canonical_associate(f)
    if len(f.terms) == 1:
        return f
    partials = [partial_derivative(f, i) for i in range(f.nvars)]
    live = [d for d in partials if not d.is_zero]
    p = f.ring.char
    if not live:
        if p == 0:
            raise ArithmeticError("nonconstant char-0 polynomial with zero gradient")
        return squarefree_part(_pth_root(f, p))
    d = f
    for g in live:
        d = laurent_gcd(d, g)
        if is_unit(d):
            return f
    h = canonical_associate(_exact_div_strict(f, d))
    if p == 0:
        return h
    rem = d
    g = laurent_gcd(rem, h)
    while not is_unit(g):
        rem = _exact_div_strict(rem, g)
        g = laurent_gcd(rem, h)
    rem = canonical_associate(rem)
    if len(rem.terms) == 1:
        return h
    return canonical_associate(h * squarefree_part(rem))


# -- initial forms and reductions ----------------------------------------


def initial_form_valued(f, w, v):
    """Terms minimizing v(a_u) + <u, w>, as a polynomial (keeps coefficients).

    w is a tuple of exact rationals of length nvars.  Zero input is
    rejected: the zero polynomial has no initial form.
    """
    if f.is_zero:
        raise ValueError("initial form of the zero polynomial")
    if len(w) != f.nvars:
        raise ValueError("weight vector has wrong length")
    if not v.compatible_with(f.ring):
        raise ValueError("valuation/ring mismatch")
    w = tuple(Fraction(x) for x in w)
    weights = {exps: valuate(v, c, f.ring) + sum(e * x for e, x in zip(exps, w))
               for exps, c in f.terms.items()}
    best = min(weights.values())
    return LaurentPoly(f.ring, f.nvars, {u: f.terms[u] for u, wt in weights.items() if wt == best})


def reduce_mod_p(f, p):
    """Termwise reduction to F_p; requires p-integral coefficients."""
    target = GF(p)
    if f.ring.kind == "FP":
        raise ValueError("polynomial already has prime-field coefficients")
    return LaurentPoly(
        target,
        f.nvars,
        {
            e: r
            for e, c in f.terms.items()
            if (r := reduce_scalar(c, p, f.ring)) != 0
        },
    )


def coefficient_primes(f):
    """Sorted primes dividing some numerator/denominator of a coefficient."""
    from .rings import prime_factors

    primes = set()
    for c in f.terms.values():
        if f.ring.kind == "Q":
            for part in (c.numerator, c.denominator):
                if part not in (0, 1, -1):
                    primes.update(prime_factors(part))
        elif f.ring.kind == "Z":
            if c not in (0, 1, -1):
                primes.update(prime_factors(c))
        else:
            raise ValueError("coefficient primes only make sense over Z or Q")
    return sorted(primes)
