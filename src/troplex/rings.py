"""Exact coefficient rings (Z, Q, F_p) and valuations on them.

Values are plain Python objects tagged by the Ring they live in:
``int`` for Z, canonical residues in ``[0, p)`` (as ``int``) for F_p,
and for Q the reduced rational: an ``int`` when the value is integral,
otherwise a ``fractions.Fraction`` with denominator > 1.  So integral
data over Q runs in integer arithmetic, as it does over Z.  A ``bool``
is an element of no ring.  No floats appear anywhere; the valuation of
a nonzero scalar is an ``int``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

_WORD_MAX = 2**62


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p):
    """Deterministic Miller-Rabin.

    The prime bases up to 37 decide every n < 3.3e24 exactly, far beyond
    the 2**62 bound on prime fields.
    """
    if not isinstance(p, int) or p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p < 41 * 41:
        return True  # a composite below 41^2 has a prime factor below 41
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Sorted distinct prime factors of |n| (n nonzero).

    Trial division takes the factors below 1000; Pollard-Brent rho splits
    what is left, and a part is kept only once is_prime accepts it, so the
    rho constants affect the running time, never the answer.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("prime_factors of 0")
    out = set()
    for d in range(2, 1000):
        if d * d > n:
            break
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_factor(m)
            parts += [d, m // d]
    return sorted(out)


def _rho_factor(n):
    """A proper factor of the composite n: Pollard's rho with Brent's cycle
    search (Brent, BIT 20, 1980).  A constant c whose cycle closes on n
    itself is replaced by the next one."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(y - x, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def rational(x):
    """An int or Fraction in Q's normal form: an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


class Ring:
    """One of Z, Q, F_p.  Carries element-level operations.

    Instances compare and hash by (kind, p), so mixing characteristics is
    caught wherever two rings are required to agree.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "FP"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "FP":
            if not is_prime(p):
                raise ValueError(f"{p!r} is not a prime")
            if p > _WORD_MAX:
                raise ValueError("p too large: prime fields are limited to word-sized p")
        elif p is not None:
            raise ValueError("p is only meaningful for prime fields")
        self.kind = kind
        self.p = p

    # -- structure ---------------------------------------------------------

    @property
    def is_field(self):
        return self.kind != "Z"

    @property
    def char(self):
        return self.p if self.kind == "FP" else 0

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "FP":
            return f"F_{self.p}"
        return self.kind

    def tag(self):
        """Round-trips through ring_from_tag."""
        if self.kind == "FP":
            return f"fp:{self.p}"
        return self.kind

    # -- element ops -------------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return k % self.p if self.kind == "FP" else k

    def check(self, a):
        """Validate that a is a legal element; return it normalized."""
        if isinstance(a, bool):
            raise ValueError(f"{a!r} is not an element of {self!r}")
        if self.kind == "Z":
            if not isinstance(a, int):
                raise ValueError(f"{a!r} is not an element of Z")
            return a
        if self.kind == "Q":
            if isinstance(a, int):
                return a
            if isinstance(a, Fraction):
                return rational(a)
            raise ValueError(f"{a!r} is not an element of Q")
        if not isinstance(a, int):
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a % self.p

    def add(self, a, b):
        if self.kind == "FP":
            return (a + b) % self.p
        return rational(a + b) if self.kind == "Q" else a + b

    def sub(self, a, b):
        if self.kind == "FP":
            return (a - b) % self.p
        return rational(a - b) if self.kind == "Q" else a - b

    def mul(self, a, b):
        if self.kind == "FP":
            return (a * b) % self.p
        return rational(a * b) if self.kind == "Q" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "FP" else -a

    def is_unit(self, a):
        if self.kind == "Z":
            return a in (1, -1)
        if self.kind == "FP":
            return a % self.p != 0
        return a != 0

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("inverse of 0 in Q")
            return rational(1 / Fraction(a))
        if self.kind == "FP":
            if a % self.p == 0:
                raise ZeroDivisionError(f"inverse of 0 in {self!r}")
            return pow(a, self.p - 2, self.p)
        if a in (1, -1):
            return a
        raise ValueError(f"{a} is not a unit of Z")


ZZ = Ring("Z")
QQ = Ring("Q")

_FP_CACHE = {}


def GF(p):
    """The prime field F_p (cached)."""
    if p not in _FP_CACHE:
        _FP_CACHE[p] = Ring("FP", p)
    return _FP_CACHE[p]


def ring_from_tag(tag):
    """Parse a ring tag: "Z", "Q", or "fp:P"."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    p = tag_prime(tag, "fp:")
    if p is None:
        raise ValueError(f"unknown ring tag {tag!r}")
    return GF(p)


def tag_prime(tag, prefix):
    """The P of a tag prefix + P, read from ASCII digits alone, or None
    for any other tag: int() alone would also read fp:1_1, fp:+3, "fp: 3"
    and non-ASCII digits.

    A P above 2**62, the bound on prime fields, is refused for p-adic
    tags too, since is_prime is exact only below 3.3e24.  The digits are
    counted before int() reads them, which stops at 4300 of them.
    """
    digits = tag[len(prefix):] if tag.startswith(prefix) else ""
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(_WORD_MAX)) and (p := int(digits)) <= _WORD_MAX:
        return p
    raise ValueError(f"p too large in {tag!r}: primes are limited to 2**62")


def padic_valuation(n, p):
    """v_p of a nonzero integer."""
    if n == 0:
        raise ValueError("p-adic valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class Valuation:
    """The trivial valuation, or the p-adic valuation on Z/Q; ``valuate``
    applies one to a nonzero scalar."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("trivial", "padic"):
            raise ValueError(f"unknown valuation kind {kind!r}")
        if kind == "padic" and not is_prime(p):
            raise ValueError(f"{p!r} is not a prime")
        if kind == "padic" and p > _WORD_MAX:  # is_prime is exact only below 3.3e24
            raise ValueError("p too large: p-adic valuations are limited to word-sized p")
        if kind == "trivial" and p is not None:
            raise ValueError("trivial valuation takes no prime")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        return (
            isinstance(other, Valuation)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "trivial" if self.kind == "trivial" else f"{self.p}-adic"

    def compatible_with(self, ring):
        if self.kind == "padic" and ring.kind == "FP":
            return False
        return True


TRIVIAL = Valuation("trivial")


def padic(p):
    return Valuation("padic", p)


def valuate(v, a, ring=QQ):
    """Valuation of a nonzero scalar in the given ring, an int.

    Trivial: 0.  p-adic on Z/Q: the usual v_p(num) - v_p(den).  Zero,
    whose valuation is infinite, is refused, and so is a p-adic valuation
    on a prime-field scalar.
    """
    a = ring.check(a)
    if not v.compatible_with(ring):
        raise ValueError("valuation/ring mismatch: p-adic valuation on a prime-field scalar")
    if a == 0:
        raise ValueError("the valuation of 0 is infinite")
    if v.kind == "trivial":
        return 0
    if ring.kind == "Z":
        return padic_valuation(a, v.p)
    num, den = a.numerator, a.denominator
    val = padic_valuation(num, v.p) if num % v.p == 0 else 0
    if den % v.p == 0:
        val -= padic_valuation(den, v.p)
    return val


def scalar_map(src, dst):
    """The coefficient map from ring src into ring dst, on src's normal
    forms: the identity, Z -> Q, Q -> Z on integers, and Z or Q -> F_p on
    p-integral values.  This is the one place that moves a coefficient
    between rings; F_p maps into no other ring (ValueError)."""
    if src.kind == "FP" and src != dst:
        raise ValueError(f"cannot convert scalars from {src!r} to {dst!r}")
    if src == dst or dst.kind == "Q":
        return lambda a: a  # an integer is its own normal form in Q
    if dst.kind == "Z":
        def to_int(a):
            if a.denominator != 1:
                raise ValueError(f"{a} is not an integer")
            return a

        return to_int
    p = dst.p
    if src.kind == "Z":
        return lambda a: a % p

    def reduce(a):
        den = a.denominator
        if den % p == 0:
            raise ValueError(f"{a} is not p-integral at p={p}")
        return a.numerator * pow(den, p - 2, p) % p

    return reduce
