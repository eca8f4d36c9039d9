"""Finite presentations, Fox calculus, and matrix representations.

Words are tuples of nonzero signed integers (Tietze form): ``3`` means the
third generator, ``-3`` its inverse.  Relators are stored as given and are
*not* freely reduced, since Fox derivatives depend only on the free word
but builders want readable relators.

The chain-complex conventions: for a presentation with n generators and m
relators and a rank-r representation, ``alexander_matrices`` returns

* ``d2``: (m*r) x (n*r), block (j, i) = (sigma (x) phi)(dR_j/dx_i),
* ``d1``: (n*r) x r, block i = (sigma (x) phi)(x_i) - I_r,

so the Fox fundamental identity makes the product ``d2 * d1`` vanish.
"""

from __future__ import annotations

import os

from . import linalg
from .laurent import LaurentPoly
from .rings import ZZ, scalar_map

DEFAULT_MAX_QUOTIENT = 5040
# generators plus relator letters of a presentation that a builder emits
MAX_BUILT_SIZE = 100_000
# significant digits of the longest exponent read; any longer one is far
# over MAX_BUILT_SIZE, and int() reads no more than 4300
EXPONENT_DIGITS = 100


# -- words ----------------------------------------------------------------


def invert_word(word):
    return tuple(-letter for letter in reversed(word))


def exponent(text):
    """The k of an atom x^k, read from ASCII digits with an optional sign
    (so x^+2 is x^2), or None for any other text: int() alone would also
    read 1_0 as 10 and non-ASCII digits.  A k of more than EXPONENT_DIGITS
    significant digits is refused by the size bound."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    significant = len(digits.lstrip("0"))
    if significant > EXPONENT_DIGITS:
        raise ValueError(
            f"the presentation would have at least 10^{significant - 1} relator letters "
            f"(at most {MAX_BUILT_SIZE})"
        )
    return int(text)


def parse_word(text, names):
    """Parse ``"x1^-1 x2^2"`` into a Tietze tuple using the name list.

    An atom is a name, or name^k with k as exponent() reads it."""
    index = {name: i + 1 for i, name in enumerate(names)}
    powers = {}  # each distinct exponent text is read once
    out = []
    for atom in text.split():
        name, caret, exp = atom.partition("^")
        if not caret:
            power = 1
        elif (power := powers.get(exp)) is None:
            power = powers[exp] = exponent(exp)
            if power is None:
                raise ValueError(f"bad exponent in {atom!r} (want name^k, k an integer)")
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        if power == 0:
            continue
        letter = index[name] if power > 0 else -index[name]
        out.extend([letter] * abs(power))
    return tuple(out)


def word_to_str(word, names):
    if not word:
        return ""
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        count = j - i
        letter = word[i]
        name = names[abs(letter) - 1]
        power = count if letter > 0 else -count
        pieces.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(pieces)


def commutator(a, b):
    """[a, b] = a b a^-1 b^-1 for single generators or words."""
    wa = a if isinstance(a, tuple) else (a,)
    wb = b if isinstance(b, tuple) else (b,)
    return wa + wb + invert_word(wa) + invert_word(wb)


# -- presentations --------------------------------------------------------


class Presentation:
    def __init__(self, names, relators):
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names = list(names)
        self.ngens = len(names)
        rels = []
        for rel in relators:
            rel = tuple(rel)
            for letter in rel:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ValueError(f"letter {letter} out of range")
            rels.append(rel)
        self.relators = rels
        self.nrels = len(rels)

    def __repr__(self):
        return f"<Presentation {self.ngens} gens, {self.nrels} relators>"

    def exponent_matrix(self):
        """n x m integer matrix; column j is the abelianized relator j."""
        M = [[0] * self.nrels for _ in range(self.ngens)]
        for j, rel in enumerate(self.relators):
            for letter in rel:
                M[abs(letter) - 1][j] += 1 if letter > 0 else -1
        return M


# -- representations ------------------------------------------------------


class Representation:
    """A homomorphism to GL_r over Z, Q, or F_p, given on generators."""

    def __init__(self, ring, matrices):
        self.ring = ring
        self.mats = []
        self.invs = []
        rank = None
        for mat in matrices:
            mat = [[ring.check(x) for x in row] for row in mat]
            r = len(mat)
            if any(len(row) != r for row in mat):
                raise ValueError("representation matrices must be square")
            if rank is None:
                rank = r
            elif r != rank:
                raise ValueError("representation matrices must share one rank")
            inv = linalg.smat_inverse(ring, mat)
            if inv is None:
                raise ValueError(f"matrix not invertible over {ring!r}")
            self.mats.append(mat)
            self.invs.append(inv)
        if rank is None:
            raise ValueError("a representation needs at least one generator")
        self.rank = rank
        self.ngens = len(self.mats)

    @classmethod
    def trivial(cls, ring, ngens, rank=1):
        eye = linalg.smat_identity(ring, rank)
        return cls(ring, [eye for _ in range(ngens)])

    def image(self, letter):
        return self.mats[letter - 1] if letter > 0 else self.invs[-letter - 1]

    def word_image(self, word):
        out = linalg.smat_identity(self.ring, self.rank)
        for letter in word:
            out = linalg.smat_mul(self.ring, out, self.image(letter))
        return out

    def identity(self):
        return linalg.smat_identity(self.ring, self.rank)

    def over(self, ring):
        """The same matrices taken into another ring by rings.scalar_map."""
        if ring == self.ring:
            return self
        to = scalar_map(self.ring, ring)
        return Representation(ring, [[[to(x) for x in row] for row in mat] for mat in self.mats])


def verify_representation(pres, rep):
    """True iff every relator maps to the identity matrix."""
    if rep.ngens != pres.ngens:
        raise ValueError("generator count mismatch")
    eye = rep.identity()
    return all(rep.word_image(rel) == eye for rel in pres.relators)


# -- epimorphisms to free abelian groups ----------------------------------


class AbelianEpi:
    """phi: G ->> Z^m, given by an integer vector per generator."""

    def __init__(self, pres, vectors):
        if len(vectors) != pres.ngens:
            raise ValueError("need one vector per generator")
        m = len(vectors[0]) if vectors else 0
        vectors = [tuple(v) for v in vectors]
        if any(len(v) != m for v in vectors):
            raise ValueError("phi vectors must share one length")
        self.m = m
        self.vectors = vectors
        if any(any(self.word_value(rel)) for rel in pres.relators):
            raise ValueError("phi does not kill every relator")
        if m > 0:
            diag, _ = linalg.smith_normal_form([list(v) for v in vectors])
            if sum(1 for d in diag if d == 1) < m or any(
                d not in (0, 1) for d in diag
            ):
                raise ValueError("phi is not surjective onto Z^m (Smith form)")

    @classmethod
    def from_abelianization(cls, pres):
        """phi onto the free part of G_ab.  The rows of the Smith transform
        U past the rank of the exponent matrix M (generators by relators)
        are a Z-basis of M's left kernel, the homomorphisms G -> Z; read
        by generator, they give each generator's free coordinates."""
        n = pres.ngens
        diag, U = linalg.smith_normal_form(pres.exponent_matrix())
        rank = sum(1 for d in diag if d != 0)
        return cls(pres, [tuple(U[i][j] for i in range(rank, n)) for j in range(n)])

    def word_value(self, word):
        out = [0] * self.m
        for letter in word:
            s = 1 if letter > 0 else -1
            vec = self.vectors[abs(letter) - 1]
            for k in range(self.m):
                out[k] += s * vec[k]
        return tuple(out)


# -- twisted chain complex --------------------------------------------------


def alexander_matrices(pres, rep, phi=None):
    """(d2, d1) of the twisted chain complex; see the module docstring.

    Each relator is walked once, carrying sigma(p) and phi(p) of the
    prefix p: a letter x_i adds sigma(p) t^phi(p) to block (j, i), with p
    the prefix before it, and x_i^-1 subtracts sigma(p') t^phi(p'), with
    p' the prefix after it.  This is the Fox derivative specialized term
    by term; sigma and phi are homomorphisms, so no free reduction of the
    prefixes is needed.
    """
    if phi is None:
        phi = AbelianEpi.from_abelianization(pres)
    if rep.ngens != pres.ngens:
        raise ValueError("generator count mismatch")
    r = rep.rank
    n = pres.ngens
    nv = phi.m
    ring = rep.ring
    steps = {}
    for g, vec in enumerate(phi.vectors, 1):
        steps[g], steps[-g] = vec, tuple(-x for x in vec)
    zero = ring.zero()
    d2 = []
    for rel in pres.relators:
        # one {exponents: coefficient} dict per entry of the block row
        rows = [[{} for _ in range(n * r)] for _ in range(r)]
        mat, exps = rep.identity(), (0,) * nv
        for letter in rel:
            after = linalg.smat_mul(ring, mat, rep.image(letter))
            after_exps = tuple(e + s for e, s in zip(exps, steps[letter]))
            if letter > 0:
                at, at_exps, combine = mat, exps, ring.add
            else:
                at, at_exps, combine = after, after_exps, ring.sub
            col = (abs(letter) - 1) * r
            for a, row in enumerate(rows):
                for b, x in enumerate(at[a]):
                    if x != 0:
                        entry = row[col + b]
                        entry[at_exps] = combine(entry.get(at_exps, zero), x)
            mat, exps = after, after_exps
        d2.extend([LaurentPoly(ring, nv, entry) for entry in row] for row in rows)
    d1 = [[None] * r for _ in range(n * r)]
    for i in range(n):
        exps = phi.word_value((i + 1,))
        mat = rep.image(i + 1)
        for a in range(r):
            for b in range(r):
                entry = LaurentPoly.monomial(ring, nv, exps, mat[a][b])
                if a == b:
                    entry = entry - LaurentPoly.one(ring, nv)
                d1[i * r + a][b] = entry
    return d2, d1


# -- presentation builders --------------------------------------------------


def build_orbifold(genus, weights):
    """Orbifold group of a genus-g surface with cone points of orders mu_j.

    Generators x_1, y_1, .., x_g, y_g, z_1, .., z_s; relators
    [x_1,y_1]..[x_g,y_g] z_1..z_s and z_j^{mu_j}.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    weights = list(weights)
    if any(mu < 1 for mu in weights):
        raise ValueError("cone orders must be >= 1")
    s = len(weights)
    # 2g + s generators, 4g + s letters in the surface relator, mu_j in each cone's
    refuse_large(2 * genus + s + 4 * genus + s + sum(weights))
    names = []
    for i in range(1, genus + 1):
        names.append(f"x{i}")
        names.append(f"y{i}")
    for j in range(1, s + 1):
        names.append(f"z{j}")
    surface = [a for x in range(1, 2 * genus, 2) for a in commutator(x, x + 1)]
    surface += range(2 * genus + 1, 2 * genus + s + 1)
    relators = [tuple(surface)]
    for j, mu in enumerate(weights):
        relators.append(tuple([2 * genus + j + 1] * mu))
    return Presentation(names, relators)


def build_weighted_raag(nverts, edges, names=None):
    """Weighted right-angled Artin group: relators [a_i, a_j]^weight.

    edges lists (i, j, weight) with 1-based vertex indices and weight >= 1;
    weight 1 is a plain commuting relation.
    """
    if names is not None and len(names) != nverts:
        raise ValueError("need one name per vertex")
    for i, j, weight in edges:
        if not (1 <= i <= nverts and 1 <= j <= nverts) or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
        if weight < 1:
            raise ValueError("edge weights must be >= 1")
    refuse_large(nverts + sum(4 * weight for _, _, weight in edges))
    if names is None:
        names = [f"a{i}" for i in range(1, nverts + 1)]
    relators = [commutator(i, j) * weight for i, j, weight in edges]
    return Presentation(names, relators)


def refuse_large(size):
    """Refuse, before building anything, a presentation of more than
    MAX_BUILT_SIZE generators and relator letters."""
    if size > MAX_BUILT_SIZE:
        raise ValueError(
            f"the presentation would have {size} generators and relator letters "
            f"(at most {MAX_BUILT_SIZE})"
        )


def build_product(pres_a, pres_b):
    """Presentation of the direct product: both sets of relators plus
    commutators between the two generator families."""
    na, nb = pres_a.ngens, pres_b.ngens
    letters = sum(map(len, pres_a.relators)) + sum(map(len, pres_b.relators))
    # both generator families, both relator sets, a 4-letter commutator per pair
    refuse_large(na + nb + letters + 4 * na * nb)
    used = set(pres_a.names)
    names = list(pres_a.names)
    for name in pres_b.names:
        new = name
        while new in used:
            new = new + "'"
        used.add(new)
        names.append(new)
    relators = [tuple(rel) for rel in pres_a.relators]
    for rel in pres_b.relators:
        relators.append(tuple(letter + na if letter > 0 else letter - na for letter in rel))
    for i in range(1, na + 1):
        for j in range(1, nb + 1):
            relators.append(commutator(i, j + na))
    return Presentation(names, relators)


# -- finite quotients and their regular representations ---------------------


def _perm_mul(p, q):
    """(p o q)(x) = p(q(x)); matches matrix-product order for P(p) P(q)."""
    return tuple(p[x] for x in q)


def _perm_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class QuotientTooLarge(ValueError):
    """A closure found more elements than its limit allows."""


def _closure(gens, mul, identity):
    """The set of products of gens, found breadth first from identity.

    mul(h, g) multiplies the element g on the left by the generator h.  The
    generators of a finite group need no inverses: a finite monoid of
    invertible elements is a group.  More than TROPLEX_MAX_QUOTIENT elements
    (DEFAULT_MAX_QUOTIENT when unset), read here and nowhere else, raise
    QuotientTooLarge.
    """
    max_size = int(os.environ.get("TROPLEX_MAX_QUOTIENT", DEFAULT_MAX_QUOTIENT))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                x = mul(h, g)
                if x not in elements:
                    elements.add(x)
                    nxt.append(x)
                    if len(elements) > max_size:
                        raise QuotientTooLarge(
                            f"quotient group exceeds {max_size} elements "
                            "(raise TROPLEX_MAX_QUOTIENT to allow more)"
                        )
        frontier = nxt
    return elements


def regular_representation(pres, perms, ring=ZZ):
    """Left regular representation of the finite quotient generated by perms.

    perms gives one 0-based permutation tuple per generator of pres; the
    assignment must kill every relator.  The result is a Representation by
    |Q| x |Q| permutation matrices over ring.
    """
    if len(perms) != pres.ngens:
        raise ValueError("need one permutation per generator")
    perms = [tuple(p) for p in perms]
    degree = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise ValueError(f"{list(p)} is not a permutation of 0..{degree - 1}")
    inv = {i + 1: perms[i] for i in range(len(perms))}
    for i, p in enumerate(perms):
        inv[-(i + 1)] = _perm_inv(p)
    identity = tuple(range(len(perms[0])))
    for rel in pres.relators:
        acc = identity
        for letter in rel:
            acc = _perm_mul(acc, inv[letter])
        if acc != identity:
            raise ValueError("permutations do not satisfy the relators")
    elements = sorted(_closure(perms, _perm_mul, identity))
    position = {g: k for k, g in enumerate(elements)}
    size = len(elements)
    mats = []
    for p in perms:
        mat = [[ring.zero()] * size for _ in range(size)]
        for b, g in enumerate(elements):
            a = position[_perm_mul(p, g)]
            mat[a][b] = ring.one()
        mats.append(mat)
    return Representation(ring, mats)
