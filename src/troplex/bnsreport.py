"""Sphere bound assembly for the Sigma-invariant.

The chain of containments implemented here, for a group G with a finite
presentation, a finite-rank representation sigma, and rank-2
abelianization quotient:

    Sigma^1(G) is contained in the complement of S(Trop(J_{<=1})),

taken over either the integer-coefficient tropicalization (any sigma over
Z) or a valued field (sigma admissible for the Novikov completion).  At
phi of rank >= 1, J_1 = C * J_0^2 with C generated by jumploci's c_R, so
J_1 lies in J_0, V_0 in V_1, and gcd J_0 divides gcd J_1 = delta * gcd J_0.
As Trop(fg) = Trop(f) u Trop(g) (initial forms multiply in a domain),
each entry reads gcd J_1 alone.  Since J_1 lies inside (gcd), the gcd's
tropical set lies inside the ideal's: the complement only grows and the
bound stays valid.  (The opposite shortcut, the prevariety cut out by the
generators, contains the variety and would shrink the complement; it is
never used here.)

No entry is exact ("exact": false, a gcd over-approximation): at phi of
rank 2 two generators have independent phi(x), and their blocks
det(sigma(x) t^phi(x) - I), nonzero r-minors of d1 each holding 0 and
r * phi(x) on the line through phi(x), are not associates, so J_0 never
has one generator.

Reports keep every entry's admissibility verdict; inadmissible entries
are excluded from the union and listed separately.  No admissible entry
at all gives the vacuous bound: empty sphere set, full-circle complement.
"""

from __future__ import annotations

from .fpgroup import AbelianEpi, Presentation, parse_word
from .jumploci import NovikovVerdict, jump_ideal, novikov_admissible
from .rings import Valuation
from .sphere import SphereArcSet, union_all
from .tropical import sphere_projection, tropicalize


class SigmaFixture:
    """Known ground truth for -Sigma^1 of the group of one presentation,
    in the coordinates of its free abelianization; used only for
    comparison, never in the computation."""

    def __init__(self, name, presentation, arcs):
        self.name = name
        self.presentation = presentation
        self.arcs = arcs

    def __repr__(self):
        return f"<SigmaFixture {self.name}>"

    def check(self, pres, phi):
        """Refuse a presentation other than the fixture's own (compared as
        Tietze words, so generator names do not matter), and a phi other
        than its free abelianization: the arcs say nothing about them."""
        own = self.presentation
        if (pres.ngens, pres.relators) != (own.ngens, own.relators):
            raise ValueError(f"fixture {self.name!r} is -Sigma^1 of another presentation")
        if phi.vectors != AbelianEpi.from_abelianization(pres).vectors:
            raise ValueError(
                f"fixture {self.name!r} holds at phi = ab only (the free abelianization)"
            )


def brown_one_relator():
    """-Sigma^1 of the one-relator group below: two open arcs, from (1,0)
    to (0,1) and from (0,1) to (-1,-1), by Brown's one-relator algorithm."""
    names = ["x1", "x2"]
    relator = "x1^-1 x2^-1 x1 x2^2 x1^-1 x2^-1 x1^2 x2^-1 x1^-1 x2 x1^-1 x2 x1 x2^-1"
    arcs = SphereArcSet.arc((1, 0), (0, 1), closed_start=False, closed_end=False).union(
        SphereArcSet.arc((0, 1), (-1, -1), closed_start=False, closed_end=False)
    )
    return SigmaFixture(
        "brown_one_relator", Presentation(names, [parse_word(relator, names)]), arcs
    )


FIXTURES = {"brown_one_relator": brown_one_relator}


def get_fixture(name):
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}") from None


class BoundEntry:
    """One (representation, coefficient setting) contribution.

    mode is the string "Z" for the integer-coefficient tropicalization or
    a Valuation for the valued-field one.  arcs is None on an excluded
    entry, else S(Trop(gcd J_1)), a gcd over-approximation (see the module
    docstring).
    """

    def __init__(self, descriptor, mode, admissibility, arcs=None):
        self.descriptor = descriptor
        self.mode = mode
        self.admissibility = admissibility
        self.arcs = arcs

    @property
    def mode_label(self):
        return "Z" if self.mode == "Z" else repr(self.mode)

    def __repr__(self):
        state = "excluded" if self.arcs is None else "included"
        return f"<BoundEntry {self.descriptor} [{self.mode_label}] {state}>"


class BoundReport:
    def __init__(self, entries, excluded, combined, complement, vacuous, notes):
        self.entries = entries
        self.excluded = excluded
        self.combined = combined
        self.complement = complement
        self.vacuous = vacuous
        self.notes = list(notes)

    def __repr__(self):
        return (
            f"<BoundReport {len(self.entries)} entries, "
            f"{len(self.excluded)} excluded, vacuous={self.vacuous}>"
        )

    def summary_lines(self):
        out = []
        for e in self.entries:
            out.append(f"entry {e.descriptor} [{e.mode_label}]: "
                       f"admissible ({e.admissibility.condition}), gcd over-approximation")
            out.append(f"  arcs: {e.arcs.describe()}")
        for e in self.excluded:
            out.append(f"entry {e.descriptor} [{e.mode_label}]: "
                       f"EXCLUDED: {e.admissibility.reason}")
        if self.vacuous:
            out.append("bound: vacuous (no admissible entries)")
        out.append(f"bound set: {self.combined.describe()}")
        out.append(f"complement: {self.complement.describe()}")
        for n in self.notes:
            out.append(f"note: {n}")
        return out


def _check_admissible(rep, mode, check_finite_image):
    if mode == "Z":
        if rep.ring.kind != "Z":
            return NovikovVerdict(
                False,
                reason=f"integer tropicalization needs matrices over Z, got {rep.ring!r}",
            )
        return NovikovVerdict(True, condition="integral")
    if not isinstance(mode, Valuation):
        raise ValueError(f"mode must be 'Z' or a Valuation, got {mode!r}")
    return novikov_admissible(rep, mode, check_finite_image=check_finite_image)


def assemble_bound(pres, entries, phi=None, check_finite_image=False):
    """Union the tropical sphere sets of gcd J_1 over all admissible
    entries; the complement is the Sigma^1 upper bound.

    entries: list of (descriptor, representation, mode) with mode "Z" or
    a Valuation.  phi (default: the free abelianization) must have rank 2,
    as the bound is a set of exact arcs on the circle; any other rank is
    refused before any entry is computed.
    """
    if phi is None:
        phi = AbelianEpi.from_abelianization(pres)
    if phi.m != 2:
        raise ValueError(
            "the bound needs a phi of rank 2 (its arcs live on the circle), "
            f"got rank {phi.m}: choose one with --phi, or test single "
            "characters with trop --contains"
        )
    included, excluded, notes = [], [], []
    # gcd J1 depends on the representation only, not on the setting:
    # entries sharing one representation object share it
    gcds = {}
    for descriptor, rep, mode in entries:
        verdict = _check_admissible(rep, mode, check_finite_image)
        if not verdict.ok:
            excluded.append(BoundEntry(descriptor, mode, verdict))
            continue
        if id(rep) not in gcds:
            gcds[id(rep)] = jump_ideal(pres, rep, phi, i=1).gcd()
        arcs = sphere_projection(tropicalize(gcds[id(rep)], mode))
        included.append(BoundEntry(descriptor, mode, verdict, arcs=arcs))
    vacuous = not included
    if vacuous:
        combined = SphereArcSet.empty()
        notes.append("no admissible entries: vacuous bound")
    else:
        combined = union_all(e.arcs for e in included)
        notes.append(
            "union of finitely many closed arc sets is closed: closure is a no-op"
        )
    complement = combined.complement()
    return BoundReport(included, excluded, combined, complement, vacuous, notes)


class ComparisonResult:
    """Equal, BoundWeaker (complement strictly contains the fixture), or
    Violation (fixture escapes the complement, falsifying the bound)."""

    def __init__(self, kind, difference):
        self.kind = kind
        self.difference = difference

    def __repr__(self):
        if self.kind == "Equal":
            return "<ComparisonResult Equal>"
        return f"<ComparisonResult {self.kind}: {self.difference.describe()}>"


def compare_fixture(report, fixture):
    comp = report.complement
    target = fixture.arcs
    if comp == target:
        return ComparisonResult("Equal", SphereArcSet.empty())
    if target.is_subset(comp):
        return ComparisonResult("BoundWeaker", comp.difference(target))
    return ComparisonResult("Violation", target.difference(comp))
