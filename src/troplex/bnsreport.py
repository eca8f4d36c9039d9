"""Sphere bound assembly for the Sigma-invariant.

The chain of containments implemented here, for a group G with a finite
presentation, a finite-rank representation sigma, and rank-2
abelianization quotient:

    Sigma^1(G) is contained in the complement of S(Trop(J_{<=1})),

taken over either the integer-coefficient tropicalization (any sigma over
Z) or a valued field (sigma admissible for the Novikov completion).  Each
jump ideal J_i is replaced by the principal ideal on its generator gcd;
since J_i lies inside (gcd), the gcd's tropical set is contained in the
ideal's, so the complement only grows: the emitted bound stays valid, and
is exact whenever the ideal was principal.  (The opposite shortcut, the
prevariety cut out by the generators, contains the variety and would
shrink the complement; it is never used here.)

Reports keep every entry's admissibility verdict; inadmissible entries
are excluded from the union and listed separately.  No admissible entry
at all gives the vacuous bound: empty sphere set, full-circle complement.
"""

from __future__ import annotations

from .fpgroup import AbelianEpi
from .jumploci import NovikovVerdict, jump_ideal, novikov_admissible
from .rings import Valuation
from .sphere import SphereArcSet, union_all
from .tropical import sphere_projection, tropicalize


class SigmaFixture:
    """Known ground truth for -Sigma^1 of a named group, used only for
    comparison, never in the computation."""

    def __init__(self, name, arcs):
        self.name = name
        self.arcs = arcs

    def __repr__(self):
        return f"<SigmaFixture {self.name}>"


def brown_one_relator():
    """-Sigma^1 of the one-relator group with relator
    x1^-1 x2^-1 x1 x2^2 x1^-1 x2^-1 x1^2 x2^-1 x1^-1 x2 x1^-1 x2 x1 x2^-1:
    two open arcs, from (1,0) to (0,1) and from (0,1) to (-1,-1), by
    Brown's one-relator algorithm."""
    arcs = SphereArcSet.arc((1, 0), (0, 1), closed_start=False, closed_end=False).union(
        SphereArcSet.arc((0, 1), (-1, -1), closed_start=False, closed_end=False)
    )
    return SigmaFixture("brown_one_relator", arcs)


FIXTURES = {"brown_one_relator": brown_one_relator}


def get_fixture(name):
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}") from None


class BoundEntry:
    """One (representation, coefficient setting) contribution.

    mode is the string "Z" for the integer-coefficient tropicalization or
    a Valuation for the valued-field one.  exact records whether both
    jump ideals were principal, i.e. the gcd step lost nothing.
    """

    def __init__(self, descriptor, mode, admissibility, included,
                 arcs=None, exact=None, notes=()):
        self.descriptor = descriptor
        self.mode = mode
        self.admissibility = admissibility
        self.included = included
        self.arcs = arcs
        self.exact = exact
        self.notes = list(notes)

    @property
    def mode_label(self):
        return "Z" if self.mode == "Z" else repr(self.mode)

    def __repr__(self):
        state = "included" if self.included else "excluded"
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
            flag = "exact" if e.exact else "gcd over-approximation"
            out.append(f"entry {e.descriptor} [{e.mode_label}]: "
                       f"admissible ({e.admissibility.condition}), {flag}")
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


def _tropicalize_ideal(J, mode):
    """(complex, exact flag, notes) for one jump ideal under one mode."""
    exact = len(J.generators) <= 1
    if J.is_zero_ideal:
        notes = [f"{J.source}: zero ideal, tropical set is everything"]
    elif not exact:
        notes = [f"{J.source}: {len(J.generators)} generators, bounding by their gcd"]
    else:
        notes = []
    return tropicalize(J.gcd(), mode), exact, notes


def assemble_bound(pres, entries, phi=None, check_finite_image=False):
    """Union the tropical sphere sets of J_0 and J_1 over all admissible
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
    # J0 and J1 depend on the representation only, not on the setting:
    # entries sharing one representation object share them, and J1 takes
    # its r-minors of d1 and their gcd from J0 instead of taking them again
    shared = {}
    for descriptor, rep, mode in entries:
        verdict = _check_admissible(rep, mode, check_finite_image)
        if not verdict.ok:
            excluded.append(BoundEntry(descriptor, mode, verdict, False))
            continue
        if id(rep) not in shared:
            J0 = jump_ideal(pres, rep, phi, i=0)
            shared[id(rep)] = [J0, jump_ideal(pres, rep, phi, i=1, j0=J0)]
        complexes, entry_notes = [], []
        exact = True
        for J in shared[id(rep)]:
            T, ex, ns = _tropicalize_ideal(J, mode)
            complexes.append(T)
            exact = exact and ex
            entry_notes.extend(ns)
        arcs = union_all(sphere_projection(T) for T in complexes)
        included.append(
            BoundEntry(descriptor, mode, verdict, True,
                       arcs=arcs, exact=exact, notes=entry_notes)
        )
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
