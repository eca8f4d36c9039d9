from fractions import Fraction

import pytest

from oracles import contains
from troplex.bnsreport import (
    SigmaFixture, assemble_bound, brown_one_relator, compare_fixture, get_fixture,
)
from troplex.fpgroup import AbelianEpi, Representation, alexander_matrices, build_orbifold
from troplex.jobspec import bundled_path, load_job
from troplex.rings import QQ, GF, TRIVIAL, padic
from troplex.sphere import SphereArcSet


def onerel():
    return load_job(bundled_path("one_relator.json"))


def test_fixture_shape():
    fx = brown_one_relator()
    assert fx.name == "brown_one_relator"
    expected = SphereArcSet.arc((1, 0), (0, 1), closed_start=False, closed_end=False).union(
        SphereArcSet.arc((0, 1), (-1, -1), closed_start=False, closed_end=False))
    assert fx.arcs == expected
    # two open arcs meeting at a missing point, not one fused arc
    assert not contains(fx.arcs, (0, 1))
    assert contains(fx.arcs, (1, 1))
    assert get_fixture("brown_one_relator").arcs == fx.arcs
    # its group is the bundled one_relator document's, word for word
    assert fx.presentation.relators == onerel().presentation.relators
    with pytest.raises(ValueError):
        get_fixture("nope")


def test_integral_bound_is_sharp():
    job = onerel()
    rp = assemble_bound(job.presentation, [
        ("s3", job.representation("s3"), "Z"),
        ("trivial", job.representation("trivial"), "Z"),
    ])
    assert not rp.vacuous and not rp.excluded
    assert rp.combined.describe() == (
        "point (0, 1) (90.0 deg); arc [(-1, -1), (1, 0)] (225.0 to 0.0 deg)")
    c = compare_fixture(rp, brown_one_relator())
    assert c.kind == "Equal"
    assert c.difference == SphereArcSet.empty()


def test_untwisted_alone_is_weaker():
    job = onerel()
    rp = assemble_bound(job.presentation, [("trivial", job.representation("trivial"), "Z")])
    # the line w1 = 0 only pins two antipodal points
    assert rp.combined == SphereArcSet.points([(0, 1), (0, -1)])
    c = compare_fixture(rp, brown_one_relator())
    assert c.kind == "BoundWeaker"
    assert c.difference.describe() == (
        "arc [(-1, -1), (0, -1)) (225.0 to 270.0 deg); "
        "arc ((0, -1), (1, 0)] (270.0 to 0.0 deg)")


def test_single_valued_field_entry_is_sharp():
    job = onerel()
    rp = assemble_bound(job.presentation, [
        ("s3", job.representation("s3").over(QQ), padic(3)),
    ])
    c = compare_fixture(rp, brown_one_relator())
    assert c.kind == "Equal"
    e = rp.entries[0]
    assert e.mode_label == repr(padic(3))
    assert e.admissibility.ok


def test_mod_two_entry_misses_an_arc():
    job = onerel()
    s3f2 = job.representation("s3").over(GF(2))
    rp = assemble_bound(job.presentation, [("s3 mod 2", s3f2, TRIVIAL)])
    c = compare_fixture(rp, brown_one_relator())
    assert c.kind == "BoundWeaker"
    assert c.difference == SphereArcSet.arc(
        (-1, -1), (1, 0), closed_start=False, closed_end=False)
    # adding the untwisted line splits that gap at (0, -1)
    rp2 = assemble_bound(job.presentation, [
        ("s3 mod 2", s3f2, TRIVIAL),
        ("trivial", job.representation("trivial").over(QQ), TRIVIAL),
    ])
    c2 = compare_fixture(rp2, brown_one_relator())
    assert c2.kind == "BoundWeaker"
    gap = SphereArcSet.arc((-1, -1), (1, 0), closed_start=False, closed_end=False)
    assert c2.difference == gap.difference(SphereArcSet.point((0, -1)))


def test_vacuous_when_nothing_admissible():
    job = onerel()
    q3 = Representation(QQ, [[[Fraction(3)]], [[Fraction(3)]]])
    rp = assemble_bound(job.presentation, [("q3", q3, padic(3))])
    assert rp.vacuous
    assert rp.entries == [] and len(rp.excluded) == 1
    assert rp.excluded[0].admissibility.reason == "entry valuation -1 < 0"
    assert rp.combined == SphereArcSet.empty()
    assert rp.complement == SphereArcSet.full_circle()
    assert "no admissible entries: vacuous bound" in rp.notes


def test_integer_mode_rejects_field_coefficients():
    job = onerel()
    rp = assemble_bound(job.presentation, [("trivQ", job.representation("trivial").over(QQ), "Z")])
    assert rp.vacuous
    assert rp.excluded[0].admissibility.reason == (
        "integer tropicalization needs matrices over Z, got Q")
    with pytest.raises(ValueError):
        assemble_bound(job.presentation, [("bad", job.representation("trivial"), "nope")])


def test_more_entries_never_grow_the_complement():
    job = onerel()
    triv = job.representation("trivial")
    s3 = job.representation("s3")
    small = assemble_bound(job.presentation, [("trivial", triv, "Z")])
    big = assemble_bound(job.presentation, [("trivial", triv, "Z"), ("s3", s3, "Z")])
    assert small.combined.is_subset(big.combined)
    assert big.complement.is_subset(small.complement)


def test_zero_ideal_forces_full_circle_and_violation():
    # genus-1 orbifold with one order-2 cone point has vanishing twisted
    # polynomial mod 2, so its bound set is the whole circle; comparing
    # against a fixture for a different group must then report Violation
    orb = build_orbifold(1, [2])
    rp = assemble_bound(orb, [("trivial", Representation.trivial(GF(2), 3), TRIVIAL)])
    assert rp.summary_lines()[0].endswith(", gcd over-approximation")
    assert rp.combined == SphereArcSet.full_circle()
    assert rp.complement == SphereArcSet.empty()
    c = compare_fixture(rp, brown_one_relator())
    assert c.kind == "Violation"
    assert c.difference == brown_one_relator().arcs


def test_compare_is_reflexive():
    job = onerel()
    rp = assemble_bound(job.presentation, [("s3", job.representation("s3"), "Z")])
    self_fx = SigmaFixture("self", job.presentation, rp.complement)
    c = compare_fixture(rp, self_fx)
    assert c.kind == "Equal" and c.difference == SphereArcSet.empty()


def test_summary_lines():
    job = onerel()
    rp = assemble_bound(job.presentation, [("trivial", job.representation("trivial"), "Z")])
    lines = rp.summary_lines()
    assert lines[0] == "entry trivial [Z]: admissible (integral), gcd over-approximation"
    assert lines[1] == "  arcs: point (0, 1) (90.0 deg); point (0, -1) (270.0 deg)"
    assert any(ln.startswith("bound set:") for ln in lines)
    assert any(ln.startswith("complement:") for ln in lines)
    rpx = assemble_bound(job.presentation, [
        ("trivQ", job.representation("trivial").over(QQ), "Z")])
    lines = rpx.summary_lines()
    assert any("EXCLUDED: integer tropicalization" in ln for ln in lines)
    assert "bound: vacuous (no admissible entries)" in lines


def test_settings_of_one_representation_share_its_jump_ideals(monkeypatch):
    import troplex.bnsreport as bnsreport

    calls = []
    real = bnsreport.jump_ideal

    def counted(pres, rep, phi=None, i=1):
        calls.append((id(rep), i))
        return real(pres, rep, phi, i=i)

    monkeypatch.setattr(bnsreport, "jump_ideal", counted)
    job = onerel()
    s3, triv = job.representation("s3"), job.representation("trivial")
    entries = [
        ("s3", s3, "Z"), ("s3", s3, TRIVIAL), ("s3", s3, padic(3)),
        ("trivial", triv, "Z"), ("trivial", triv, TRIVIAL),
    ]
    rp = assemble_bound(job.presentation, entries)
    # one degree-1 jump ideal per representation, and no J0
    assert sorted(calls) == sorted((id(r), 1) for r in (s3, triv))
    # the same bound as each entry on its own
    assert [e.descriptor for e in rp.entries] == [d for d, _, _ in entries]
    lines = rp.summary_lines()
    for k, (entry, e) in enumerate(zip(entries, rp.entries)):
        alone = assemble_bound(job.presentation, [entry])
        assert alone.entries[0].arcs == e.arcs
        assert alone.summary_lines()[:2] == lines[2 * k:2 * k + 2]


def test_bound_takes_d1_minors_once_per_representation(monkeypatch, deadline):
    # reg_s3 on the bundled relator: d1 is 12 x 6, and its two generator
    # blocks, 6-minors of d1 with gcd 1, are taken once for both settings
    # with one expansion over d2's 6 x 6 column set, whose single 6-row
    # slice it takes; none of J0's C(12, 6) = 924 other 6-minors is taken.
    # A determinant is the expansion's square case, so it shows in both
    import troplex.bnsreport as bnsreport
    from troplex import jumploci, linalg

    job = onerel()
    rep = job.representation("reg_s3")
    _, d1 = alexander_matrices(job.presentation, rep, AbelianEpi.from_abelianization(
        job.presentation))
    d1_rows = {tuple(g.key() for g in row) for row in d1}
    real_det, real_expand, real_minors, real_jump = (
        linalg.det_laurent, linalg.maximal_minors, jumploci.minors, bnsreport.jump_ideal)
    dets, expansions, minor_shapes, degrees = [], [], [], []

    def in_d1(M):
        return all(tuple(g.key() for g in row) in d1_rows for row in M)

    def det_counting(M):
        dets.append((in_d1(M), len(M)))
        return real_det(M)

    def expansion_counting(M):
        expansions.append((in_d1(M), len(M), len(M[0])))
        return real_expand(M)

    def minors_recording(M, k):
        minor_shapes.append((len(M), len(M[0]), k))
        return real_minors(M, k)

    def jump_recording(pres, rep, phi=None, i=1):
        degrees.append(i)
        return real_jump(pres, rep, phi, i=i)

    monkeypatch.setattr(linalg, "det_laurent", det_counting)
    monkeypatch.setattr(linalg, "maximal_minors", expansion_counting)
    monkeypatch.setattr(jumploci, "minors", minors_recording)
    monkeypatch.setattr(bnsreport, "jump_ideal", jump_recording)
    with deadline(20):
        rp = assemble_bound(job.presentation,
                            [("reg_s3", rep, "Z"), ("reg_s3", rep, padic(3))])
    assert len(rp.entries) == 2
    assert minor_shapes == []
    assert dets == [(True, 6), (True, 6)]
    assert sorted(expansions) == [(False, 6, 6), (True, 6, 6), (True, 6, 6)]
    assert degrees == [1]
