"""The reprs of the public classes, one case per branch."""

import pytest

from troplex.bnsreport import (
    BoundEntry, BoundReport, ComparisonResult, SigmaFixture, get_fixture,
)
from troplex.fpgroup import Presentation
from troplex.jumploci import AlexVerdict, IdealGens, KahlerVerdict, NovikovVerdict
from troplex.laurent import LaurentPoly
from troplex.rings import GF, QQ, ZZ, padic
from troplex.sphere import SphereArcSet
from troplex.tropical import Cell, TropicalComplex

POLY = LaurentPoly(QQ, 2, {(0, 0): 1, (1, 0): -2, (0, 2): 3})
YES = NovikovVerdict(True, condition="a")
NO = NovikovVerdict(False, reason="entry valuation -1 < 0")
EMPTY = SphereArcSet.empty()


@pytest.mark.parametrize("obj, text", [
    (get_fixture("brown_one_relator"), "<SigmaFixture brown_one_relator>"),
    (SigmaFixture("g", Presentation(["x"], []), EMPTY), "<SigmaFixture g>"),
    (BoundEntry("s3", "Z", YES, arcs=EMPTY), "<BoundEntry s3 [Z] included>"),
    (BoundEntry("s3", padic(2), NO), "<BoundEntry s3 [2-adic] excluded>"),
    (BoundReport([], [BoundEntry("s3", padic(2), NO)], EMPTY,
                 SphereArcSet.full_circle(), True, []),
     "<BoundReport 0 entries, 1 excluded, vacuous=True>"),
    (ComparisonResult("Equal", EMPTY), "<ComparisonResult Equal>"),
    (ComparisonResult("Violation", SphereArcSet.point((1, 0))),
     "<ComparisonResult Violation: point (1, 0) (0.0 deg)>"),
    (Presentation(["x", "y"], [(1, 2, -1, -2)]), "<Presentation 2 gens, 1 relators>"),
    (IdealGens(ZZ, 1, []), "<IdealGens (0)>"),
    (IdealGens(QQ, 2, [POLY, POLY * 2]), "<IdealGens 1 gens>"),
    (AlexVerdict(POLY), "<AlexVerdict 1 - 2*t1 + 3*t2^2>"),
    (KahlerVerdict(True, []), "<KahlerVerdict Consistent>"),
    (KahlerVerdict(False, [AlexVerdict(LaurentPoly(ZZ, 1, {(0,): 1, (1,): 2})),
                           AlexVerdict(LaurentPoly(GF(3), 1, {(0,): 1, (1,): 2}))]),
     "<KahlerVerdict NotKahler ['Z', 'fp:3']>"),
    (YES, "<NovikovVerdict Yes(a)>"),
    (NO, "<NovikovVerdict No(entry valuation -1 < 0)>"),
    (POLY, "<LaurentPoly 1 - 2*t1 + 3*t2^2 over Q>"),
    (SphereArcSet.full_circle(), "<SphereArcSet full circle>"),
    (EMPTY, "<SphereArcSet empty>"),
    (SphereArcSet.point((1, 0)), "<SphereArcSet point (1, 0) (0.0 deg)>"),
    (Cell("vertex", (1,)), "<vertex (1)>"),
    (Cell("segment", (0, 0), end=(1, "1/2")), "<segment (0, 0) to (1, 1/2)>"),
    (Cell("ray", (0, 0), dir=(1, 0)), "<ray (0, 0) dir (1, 0)>"),
    (Cell("cone2", (0, 0), dir=(1, 0), dir2=(0, 1)), "<cone2 (0, 0) dirs (1, 0), (0, 1)>"),
    (TropicalComplex(2, [Cell("ray", (0, 0), dir=(1, 0))]), "<TropicalComplex 1 cells in R^2>"),
])
def test_repr(obj, text):
    assert repr(obj) == text


def test_str_of_a_polynomial_is_its_rendering():
    assert str(POLY) == "1 - 2*t1 + 3*t2^2"
