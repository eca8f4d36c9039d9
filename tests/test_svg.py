import pytest

from troplex.laurent import LaurentPoly
from troplex.rings import ZZ, QQ, TRIVIAL, padic
from troplex.svg import render_svg
from troplex.tropical import full_plane_complex, trop_hypersurface, trop_Z_principal

QUADRIC = LaurentPoly(ZZ, 2, {(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): -3})


def test_renders_well_formed_document():
    text = render_svg(trop_Z_principal(QUADRIC), title="quadric / Z")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "<title>quadric / Z</title>" in text
    # one polygon for the 2-cell, lines for the rays, the circle for the sphere
    assert "<polygon" in text and "<line" in text and "<circle" in text
    assert text.count("<svg") == 1


def test_fractional_vertex_and_full_plane():
    q = LaurentPoly(QQ, 2, QUADRIC.terms)
    text = render_svg(trop_hypersurface(q, padic(3)))
    assert "<circle" in text and "</svg>" in text
    text = render_svg(full_plane_complex(), title="everything")
    assert "<polygon" in text


def test_planar_only():
    f = LaurentPoly(QQ, 1, {(0,): 3, (1,): -4, (2,): 1})
    with pytest.raises(ValueError, match="planar"):
        render_svg(trop_hypersurface(f, padic(3)))
