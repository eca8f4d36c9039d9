import random
from xml.dom import minidom

import pytest
from hypothesis import given, settings, strategies as st

from troplex.laurent import LaurentPoly
from troplex.rings import ZZ, QQ, TRIVIAL, padic
from troplex.svg import render_svg
from troplex.tropical import (
    full_plane_complex, trop_hypersurface, trop_Z_principal, tropicalize,
)

QUADRIC = LaurentPoly(ZZ, 2, {(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): -3})


def test_renders_well_formed_document():
    text = render_svg(trop_Z_principal(QUADRIC), title="quadric / Z")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "<title>quadric / Z</title>" in text
    # one polygon for the 2-cell, lines for the rays, the circle for the sphere
    assert "<polygon" in text and "<line" in text and "<circle" in text
    assert text.count("<svg") == 1


def test_title_keeps_only_xml_characters():
    # XML 1.0's Char: tab, LF, CR, U+0020-U+D7FF, U+E000-U+FFFD and the
    # planes above; every other character is dropped, the rest kept as is
    T = trop_Z_principal(QUADRIC)
    title = "a\u0001\u001f\ud800\udfff\ufffe\uffffb"
    [node] = minidom.parseString(render_svg(T, title=title)).getElementsByTagName("title")
    assert node.firstChild.data == "ab"
    kept = "\t\n\r x\u007f\u0085\ud7ff\ue000\ufffd\U00010000\U0010ffff"
    assert f"<title>{kept} &amp;&lt;&gt;</title>" in render_svg(T, title=kept + " &<>")


def test_fractional_vertex_and_full_plane():
    q = LaurentPoly(QQ, 2, QUADRIC.terms)
    text = render_svg(trop_hypersurface(q, padic(3)))
    assert "<circle" in text and "</svg>" in text
    text = render_svg(full_plane_complex(), title="everything")
    assert "<polygon" in text


def test_segment_and_sphere_points():
    # 1 + t1 + t2 + 9 t1 t2 under the 3-adic valuation: the segment from 0
    # to (-2, -2), four rays, and a sphere set of two points and one arc
    f = LaurentPoly(QQ, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 9})
    T = trop_hypersurface(f, padic(3))
    text = render_svg(T)
    # reach 3 puts the origin at (210, 210) and one unit at 200/3 pixels
    assert ('<line x1="210.00" y1="210.00" x2="76.67" y2="343.33" '
            'stroke="#1f3b73" stroke-width="2.5"/>') in text
    assert text.count('stroke-width="2.5"') == len(T.cells) == 5
    assert text.count("<path ") == 1 and text.count('r="5"') == 2


def test_planar_only():
    f = LaurentPoly(QQ, 1, {(0,): 3, (1,): -4, (2,): 1})
    with pytest.raises(ValueError, match="planar"):
        render_svg(trop_hypersurface(f, padic(3)))


PAYLOAD = "x</title><script>alert(1)</script><title>&"
TITLES = ["", "one_relator: s3 / Z", "a & b", "<", ">", "&amp;", "'\"", PAYLOAD]


def _corpus(n, seed):
    """n seeded bivariate polynomials over Z of 2-6 terms, each
    tropicalized under Z, a p-adic valuation and the trivial one."""
    rng = random.Random(seed)
    for _ in range(n):
        terms = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.choice([1, -1, 2, -3, 9, -12])
                 for _ in range(rng.randint(2, 6))}
        f = LaurentPoly(ZZ, 2, terms)
        for mode in ("Z", padic(rng.choice([2, 3, 5])), TRIVIAL):
            yield tropicalize(f, mode)
    yield full_plane_complex()


def _title_of(text):
    """The <title> text of a picture as an XML parser reads it, or None."""
    svg = minidom.parseString(text).documentElement
    titles = svg.getElementsByTagName("title")
    assert svg.tagName == "svg" and not svg.getElementsByTagName("script")
    return "".join(n.data for n in titles[0].childNodes) if titles else None


def test_every_picture_is_well_formed_xml_with_its_title():
    for i, T in enumerate(_corpus(60, seed=36)):
        title = TITLES[i % len(TITLES)]
        assert _title_of(render_svg(T, title=title)) == (title or None), (i, title)


# XML 1.0 cannot hold the other C0 controls, and a parser reads a CR as LF
XML_TEXT = st.text(st.characters(exclude_categories=("Cs", "Cc", "Cn"),
                                 include_characters="\t\n"), min_size=1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(XML_TEXT, st.sampled_from(TITLES[1:])))
def test_a_title_round_trips(title):
    assert _title_of(render_svg(full_plane_complex(), title=title)) == title
