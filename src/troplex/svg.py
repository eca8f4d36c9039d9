"""SVG 1.1 rendering of planar tropical complexes.

The one place floating point is allowed: everything upstream is exact,
and these pictures are presentation only.  Layout: the plane with axes,
cells drawn on top (2-cells shaded, then rays/segments; a planar
complex has no vertex cells), and the unit circle with the cells' sphere
arcs stroked on it.
"""

from __future__ import annotations

import math

from .tropical import sphere_projection

_W = 420
_PAD = 10
_C = _W / 2  # the origin and the circle's centre, in pixels


def _reach(T):
    m = 2.0
    for c in T.cells:
        for pt in (c.base, c.end):
            if pt is not None:
                m = max(m, *(abs(float(x)) + 1.0 for x in pt))
    return m


def _unit(v):
    n = math.hypot(float(v[0]), float(v[1]))
    return (float(v[0]) / n, float(v[1]) / n)


def _toward(b, u, d):
    """The point at distance d from b along the unit vector u."""
    return (b[0] + d * u[0], b[1] + d * u[1])


def _xml_char(c):
    """Whether XML 1.0's Char production admits c."""
    return c in "\t\n\r" or " " <= c < "\ud800" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


def _escape(text):
    """Element text for XML: characters outside XML 1.0's Char dropped,
    then & first, so the other two are not escaped twice."""
    text = "".join(filter(_xml_char, text))
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(a, b, stroke, width):
    """A line between the pixel points a and b."""
    return (
        f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _cell(c, xy, far):
    """A segment or ray as a line, a 2-cell as a shaded polygon cut off far away."""
    b = (float(c.base[0]), float(c.base[1]))
    if c.kind == "segment":
        return _line(xy(b), xy(c.end), "#1f3b73", 2.5)
    if c.kind == "ray":
        return _line(xy(b), xy(_toward(b, _unit(c.dir), far)), "#1f3b73", 2.5)
    u1, u2 = _unit(c.dir), _unit(c.dir2)
    mid = _unit((u1[0] + u2[0], u1[1] + u2[1]))
    pts = [b, _toward(b, u1, far), _toward(b, mid, 2 * far), _toward(b, u2, far)]
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(xy, pts))
    return f'<polygon points="{points}" fill="#9db4dd" fill-opacity="0.55" stroke="none"/>'


def _arc(comp, r):
    """A sphere component on the circle of radius r: a dot or an arc."""
    if comp[0] == "point":
        ux, uy = _unit(comp[1])
        return (
            f'<circle cx="{_C + r * ux:.2f}" cy="{_C - r * uy:.2f}" r="5" '
            'fill="#b3362b"/>'
        )
    _, a, b, _, _ = comp
    ax, ay = _unit(a)
    bx, by = _unit(b)
    start = math.atan2(ay, ax)
    end = math.atan2(by, bx)
    sweep = (end - start) % (2 * math.pi)
    large = 1 if sweep > math.pi else 0
    # svg y axis points down; ccw in math coords is sweep flag 0
    return (
        f'<path d="M {_C + r * ax:.2f} {_C - r * ay:.2f} '
        f'A {r:.2f} {r:.2f} 0 {large} 0 {_C + r * bx:.2f} {_C - r * by:.2f}" '
        'fill="none" stroke="#b3362b" stroke-width="4"/>'
    )


def render_svg(T, title=""):
    """Render a planar tropical complex (and its sphere set) as SVG text."""
    if T.nvars != 2:
        raise ValueError("SVG rendering is planar only")
    arcs = sphere_projection(T)
    reach = _reach(T)
    scale = (_C - _PAD) / reach  # pixels per unit, so the unit circle's radius
    far = 4.0 * reach

    def xy(p):
        return (_C + float(p[0]) * scale, _C - float(p[1]) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_W}" viewBox="0 0 {_W} {_W}">',
        f'<rect width="{_W}" height="{_W}" fill="white"/>',
    ]
    if title:
        parts.append(f"<title>{_escape(title)}</title>")
    parts += [
        f'<clipPath id="frame"><rect x="{_PAD}" y="{_PAD}" '
        f'width="{_W - 2 * _PAD}" height="{_W - 2 * _PAD}"/></clipPath>',
        '<g clip-path="url(#frame)">',
        _line(xy((-reach, 0)), xy((reach, 0)), "#cccccc", 1),
        _line(xy((0, -reach)), xy((0, reach)), "#cccccc", 1),
    ]
    order = {"cone2": 0, "segment": 1, "ray": 2}
    parts += (_cell(c, xy, far) for c in sorted(T.cells, key=lambda c: order[c.kind]))
    circle = f'<circle cx="{_C}" cy="{_C}" r="{scale:.2f}" fill="none" '
    parts.append(circle + 'stroke="#888888" stroke-width="1.5" stroke-dasharray="6 4"/>')
    if arcs.full:
        parts.append(circle + 'stroke="#b3362b" stroke-width="4"/>')
    else:
        parts += (_arc(comp, scale) for comp in arcs.components)
    parts += ["</g>", "</svg>"]
    return "\n".join(parts) + "\n"
