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


class _Canvas:
    def __init__(self, reach):
        self.scale = (_W / 2 - _PAD) / reach
        self.parts = []

    def xy(self, p):
        return (
            _W / 2 + float(p[0]) * self.scale,
            _W / 2 - float(p[1]) * self.scale,
        )

    def add(self, s):
        self.parts.append(s)


def _reach(T):
    m = 2.0
    for c in T.cells:
        for pt in (c.base, c.end):
            if pt is not None:
                m = max(m, *(abs(float(x)) + 1.0 for x in pt))
    return m


def _poly_points(canvas, pts):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in (canvas.xy(p) for p in pts))


def _unit(v):
    n = math.hypot(float(v[0]), float(v[1]))
    return (float(v[0]) / n, float(v[1]) / n)


def _draw_cell(canvas, c, far):
    if c.kind == "segment":
        x1, y1 = canvas.xy(c.base)
        x2, y2 = canvas.xy(c.end)
        canvas.add(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#1f3b73" stroke-width="2.5"/>'
        )
    elif c.kind == "ray":
        u = _unit(c.dir)
        tip = (float(c.base[0]) + far * u[0], float(c.base[1]) + far * u[1])
        x1, y1 = canvas.xy(c.base)
        x2, y2 = canvas.xy(tip)
        canvas.add(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#1f3b73" stroke-width="2.5"/>'
        )
    else:
        u1, u2 = _unit(c.dir), _unit(c.dir2)
        mid = _unit((u1[0] + u2[0], u1[1] + u2[1]))
        b = (float(c.base[0]), float(c.base[1]))
        pts = [
            b,
            (b[0] + far * u1[0], b[1] + far * u1[1]),
            (b[0] + 2 * far * mid[0], b[1] + 2 * far * mid[1]),
            (b[0] + far * u2[0], b[1] + far * u2[1]),
        ]
        canvas.add(
            f'<polygon points="{_poly_points(canvas, pts)}" '
            'fill="#9db4dd" fill-opacity="0.55" stroke="none"/>'
        )


def _arc_path(canvas, comp):
    cx = cy = _W / 2
    r = canvas.scale  # unit circle
    if comp[0] == "point":
        ux, uy = _unit(comp[1])
        return (
            f'<circle cx="{cx + r * ux:.2f}" cy="{cy - r * uy:.2f}" r="5" '
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
        f'<path d="M {cx + r * ax:.2f} {cy - r * ay:.2f} '
        f'A {r:.2f} {r:.2f} 0 {large} 0 {cx + r * bx:.2f} {cy - r * by:.2f}" '
        'fill="none" stroke="#b3362b" stroke-width="4"/>'
    )


def render_svg(T, title=""):
    """Render a planar tropical complex (and its sphere set) as SVG text."""
    if T.nvars != 2:
        raise ValueError("SVG rendering is planar only")
    arcs = sphere_projection(T)
    reach = _reach(T)
    canvas = _Canvas(reach)
    far = 4.0 * reach
    canvas.add(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_W}" viewBox="0 0 {_W} {_W}">'
    )
    canvas.add(f'<rect width="{_W}" height="{_W}" fill="white"/>')
    if title:
        canvas.add(
            f'<title>{title}</title>'
        )
    canvas.add(
        f'<clipPath id="frame"><rect x="{_PAD}" y="{_PAD}" '
        f'width="{_W - 2 * _PAD}" height="{_W - 2 * _PAD}"/></clipPath>'
    )
    canvas.add('<g clip-path="url(#frame)">')
    x0, y0 = canvas.xy((-reach, 0))
    x1, y1 = canvas.xy((reach, 0))
    canvas.add(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    x0, y0 = canvas.xy((0, -reach))
    x1, y1 = canvas.xy((0, reach))
    canvas.add(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    order = {"cone2": 0, "segment": 1, "ray": 2}
    for c in sorted(T.cells, key=lambda c: order[c.kind]):
        _draw_cell(canvas, c, far)
    cx = cy = _W / 2
    canvas.add(
        f'<circle cx="{cx}" cy="{cy}" r="{canvas.scale:.2f}" fill="none" '
        'stroke="#888888" stroke-width="1.5" stroke-dasharray="6 4"/>'
    )
    if arcs.full:
        canvas.add(
            f'<circle cx="{cx}" cy="{cy}" r="{canvas.scale:.2f}" fill="none" '
            'stroke="#b3362b" stroke-width="4"/>'
        )
    else:
        for comp in arcs.components:
            canvas.add(_arc_path(canvas, comp))
    canvas.add("</g>")
    canvas.add("</svg>")
    return "\n".join(canvas.parts) + "\n"
