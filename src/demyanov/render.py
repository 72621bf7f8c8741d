"""Deterministic SVG rendering of collections as a grid of panels.

One panel per member in canonical order, all panels sharing the bounding
box of the whole collection so shapes stay comparable across panels. The
layout is fixed: 160 px square panels with a 16 px margin, 4 panels per
row, and member i drawn in PALETTE[i % 6]. Coordinates are computed in
exact rationals and formatted with a fixed rule, so identical inputs
yield byte-identical output everywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .converter import Collection
from .geometry import Point

PALETTE = (
    ("#c6dbef", "#2171b5"),
    ("#fdd0a2", "#d94801"),
    ("#c7e9c0", "#238b45"),
    ("#dadaeb", "#6a51a3"),
    ("#fcbba1", "#cb181d"),
    ("#d9d9d9", "#525252"),
)
PANEL_SIZE = 160
MARGIN = 16
PER_ROW = 4


def _fmt(value: Fraction) -> str:
    # Fixed-point decimal, at most 4 places, round half up, exact arithmetic.
    sign = "-" if value < 0 else ""
    magnitude = -value if value < 0 else value
    scaled = (magnitude.numerator * 20_000 + magnitude.denominator) // (2 * magnitude.denominator)
    if scaled == 0:
        return "0"
    whole, frac = divmod(scaled, 10_000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{f'{frac:04d}'.rstrip('0')}"


def render_svg(omega: Collection) -> str:
    """Render each member of the collection into its own panel."""
    xs = [v.x for member in omega.members for v in member.vertices]
    ys = [v.y for member in omega.members for v in member.vertices]
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    width_units = max_x - min_x
    height_units = max_y - min_y
    span = max(width_units, height_units)
    inner = Fraction(PANEL_SIZE - 2 * MARGIN)
    scale = inner / span if span > 0 else Fraction(1)
    pad_x = (inner - width_units * scale) / 2
    pad_y = (inner - height_units * scale) / 2

    count = len(omega.members)
    cols = min(count, PER_ROW)
    rows = (count + PER_ROW - 1) // PER_ROW
    canvas_w = cols * PANEL_SIZE
    canvas_h = rows * PANEL_SIZE

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas_w}" height="{canvas_h}" '
        f'viewBox="0 0 {canvas_w} {canvas_h}">',
    ]
    for i, member in enumerate(omega.members):
        panel_x = (i % PER_ROW) * PANEL_SIZE
        panel_y = (i // PER_ROW) * PANEL_SIZE
        origin_x = panel_x + MARGIN + pad_x
        origin_y = panel_y + MARGIN + pad_y

        def to_canvas(v: Point) -> tuple[Fraction, Fraction]:
            return (origin_x + (v.x - min_x) * scale, origin_y + (max_y - v.y) * scale)

        fill, stroke = PALETTE[i % len(PALETTE)]
        lines.append('<g class="panel">')
        lines.append(
            f'<rect x="{panel_x}" y="{panel_y}" width="{PANEL_SIZE}" '
            f'height="{PANEL_SIZE}" fill="#ffffff" stroke="#cccccc" stroke-width="1"/>'
        )
        points = [to_canvas(v) for v in member.vertices]
        if len(points) == 1:
            cx, cy = points[0]
            lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="{stroke}"/>')
        elif len(points) == 2:
            (x1, y1), (x2, y2) = points
            lines.append(
                f'<path d="M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}" fill="none" '
                f'stroke="{stroke}" stroke-width="2" stroke-linecap="round"/>'
            )
        else:
            path = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
            lines.append(
                f'<path d="M {path} Z" fill="{fill}" fill-opacity="0.7" '
                f'stroke="{stroke}" stroke-width="2" stroke-linejoin="round"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
