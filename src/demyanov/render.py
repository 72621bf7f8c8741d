"""Deterministic SVG rendering of collections as a grid of panels.

One panel per member in canonical order, all panels sharing the bounding
box of the whole collection so shapes stay comparable across panels. The
layout is fixed: 160 px square panels with a 16 px margin, 4 panels per
row, and member i drawn in PALETTE[i % 6].

Coordinates are exact and formatted with a fixed rule, so identical inputs
yield byte-identical output everywhere. The bounding box (read from the
stored vertex keys), the scale and the offset shared by all panels are
rationals made once per collection. Each vertex is then placed from its
stored integer lift (X, Y, W) as an unreduced int pair (numerator,
denominator), with no Fraction arithmetic per panel or per vertex.
Rounding half up to 4 places takes the floor of a ratio that a common
positive factor of the pair leaves unchanged, so no pair is reduced.
"""

from __future__ import annotations

from fractions import Fraction

from .converter import Collection
from .geometry import bounding_box

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


def _fmt(num: int, den: int) -> str:
    # num/den (den > 0) in fixed point, at most 4 places, round half up.
    # The pair need not be reduced: a common positive factor of num and den
    # leaves the floor unchanged.
    scaled = (abs(num) * 20_000 + den) // (2 * den)
    if scaled == 0:
        return "0"
    sign = "-" if num < 0 else ""
    whole, frac = divmod(scaled, 10_000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{f'{frac:04d}'.rstrip('0')}"


def render_svg(omega: Collection) -> str:
    """Render each member of the collection into its own panel."""
    min_x, max_x, min_y, max_y = bounding_box(omega.members)
    width_units = max_x - min_x
    height_units = max_y - min_y
    span = max(width_units, height_units)
    inner = Fraction(PANEL_SIZE - 2 * MARGIN)
    scale = inner / span if span > 0 else Fraction(1)
    pad_x = (inner - width_units * scale) / 2
    pad_y = (inner - height_units * scale) / 2
    # A vertex (x, y) drawn in the panel at (panel_x, panel_y) lands at
    # (panel_x + ox + x * scale, panel_y + oy - y * scale). From its lift
    # (X, Y, W) that is (X * xa + W * (panel_x * xd + xb)) / (W * xd)
    # across and (W * (panel_y * yd + yb) - Y * ya) / (W * yd) down.
    ox = MARGIN + pad_x - min_x * scale
    oy = MARGIN + pad_y + max_y * scale
    sn, sd = scale.numerator, scale.denominator
    xa, xb, xd = sn * ox.denominator, ox.numerator * sd, sd * ox.denominator
    ya, yb, yd = sn * oy.denominator, oy.numerator * sd, sd * oy.denominator

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
        bx, by = panel_x * xd + xb, panel_y * yd + yb
        points = [
            (_fmt(X * xa + W * bx, W * xd), _fmt(W * by - Y * ya, W * yd))
            for X, Y, W in [v._lift for v in member.vertices]
        ]

        fill, stroke = PALETTE[i % len(PALETTE)]
        lines.append('<g class="panel">')
        lines.append(
            f'<rect x="{panel_x}" y="{panel_y}" width="{PANEL_SIZE}" '
            f'height="{PANEL_SIZE}" fill="#ffffff" stroke="#cccccc" stroke-width="1"/>'
        )
        if len(points) == 1:
            cx, cy = points[0]
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{stroke}"/>')
        elif len(points) == 2:
            (x1, y1), (x2, y2) = points
            lines.append(
                f'<path d="M {x1} {y1} L {x2} {y2}" fill="none" '
                f'stroke="{stroke}" stroke-width="2" stroke-linecap="round"/>'
            )
        else:
            path = " L ".join(f"{x} {y}" for x, y in points)
            lines.append(
                f'<path d="M {path} Z" fill="{fill}" fill-opacity="0.7" '
                f'stroke="{stroke}" stroke-width="2" stroke-linejoin="round"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
