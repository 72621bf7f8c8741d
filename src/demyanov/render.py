"""Deterministic SVG rendering of collections as a grid of panels.

One panel per member in canonical order, all panels sharing the bounding
box of the whole collection so shapes stay comparable across panels. The
layout is fixed: 160 px square panels with a 16 px margin, 4 panels per
row, and member i drawn in PALETTE[i % 6].

Coordinates are exact and formatted with a fixed rule, so identical inputs
yield byte-identical output everywhere. The bounding box (read from the
stored vertex keys), the scale and the offset shared by all panels are
rationals made once per collection. Members share vertices, so each
distinct vertex is placed once, from its stored integer lift (X, Y, W),
as an unreduced int pair (numerator, denominator) with no Fraction
arithmetic. Rounding half up to 4 places takes the floor of a ratio that
a common positive factor of the pair leaves unchanged, so no pair is
reduced. Every offset inside a panel is at least MARGIN, because the
span bounds both extents of the box; so rounding it commutes with adding
the panel's integer origin, which each slot adds to the whole part.
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


def _fixed_point(num: int, den: int) -> tuple[int, str]:
    # num/den >= 0 (den > 0) in fixed point, at most 4 places, round half
    # up, as its whole part and its ".dddd" text ("" when whole). The pair
    # need not be reduced: a common positive factor of num and den leaves
    # the floor unchanged.
    whole, frac = divmod((num * 20_000 + den) // (2 * den), 10_000)
    return whole, f".{frac:04d}".rstrip("0") if frac else ""


def render_svg(omega: Collection) -> str:
    """Render each member of the collection into its own panel."""
    # A lift is canonical for its point, so it keys the distinct vertices.
    distinct = {v._lift: v for member in omega.members for v in member.vertices}
    min_x, max_x, min_y, max_y = bounding_box(distinct.values())
    width_units = max_x - min_x
    height_units = max_y - min_y
    span = max(width_units, height_units)
    inner = Fraction(PANEL_SIZE - 2 * MARGIN)
    scale = inner / span if span > 0 else Fraction(1)
    pad_x = (inner - width_units * scale) / 2
    pad_y = (inner - height_units * scale) / 2
    # A vertex (x, y) lands at (ox + x * scale, oy - y * scale) inside its
    # panel. From its lift (X, Y, W) that is (X * xa + W * xb) / (W * xd)
    # across and (W * yb - Y * ya) / (W * yd) down, each at least MARGIN.
    ox = MARGIN + pad_x - min_x * scale
    oy = MARGIN + pad_y + max_y * scale
    sn, sd = scale.numerator, scale.denominator
    xa, xb, xd = sn * ox.denominator, ox.numerator * sd, sd * ox.denominator
    ya, yb, yd = sn * oy.denominator, oy.numerator * sd, sd * oy.denominator
    placed = {
        (X, Y, W): (_fixed_point(X * xa + W * xb, W * xd), _fixed_point(W * yb - Y * ya, W * yd))
        for X, Y, W in distinct
    }

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
        points = [
            (f"{wx + panel_x}{fx}", f"{wy + panel_y}{fy}")
            for (wx, fx), (wy, fy) in [placed[v._lift] for v in member.vertices]
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
