"""Shared builders and frozen expected values for the test suite.

The table constants below were derived by hand from the piecewise case
analysis of the bundled family: for each listed direction, every member's
argmax vertex set was enumerated and the hull of their union taken. They
are frozen here as an oracle independent of the fan-cell machinery.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from hypothesis import strategies as st

from demyanov import Collection, Direction, Point, convex_hull
from demyanov.converter import _ccw_order, affine_image
from demyanov.render import MARGIN, PALETTE, PANEL_SIZE, PER_ROW


def pt(x, y):
    return Point(x, y)


def poly(*coords):
    return convex_hull([Point(x, y) for x, y in coords])


def coll(*vertex_lists):
    return Collection.of(poly(*vl) for vl in vertex_lists)


def vertex_set(polytope):
    return {(v.x, v.y) for v in polytope.vertices}


# Ray orders test_directions must reject, eagerly: one ray leaves an empty
# sector from it to itself, and keeping only the rays with b > 0 closes the
# fan with a sector wider than a half turn. (Keeping b >= 0 would not fail
# on the bundled family: it closes with the half turn from (-1, 0) to
# (1, 0).)
BROKEN_RAY_ORDERS = {
    "one-ray": lambda normals: _ccw_order(normals)[:1],
    "upper-half-plane": lambda normals: [n for n in _ccw_order(normals) if n[1] > 0],
}


# The bundled counterexample family.
P1 = ((1, 0), (1, 1), (-1, 0))
P2 = ((-1, 0), (-1, 1), (1, 0))
P3 = ((1, 2), (-1, 2), (0, 0))
P4 = ((2, 0), (-2, 0))
OMEGA0 = (P1, P2, P3, P4)

# Its first four iterates (members as unordered vertex sets; builders hull
# them into canonical form). Each right-half-plane case row appears with
# its mirror image; self-symmetric rows appear once.
OMEGA1 = (
    ((-2, 0), (2, 0)),
    ((0, 0), (2, 0)),
    ((-2, 0), (0, 0)),
    ((0, 0), (1, 2), (2, 0)),
    ((0, 0), (-1, 2), (-2, 0)),
    ((1, 0), (1, 2), (2, 0)),
    ((-1, 0), (-1, 2), (-2, 0)),
    ((1, 0), (-1, 1), (1, 2), (2, 0)),
    ((-1, 0), (1, 1), (-1, 2), (-2, 0)),
    ((-1, 1), (1, 2), (2, 0)),
    ((1, 1), (-1, 2), (-2, 0)),
    ((-1, 2), (1, 2), (2, 0), (-2, 0)),
)

OMEGA2 = (
    ((-2, 0), (2, 0)),
    ((-2, 0), (2, 0), (1, 1)),
    ((-2, 0), (2, 0), (-1, 1)),
    ((-1, 0), (1, 1), (2, 0)),
    ((1, 0), (-1, 1), (-2, 0)),
    ((-1, 0), (-1, 2), (2, 0), (1, 1)),
    ((1, 0), (1, 2), (-2, 0), (-1, 1)),
    ((0, 0), (-1, 2), (2, 0), (1, 1)),
    ((0, 0), (1, 2), (-2, 0), (-1, 1)),
    ((0, 0), (-1, 2), (2, 0), (1, 2)),
    ((0, 0), (1, 2), (-2, 0), (-1, 2)),
    ((-1, 2), (1, 2), (2, 0), (-2, 0)),
)

OMEGA3 = (
    ((-2, 0), (2, 0)),
    ((0, 0), (2, 0)),
    ((-2, 0), (0, 0)),
    ((0, 0), (1, 2), (2, 0)),
    ((0, 0), (-1, 2), (-2, 0)),
    ((1, 0), (1, 2), (2, 0)),
    ((-1, 0), (-1, 2), (-2, 0)),
    ((1, 0), (-1, 1), (1, 2), (2, 0), (-1, 2)),
    ((-1, 0), (1, 1), (-1, 2), (-2, 0), (1, 2)),
    ((-1, 1), (1, 2), (2, 0), (-1, 2)),
    ((1, 1), (-1, 2), (-2, 0), (1, 2)),
    ((-1, 2), (1, 2), (2, 0), (-2, 0)),
)

OMEGA4 = (
    ((-2, 0), (2, 0)),
    ((-2, 0), (2, 0), (1, 1)),
    ((-2, 0), (2, 0), (-1, 1)),
    ((-1, 0), (1, 1), (2, 0)),
    ((1, 0), (-1, 1), (-2, 0)),
    ((-1, 0), (-1, 2), (2, 0), (1, 2)),
    ((1, 0), (1, 2), (-2, 0), (-1, 2)),
    ((0, 0), (-1, 2), (2, 0), (1, 2)),
    ((0, 0), (1, 2), (-2, 0), (-1, 2)),
    ((-1, 2), (1, 2), (2, 0), (-2, 0)),
)

# One representative direction per case row: direction -> image vertex set.
TABLE_OMEGA0 = (
    ((0, -1), ((-2, 0), (2, 0))),
    ((1, -1), ((0, 0), (2, 0))),
    ((2, -1), ((0, 0), (1, 2), (2, 0))),
    ((1, 0), ((1, 0), (1, 2), (2, 0))),
    ((1, 2), ((1, 0), (-1, 1), (1, 2), (2, 0))),
    ((1, 3), ((-1, 1), (1, 2), (2, 0))),
    ((0, 1), ((-1, 2), (1, 2), (2, 0), (-2, 0))),
)

TABLE_OMEGA1 = (
    ((0, -1), ((-2, 0), (2, 0))),
    ((1, -4), ((-2, 0), (2, 0))),
    ((1, -3), ((-2, 0), (2, 0), (1, 1))),
    ((1, -2), ((-1, 0), (1, 1), (2, 0))),
    ((1, -1), ((-1, 0), (1, 1), (2, 0))),
    ((1, 0), ((-1, 0), (-1, 2), (2, 0), (1, 1))),
    ((3, 1), ((0, 0), (-1, 2), (2, 0), (1, 1))),
    ((2, 1), ((0, 0), (-1, 2), (2, 0), (1, 2))),
    ((1, 1), ((0, 0), (-1, 2), (2, 0), (1, 2))),
    ((1, 2), ((0, 0), (-1, 2), (2, 0), (1, 2))),
    ((0, 1), ((-1, 2), (1, 2), (2, 0), (-2, 0))),
)

TABLE_OMEGA2 = (
    ((0, -1), ((-2, 0), (2, 0))),
    ((1, -1), ((0, 0), (2, 0))),
    ((2, -1), ((0, 0), (1, 2), (2, 0))),
    ((1, 0), ((1, 0), (1, 2), (2, 0))),
    ((1, 2), ((1, 0), (-1, 1), (1, 2), (2, 0), (-1, 2))),
    ((1, 3), ((-1, 1), (1, 2), (2, 0), (-1, 2))),
    ((0, 1), ((-1, 2), (1, 2), (2, 0), (-2, 0))),
)

TABLE_OMEGA3 = (
    ((0, -1), ((-2, 0), (2, 0))),
    ((1, -4), ((-2, 0), (2, 0))),
    ((1, -3), ((-2, 0), (2, 0), (1, 1))),
    ((1, -1), ((-1, 0), (1, 1), (2, 0))),
    ((1, 0), ((-1, 0), (-1, 2), (2, 0), (1, 2))),
    ((1, 1), ((0, 0), (-1, 2), (2, 0), (1, 2))),
    ((0, 1), ((-1, 2), (1, 2), (2, 0), (-2, 0))),
)

# Per-member argmax faces of the starting family at the same directions.
ARGMAX_TABLES = (
    (
        P1,
        (
            ((0, -1), ((-1, 0), (1, 0))),
            ((1, -1), ((1, 0),)),
            ((2, -1), ((1, 0),)),
            ((1, 0), ((1, 0), (1, 1))),
            ((1, 2), ((1, 1),)),
            ((1, 3), ((1, 1),)),
            ((0, 1), ((1, 1),)),
        ),
    ),
    (
        P2,
        (
            ((0, -1), ((-1, 0), (1, 0))),
            ((1, -1), ((1, 0),)),
            ((2, -1), ((1, 0),)),
            ((1, 0), ((1, 0),)),
            ((1, 2), ((1, 0), (-1, 1))),
            ((1, 3), ((-1, 1),)),
            ((0, 1), ((-1, 1),)),
        ),
    ),
    (
        P3,
        (
            ((0, -1), ((0, 0),)),
            ((1, -1), ((0, 0),)),
            ((2, -1), ((0, 0), (1, 2))),
            ((1, 0), ((1, 2),)),
            ((1, 2), ((1, 2),)),
            ((1, 3), ((1, 2),)),
            ((0, 1), ((-1, 2), (1, 2))),
        ),
    ),
    (
        P4,
        (
            ((0, -1), ((-2, 0), (2, 0))),
            ((1, -1), ((2, 0),)),
            ((2, -1), ((2, 0),)),
            ((1, 0), ((2, 0),)),
            ((1, 2), ((2, 0),)),
            ((1, 3), ((2, 0),)),
            ((0, 1), ((-2, 0), (2, 0))),
        ),
    ),
)


def direction(pair):
    return Direction(pair[0], pair[1])


# x -> (-x, y), as the linear part A of an affine map: the bundled family
# and each of its iterates are symmetric about the vertical axis.
MIRROR = ((-1, 0), (0, 1))

_entries_st = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# Invertible rational affine maps x -> A x + t as (A, t). Entries are p/q,
# so images carry denominators, and det A takes both signs, so maps that
# reverse orientation are drawn as often as those that keep it.
affine_maps_st = st.tuples(
    st.tuples(st.tuples(_entries_st, _entries_st), st.tuples(_entries_st, _entries_st)).filter(
        lambda A: A[0][0] * A[1][1] != A[0][1] * A[1][0]
    ),
    st.tuples(_entries_st, _entries_st),
)


def mixed_families(coords_st):
    """Families mixing points, segments and polygons on the given
    coordinates, where a member may come with a translated copy of itself
    or of its first edge, which shares that member's edge normals."""
    points_st = st.builds(pt, coords_st, coords_st)
    shapes_st = st.one_of(
        points_st.map(lambda p: convex_hull([p])),
        st.lists(points_st, min_size=2, max_size=2, unique=True).map(convex_hull),
        st.lists(points_st, min_size=3, max_size=5).map(convex_hull),
    )
    copies_st = st.none() | st.tuples(coords_st, coords_st, st.booleans())

    def with_copy(member, copy):
        if copy is None:
            return [member]
        dx, dy, edge_only = copy
        verts = member.vertices[:2] if edge_only else member.vertices
        return [member, convex_hull(pt(v.x + dx, v.y + dy) for v in verts)]

    return st.lists(st.tuples(shapes_st, copies_st), min_size=1, max_size=4).map(
        lambda rows: Collection.of(m for member, copy in rows for m in with_copy(member, copy))
    )


def inverse_map(A, t):
    """(A^-1, -A^-1 t): the affine map undoing x -> A x + t."""
    (a, b), (c, d) = A
    det = Fraction(a * d - b * c)
    inv = ((d / det, -b / det), (-c / det, a / det))
    return inv, tuple(-(row[0] * t[0] + row[1] * t[1]) for row in inv)


def affine_polytope(polytope, A, t=(0, 0)):
    """The image of one polytope under x -> A x + t."""
    return affine_image(Collection((polytope,)), A, t).members[0]


def mirror_symmetric(omega):
    """omega together with its mirror image: a family the mirror fixes."""
    return Collection.of(list(omega) + list(affine_image(omega, MIRROR)))


def exhauster_value(omega, d):
    """U_omega(d): the min over members of the max of <v, d> over the
    member's vertices, in Fraction arithmetic on v.x and v.y, never on
    the integer lift."""
    a, b = d
    # Members share vertices, so each distinct vertex is scored once.
    vertices = {v for member in omega.members for v in member.vertices}
    score = {v: a * v.x + b * v.y for v in vertices}
    return min(max(score[v] for v in member.vertices) for member in omega.members)


def critical_directions(omega):
    """The four axes and +- the primitive int perpendicular to the
    difference of each two distinct vertices of omega, sorted.

    U is piecewise linear with breaks only on these rays, for omega and
    for every iterate of it, whose vertices are all vertices of omega.
    """
    vertices = {v for member in omega.members for v in member.vertices}
    vertices = sorted(vertices, key=attrgetter("x", "y"))
    directions = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for i, p in enumerate(vertices):
        for q in vertices[i + 1 :]:
            dx, dy = q.x - p.x, q.y - p.y
            scale = lcm(dx.denominator, dy.denominator)
            a, b = int(-dy * scale), int(dx * scale)
            g = gcd(a, b)
            directions.update([(a // g, b // g), (-a // g, -b // g)])
    return sorted(directions)


def turn(p, q, r):
    """The Fraction cross product (q - p) x (r - p): positive on a left
    turn, zero on collinear points. It shares no arithmetic with the
    library's integer determinant."""
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def reference_hull_vertices(points):
    """Extreme points in canonical order, by a monotone chain on Fraction
    coordinates.

    A test-only reference for the library's integer hull: it sorts and
    deduplicates the points by their Fraction values and orients by turn,
    sharing no arithmetic with the library.
    """
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(pts) == 1:
        return (pts[0],)
    lower = []
    for p in pts:
        while len(lower) > 1 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def reference_angular_cmp(d, e):
    """Counterclockwise order of nonzero (a, b) pairs from (1, 0), as a cmp.

    A test-only reference for the fan's int sort key: half-plane first
    (angles in [0, pi) before [pi, 2*pi)), then the sign of the cross
    product, sharing no arithmetic with the library's key.
    """

    def half_plane(v):
        a, b = v
        return 0 if b > 0 or (b == 0 and a > 0) else 1

    if half_plane(d) != half_plane(e):
        return half_plane(d) - half_plane(e)
    cross = d[0] * e[1] - d[1] * e[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def wide_denominator_points(count, seed=0):
    """count points in [-10, 10]^2 whose 2 * count coordinates have
    pairwise distinct denominators of about 31 bits.

    A common denominator of all of them would have about 31 * 2 * count
    bits, so any hull that scales the whole input by one lcm slows to a
    crawl on them.
    """
    rng = random.Random(seed)
    denominators = iter(rng.sample(range(2**30 + 1, 2**31, 2), 2 * count))

    def coordinate():
        q = next(denominators)
        return Fraction(rng.randrange(-10 * q, 10 * q), q)

    return [Point(coordinate(), coordinate()) for _ in range(count)]


def reference_fmt(value):
    """A Fraction in fixed point, at most 4 places, rounded half up."""
    sign = "-" if value < 0 else ""
    magnitude = -value if value < 0 else value
    scaled = (magnitude.numerator * 20_000 + magnitude.denominator) // (2 * magnitude.denominator)
    if scaled == 0:
        return "0"
    whole, frac = divmod(scaled, 10_000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{f'{frac:04d}'.rstrip('0')}"


def reference_canvas_points(omega):
    """Each member's vertices on the canvas, as Fraction pairs.

    The test-only reference for the renderer's placement: the bounding box
    by min/max over Fraction coordinates, and each vertex placed by
    Fraction arithmetic on its coordinates, never on its integer lift.
    """
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
    panels = []
    for i, member in enumerate(omega.members):
        origin_x = (i % PER_ROW) * PANEL_SIZE + MARGIN + pad_x
        origin_y = (i // PER_ROW) * PANEL_SIZE + MARGIN + pad_y
        panels.append(
            [
                (origin_x + (v.x - min_x) * scale, origin_y + (max_y - v.y) * scale)
                for v in member.vertices
            ]
        )
    return panels


def reference_render_svg(omega):
    """The SVG of render_svg, drawn from reference_canvas_points and
    reference_fmt: the renderer's Fraction route, kept as an oracle."""
    count = len(omega.members)
    canvas_w = min(count, PER_ROW) * PANEL_SIZE
    canvas_h = (count + PER_ROW - 1) // PER_ROW * PANEL_SIZE
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas_w}" height="{canvas_h}" '
        f'viewBox="0 0 {canvas_w} {canvas_h}">',
    ]
    for i, points in enumerate(reference_canvas_points(omega)):
        panel_x = (i % PER_ROW) * PANEL_SIZE
        panel_y = (i // PER_ROW) * PANEL_SIZE
        fill, stroke = PALETTE[i % len(PALETTE)]
        lines.append('<g class="panel">')
        lines.append(
            f'<rect x="{panel_x}" y="{panel_y}" width="{PANEL_SIZE}" '
            f'height="{PANEL_SIZE}" fill="#ffffff" stroke="#cccccc" stroke-width="1"/>'
        )
        text = [(reference_fmt(x), reference_fmt(y)) for x, y in points]
        if len(text) == 1:
            (cx, cy), = text
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{stroke}"/>')
        elif len(text) == 2:
            (x1, y1), (x2, y2) = text
            lines.append(
                f'<path d="M {x1} {y1} L {x2} {y2}" fill="none" '
                f'stroke="{stroke}" stroke-width="2" stroke-linecap="round"/>'
            )
        else:
            path = " L ".join(f"{x} {y}" for x, y in text)
            lines.append(
                f'<path d="M {path} Z" fill="{fill}" fill-opacity="0.7" '
                f'stroke="{stroke}" stroke-width="2" stroke-linejoin="round"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
