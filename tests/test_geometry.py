import time
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from itertools import cycle
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from demyanov import (
    Collection,
    Point,
    Polytope,
    collection_digest,
    converter_image,
    convex_hull,
    geometry,
    serialize_family,
)
from demyanov.converter import affine_image
from demyanov.geometry import _sort_key, bounding_box, exposed_face, support_value

from support import (
    MIRROR,
    OMEGA0,
    P1,
    P2,
    P4,
    affine_maps_st,
    affine_polytope,
    coll,
    directions_st,
    inverse_map,
    poly,
    pt,
    reference_hull_vertices,
    turn,
    vertex_set,
    wide_denominator_points,
)

# p/q coordinates with small denominators, so equal and collinear points
# still turn up often.
coords_st = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 4))
points_st = st.builds(pt, coords_st, coords_st)
point_lists_st = st.lists(points_st, min_size=1, max_size=12)
# Single points, doubled points and collinear runs, shuffled together.
chunks_st = st.one_of(
    points_st.map(lambda p: [p]),
    points_st.map(lambda p: [p, p]),
    st.builds(
        lambda p, dx, dy, n: [pt(p.x + k * dx, p.y + k * dy) for k in range(n)],
        points_st, coords_st, coords_st, st.integers(2, 5),
    ),
)
hull_inputs_st = st.lists(chunks_st, min_size=1, max_size=6).flatmap(
    lambda chunks: st.permutations([p for chunk in chunks for p in chunk])
)
# Canonical vertex tuples: hull outputs, and points in convex position (on
# a parabola, so that every one of them is a vertex).
hulls_st = hull_inputs_st.map(reference_hull_vertices)


def on_parabola(ks):
    return reference_hull_vertices([pt(Fraction(k, 2), Fraction(k * k, 3)) for k in ks])


def convex_position_st(sizes):
    return (
        st.sampled_from(sizes)
        .flatmap(lambda n: st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))
        .map(on_parabola)
    )


polygons_st = st.one_of(hulls_st, convex_position_st([3, 4, 5, 6]))


def star_orderings(verts):
    # Every vertex visited once, stepping s > 1 places at a time: a
    # pentagram for s = 2 on five vertices. Six vertices admit none.
    n = len(verts)
    return [
        tuple(verts[(i * s) % n] for i in range(n)) for s in range(2, n - 1) if gcd(s, n) == 1
    ]


def rotations(verts):
    return st.integers(0, len(verts) - 1).map(lambda k: verts[k:] + verts[:k])


def with_edge_midpoint(verts):
    # The midpoint of one edge inserted between its ends: a collinear
    # vertex, or a duplicate on a single point.
    n = len(verts)

    def insert(k):
        p, q = verts[k], verts[(k + 1) % n]
        return verts[: k + 1] + (pt((p.x + q.x) / 2, (p.y + q.y) / 2),) + verts[k + 1 :]

    return st.integers(0, n - 1).map(insert)


vertex_tuples_st = st.one_of(
    hull_inputs_st.map(tuple),
    polygons_st,
    polygons_st.flatmap(st.permutations).map(tuple),
    polygons_st.flatmap(rotations),
    polygons_st.map(lambda h: h[::-1]),
    polygons_st.map(lambda h: h + h),
    polygons_st.flatmap(with_edge_midpoint),
    convex_position_st([5, 7, 8, 9]).flatmap(lambda h: st.sampled_from(star_orderings(h))),
)


def contains_point(polytope, p):
    # Independent membership predicate used to validate hulls: turn works
    # on Fractions, apart from the library's integer determinant.
    verts = polytope.vertices
    if len(verts) == 1:
        return p == verts[0]
    if len(verts) == 2:
        a, b = verts
        if turn(a, b, p) != 0:
            return False
        return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    return all(turn(verts[i], verts[(i + 1) % len(verts)], p) >= 0 for i in range(len(verts)))


def test_convex_hull_triangle_canonical_form():
    hull = poly((1, 0), (1, 1), (-1, 0))
    assert hull.vertices == (pt(-1, 0), pt(1, 0), pt(1, 1))


def test_convex_hull_collinear_collapses_to_segment():
    assert poly((0, 0), (1, 0), (2, 0)).vertices == (pt(0, 0), pt(2, 0))


def test_convex_hull_duplicates_collapse_to_point():
    assert poly((0, 0), (0, 0)).vertices == (pt(0, 0),)


def test_convex_hull_empty_input_rejected():
    with pytest.raises(ValueError, match="^a polytope needs at least one vertex$"):
        convex_hull([])
    with pytest.raises(ValueError, match="^a polytope needs at least one vertex$"):
        Polytope(())


def test_convex_hull_rational_coordinates():
    hull = convex_hull([Point("1/2", 0), Point(0, "1/3"), Point(0, 0)])
    assert vertex_set(hull) == {(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3)), (0, 0)}


def test_polytope_rejects_non_canonical_vertex_order():
    with pytest.raises(ValueError):
        Polytope((pt(1, 0), pt(-1, 0), pt(1, 1)))
    with pytest.raises(ValueError):
        Polytope((pt(0, 0), pt(1, 0), pt(2, 0)))


def test_point_rejects_floats():
    with pytest.raises(TypeError):
        Point(0.5, 1)
    with pytest.raises(TypeError):
        Point(1, 0.5)


# Coordinate values for the point key: lattice values, p/q values sharing
# an integer part, and pairs j/2**40 closer than 2**-32 (their first key
# entries tie, so only the exact tie-break tells them apart).
key_values_st = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(lambda k, p: k + Fraction(p, 7), st.integers(-2, 1), st.integers(1, 6)),
    st.builds(lambda k, p: k + Fraction(p, 9), st.integers(-2, 1), st.integers(1, 8)),
    st.builds(lambda k, j: k + Fraction(j, 2**40), st.integers(-1, 0), st.integers(-2, 2)),
)


def fresh(value):
    # A new Fraction object for the value, so equal values arrive as
    # distinct objects.
    return Fraction(value.numerator, value.denominator)


key_points_st = st.builds(lambda x, y: Point(fresh(x), fresh(y)), key_values_st, key_values_st)


@given(st.lists(key_points_st, min_size=1, max_size=8))
@example([Point(Fraction(1, 2**40), 0), Point(0, 0), Point(Fraction(-1, 2**40), 0)])
@example([Point(0, Fraction(2, 2**40)), Point(0, Fraction(1, 2**40))])
# Lifts (1, 0, 2) and (1, 0, 1), (1, 2, 3) and (1, 2, 1): only W differs.
@example([Point("1/2", 0), Point(1, 0)])
@example([Point("1/3", "2/3"), Point(1, 2)])
def test_point_key_orders_and_equates_as_the_fraction_pair(points):
    pairs = [(p.x, p.y) for p in points]
    assert [id(p) for p in sorted(points, key=_sort_key)] == [
        id(p) for p in sorted(points, key=lambda p: (p.x, p.y))
    ]
    for p, xy in zip(points, pairs):
        assert hash(p) == hash(xy)
        assert [p == q for q in points] == [xy == other for other in pairs]


def test_point_strings_take_only_integer_and_p_q_literals():
    assert Point("1/2", "-3") == Point(Fraction(1, 2), -3)
    # Fraction would parse these too; an exponent of ten million digits
    # would build a 33-million-bit int first.
    for raw in ("1e10000000", "0.5", " 1", "+1", "1_0", "1/2/3", "1/0", "0/0", "-3/000"):
        started = time.perf_counter()
        with pytest.raises(ValueError):
            Point(raw, 0)
        assert time.perf_counter() - started < 1
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        Point(0, "1/0")


def test_point_takes_only_int_fraction_and_str():
    # Fraction(Decimal("1e1000000")) would build a 3.3-million-bit numerator.
    for value in (Decimal("1e1000000"), Decimal("0.5"), complex(1, 0), None, [1]):
        started = time.perf_counter()
        with pytest.raises(TypeError, match="coordinates are not supported"):
            Point(value, 0)
        assert time.perf_counter() - started < 1
    assert Point(True, 0) == Point(1, 0)


def test_point_value_semantics():
    assert Point(Fraction(4, 2), "1") == Point(2, 1)
    assert Point("1/2", 0) == Point(Fraction(2, 4), Fraction(0))
    assert Point(1, 2) != Point(2, 1)
    assert hash(Point(2, 1)) == hash((Fraction(2), Fraction(1)))
    assert hash(Point("-1/2", 3)) == hash((Fraction(-1, 2), Fraction(3)))
    assert repr(Point(2, 1)) == "Point(x=Fraction(2, 1), y=Fraction(1, 1))"
    assert repr(Point("-1/2", 3)) == "Point(x=Fraction(-1, 2), y=Fraction(3, 1))"
    half = Fraction(1, 2)
    assert Point(half, 0).x is half
    p = Point(2, 1)
    with pytest.raises(FrozenInstanceError):
        p.x = Fraction(3)


@pytest.mark.parametrize(
    "x, y",
    [
        (2, -3),
        ("7", "-1/4"),
        (Fraction(6, 3), Fraction(-10, 5)),
        (Fraction(-3, 7), Fraction(-22, 6)),
        ("-6/4", "10/15"),
    ],
)
def test_point_text_is_the_fraction_pair_text(x, y):
    # A Point is final once built: every slot, the text included, is set
    # then, and a digest or a document reads the point without writing to it.
    p = Point(x, y)
    slots = {name: getattr(p, name) for name in Point.__slots__}
    assert slots["_text"] == "%s,%s" % (Fraction(x), Fraction(y))
    omega = Collection.of([convex_hull([p]), convex_hull([p, Point(x, 9)])])
    collection_digest(omega)
    serialize_family(omega)
    assert all(getattr(p, name) is value for name, value in slots.items())
    # The text neither shows in repr nor takes part in equality or hashing.
    assert repr(p) == "Point(x=%r, y=%r)" % (Fraction(x), Fraction(y))
    assert p == Point(Fraction(x), Fraction(y))
    assert hash(p) == hash((Fraction(x), Fraction(y)))


def test_polytope_value_semantics():
    seg = Polytope((pt(0, 0), pt("1/2", 1)))
    assert seg == convex_hull([pt(Fraction(2, 4), 1), pt(0, 0), pt(Fraction(1, 4), "1/2")])
    assert repr(seg) == (
        "Polytope(vertices=(Point(x=Fraction(0, 1), y=Fraction(0, 1)), "
        "Point(x=Fraction(1, 2), y=Fraction(1, 1))))"
    )
    with pytest.raises(FrozenInstanceError):
        seg.vertices = ()


def rebuilt(points):
    # The same values held in new Fraction objects, as parsing makes them.
    return [Point(Fraction(2 * p.x.numerator, 2 * p.x.denominator), str(p.y)) for p in points]


@given(hull_inputs_st, st.none() | hull_inputs_st)
@example([pt(Fraction(2, 4), 1), pt(0, 0)], [pt("1/2", 1), pt(0, 0)])
@example([pt(Fraction(2, 4), "1/3"), pt(1, 0), pt(0, 0)], None)
def test_polytope_equality_is_vertex_equality(a, b):
    # b = None stands for a itself, rebuilt from new Fraction objects.
    p, q = convex_hull(a), convex_hull(rebuilt(a) if b is None else b)
    assert (p == q) is (p.vertices == q.vertices)
    assert (p != q) is (p.vertices != q.vertices)
    if b is None:
        assert p == q
    if p == q:
        assert hash(p) == hash(q)
    assert p != p.vertices


def literal(value, form):
    # The value as a fresh Fraction (form 0), as an unreduced p/q string
    # (form 1) or as an int (form 2, where it is one).
    if form == 1:
        return f"{3 * value.numerator}/{3 * value.denominator}"
    if form == 2 and value.denominator == 1:
        return value.numerator
    return fresh(value)


def built_apart(pairs, forms):
    return convex_hull(
        [Point(literal(x, f), literal(y, g)) for (x, y), (f, g) in zip(pairs, cycle(forms))]
    )


def fraction_hull(pairs):
    return [(v.x, v.y) for v in reference_hull_vertices([pt(x, y) for x, y in pairs])]


value_pairs_st = st.lists(st.tuples(key_values_st, key_values_st), min_size=1, max_size=6)
forms_st = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=6)
_HALF, _THIRDS = (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(2, 3))


@given(value_pairs_st, st.none() | value_pairs_st, forms_st, forms_st)
# Vertices whose lifts differ only in W: (1, 0, 2) and (1, 0, 1), (1, 2, 3)
# and (1, 2, 1).
@example([_HALF, (2, 1)], [(1, 0), (2, 1)], [(1, 2)], [(2, 2)])
@example([_THIRDS, (2, 1)], [(1, 2), (2, 1)], [(0, 1)], [(2, 2)])
@example([_THIRDS, _HALF, (2, 1)], None, [(0, 0)], [(1, 1), (2, 2)])
def test_polytopes_built_apart_equate_as_their_fraction_hulls(a, b, forms_a, forms_b):
    # Each polytope is hulled from its own Points, the coordinates written
    # in different literal forms; b = None stands for a's values again.
    b = a if b is None else b
    p, q = built_apart(a, forms_a), built_apart(b, forms_b)
    same = fraction_hull(a) == fraction_hull(b)
    assert (p == q) is same
    assert (p != q) is not same
    if same:
        assert hash(p) == hash(q)


def test_direction_entry_points_reject_zero_and_non_int_pairs():
    omega, member = coll(*OMEGA0), poly(*P1)
    for entry, shape in [(converter_image, omega), (exposed_face, member), (support_value, member)]:
        with pytest.raises(ValueError, match="^direction must be nonzero$"):
            entry(shape, (0, 0))
        for g in [(1.0, 2), (Fraction(1), 2), (1, Fraction(2))]:
            with pytest.raises(TypeError, match="^direction components must be integers$"):
                entry(shape, g)


@given(vertex_tuples_st)
# A collinear vertex on the closing edge, the one turn that wraps around.
@example((pt(0, 0), pt(2, 0), pt(2, 2), pt(1, 1)))
# A cycle whose last vertex equals its first.
@example((pt(0, 0), pt(2, 0), pt(1, 1), pt(0, 0)))
# Plateaus of equal consecutive keys, on the rising and the falling run.
@example((pt(0, 0), pt(2, 0), pt(2, 0), pt(1, 1)))
@example((pt(0, 0), pt(2, 0), pt(1, 1), pt(1, 1)))
# Two peaks: a pentagram turns strictly left at every vertex, but its keys
# rise, fall, rise and fall back.
@example((pt(0, 0), pt(3, 2), pt(-1, 2), pt(2, 0), pt(1, 3)))
def test_polytope_accepts_exactly_the_hull_output(vertices):
    canonical = vertices == reference_hull_vertices(vertices)
    try:
        Polytope(vertices)
    except ValueError:
        assert not canonical
    else:
        assert canonical


_TINY_TURN = Fraction(1, 10**30)
# Inputs that pin how the hull splits its points at the chord from the
# first to the last point in key order:
CHORD_INPUTS = [
    # interior points exactly on the chord, and one off it on each side;
    [pt(0, 0), pt(4, 2), pt(2, 1), pt("1/2", "1/4"), pt(3, 0), pt(1, 3), pt(3, "3/2")],
    # every interior point right of the chord, or every one left of it,
    # vertices and points inside the chain alike;
    [pt(4, 0), pt(1, -1), pt(0, 0), pt(2, -3), pt(3, -1), pt(2, -1), pt(2, -2)],
    [pt(4, 0), pt(1, 1), pt(0, 0), pt(2, 3), pt(3, 1), pt(2, 1), pt(2, 2)],
    # a vertical chord: first and last share x, so every point is on it;
    [pt(1, 3), pt(1, 0), pt(1, 2), pt(1, "1/2"), pt(1, 3)],
    # turns of 10^-30 either way against the chord, and a point on it;
    [pt(2, 0), pt(1, _TINY_TURN), pt(0, 0), pt(1, -_TINY_TURN), pt(1, 0)],
    [pt(0, 0), pt(2, 2), pt(1, 1 + _TINY_TURN), pt(1, 1 - _TINY_TURN), pt("1/2", "1/2")],
    # duplicates of the first and of the last point, unsorted.
    [pt(3, 1), pt(0, 0), pt(1, 2), pt(3, 1), pt(0, 0), pt(2, -1), pt(0, 0), pt(3, 1)],
]


def chord_examples(test):
    for points in CHORD_INPUTS:
        test = example(points)(test)
    return test


@given(hull_inputs_st)
# Every point equal, built in distinct forms: the hull is one point.
@example([Point(Fraction(4, 2), 1), Point(2, "1")])
@example([pt(1, 1), pt(1, 1), pt(1, 1)])
# Duplicates at both ends of both chains, and on a collinear run.
@example([pt(0, 0), pt(2, 0), pt(0, 0), pt(1, 1), pt(2, 0), pt(1, 1)])
@example([pt(2, 2), pt(0, 0), pt(1, 1), pt(0, 0), pt(2, 2), pt(1, 1)])
# Turns of 10^-30 either way, far below any float's resolution at 1.
@example([pt(0, 0), pt(1, 0), pt(1, Fraction(1, 10**30))])
@example([pt(0, 0), pt(1, 0), pt(1, -Fraction(1, 10**30)), pt(Fraction(1, 2), 0)])
# The chord from the first to the last point in key order splits the rest.
@chord_examples
def test_convex_hull_matches_fraction_reference(points):
    hull = convex_hull(points)
    assert hull.vertices == reference_hull_vertices(points)
    # Polytope does not validate the hull's own output, so the check it
    # skips is made here: a caller passing the same tuple is accepted.
    assert type(hull.vertices) is tuple
    assert Polytope(tuple(hull.vertices)) == hull


def test_only_caller_tuples_are_validated(monkeypatch):
    seen = []
    build = geometry._hull_vertices
    monkeypatch.setattr(geometry, "_hull_vertices", lambda ps: seen.append(ps) or build(ps))
    hull = convex_hull([pt(0, 0), pt(2, 0), pt(1, 1), pt(1, 0), pt(2, 0)])
    assert len(seen) == 1  # convex_hull's own; its output is not hulled again
    assert Polytope(hull.vertices) == hull
    assert seen[1:] == [hull.vertices]
    with pytest.raises(ValueError):
        Polytope(hull.vertices[::-1])


_NEAR = Fraction(1, 2**40)


@given(hull_inputs_st)
# x values 0 and 2^-40 share the key's first entry, floor(x * 2^32) = 0, so
# only its exact tie-break puts (0, 3) before (2^-40, 1).
@example([pt(_NEAR, 1), pt(0, 0), pt(-_NEAR, 2), pt(0, 3), pt(_NEAR, 1), pt(-_NEAR, -1)])
@example(wide_denominator_points(40) * 2)
@chord_examples
def test_hull_of_marked_points_in_key_order_is_not_sorted_again(points):
    # _Sorted promises distinct points in key order, and the hull takes
    # them as they come: the result must be what any other order gives.
    marked = geometry._Sorted(sorted(set(points), key=_sort_key))
    assert geometry._hull_vertices(marked) == reference_hull_vertices(points)
    assert geometry._hull_vertices(marked) == geometry._hull_vertices(points)


def test_only_the_marker_skips_the_sort(monkeypatch):
    sorts = []
    monkeypatch.setattr(
        geometry, "sorted", lambda *a, **k: sorts.append(1) or sorted(*a, **k), raising=False
    )
    hull = convex_hull([pt(0, 0), pt(2, 0), pt(1, 1), pt(0, 2), pt(2, 2)])
    # Counterclockwise from the smallest vertex, which is not key order.
    assert list(hull.vertices) != sorted(hull.vertices, key=_sort_key)
    for vertices in (tuple(hull.vertices), geometry._Canonical(hull.vertices)):
        sorts.clear()
        assert convex_hull(vertices).vertices == hull.vertices
        assert len(sorts) == 1
    sorts.clear()
    marked = geometry._Sorted(sorted(hull.vertices, key=_sort_key))
    assert convex_hull(marked).vertices == hull.vertices
    assert sorts == []


def test_orient_is_exact_on_tiny_fractions():
    # The hull's turn test must see a 10^-30 turn either way; a float
    # orientation at 1 would call both points collinear and drop them.
    almost = Fraction(1, 10**30)
    assert convex_hull([pt(0, 0), pt(1, 0), pt(1, almost)]).vertices == (
        pt(0, 0), pt(1, 0), pt(1, almost),
    )
    assert convex_hull([pt(0, 0), pt(1, 0), pt(1, -almost), pt(Fraction(1, 2), 0)]).vertices == (
        pt(0, 0), pt(1, -almost), pt(1, 0),
    )


def test_convex_hull_cost_is_bounded_on_large_denominators():
    points = wide_denominator_points(3000)
    started = time.perf_counter()
    hull = convex_hull(points)
    assert time.perf_counter() - started < 5
    assert hull.vertices == reference_hull_vertices(points)


@given(point_lists_st)
def test_convex_hull_idempotent(points):
    hull = convex_hull(points)
    assert convex_hull(hull.vertices) == hull


@given(point_lists_st)
def test_convex_hull_order_invariant(points):
    assert convex_hull(points) == convex_hull(list(reversed(points)))


@given(point_lists_st)
def test_convex_hull_contains_all_inputs(points):
    hull = convex_hull(points)
    assert set(hull.vertices) <= set(points)
    assert all(contains_point(hull, p) for p in points)


@given(point_lists_st)
def test_convex_hull_turns_strictly_left(points):
    verts = convex_hull(points).vertices
    if len(verts) >= 3:
        n = len(verts)
        assert all(turn(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) > 0 for i in range(n))
        assert verts[0] == min(verts, key=lambda v: (v.x, v.y))


def test_support_value_examples():
    assert support_value(poly(*((2, 0), (-2, 0))), (1, 0)) == 2
    assert support_value(poly((0, 0)), (3, -7)) == 0
    # Boundary ray of the tall triangle: both (0,0) and (1,2) attain 0.
    assert support_value(poly((1, 2), (-1, 2), (0, 0)), (2, -1)) == 0


def test_exposed_face_examples():
    p1 = poly((1, 0), (1, 1), (-1, 0))
    assert vertex_set(exposed_face(p1, (0, -1))) == {(-1, 0), (1, 0)}
    p3 = poly((1, 2), (-1, 2), (0, 0))
    assert vertex_set(exposed_face(p3, (1, 1))) == {(1, 2)}
    p2 = poly((-1, 0), (-1, 1), (1, 0))
    assert vertex_set(exposed_face(p2, (1, 2))) == {(-1, 1), (1, 0)}


def test_exposed_face_of_segment_orthogonal_direction():
    segment = poly((2, 0), (-2, 0))
    assert exposed_face(segment, (0, 1)) == segment
    assert exposed_face(segment, (0, -1)) == segment


@given(point_lists_st, directions_st)
def test_exposed_face_attains_support_exactly(points, g):
    hull = convex_hull(points)
    face = exposed_face(hull, g)
    a, b = g
    best = max(v.x * a + v.y * b for v in hull.vertices)
    assert set(face.vertices) <= set(hull.vertices)
    assert all(v.x * a + v.y * b == best for v in face.vertices)
    outside = set(hull.vertices) - set(face.vertices)
    assert all(v.x * a + v.y * b < best for v in outside)


@given(point_lists_st, directions_st, st.integers(1, 50))
def test_exposed_face_ignores_positive_scaling(points, g, scale):
    hull = convex_hull(points)
    a, b = g
    assert exposed_face(hull, (a * scale, b * scale)) == exposed_face(hull, g)


def test_affine_image_examples():
    assert affine_image(coll(P1), MIRROR) == coll(P2)
    assert affine_image(coll(P4), MIRROR) == coll(P4)
    assert affine_image(coll(((1, 2),)), MIRROR) == coll(((-1, 2),))
    assert affine_image(coll(*OMEGA0), MIRROR) == coll(*OMEGA0)
    # A quarter turn and a translation.
    unit = coll(((0, 0), (1, 0), (0, 1)), ((1, 1),))
    quarter_turn = ((0, -1), (1, 0))
    assert affine_image(unit, quarter_turn, (1, 0)) == coll(((1, 0), (1, 1), (0, 0)), ((0, 1),))
    # A shear with rational entries given as str and Fraction.
    assert affine_image(unit, (("1/2", 1), (0, Fraction(1, 3))), ("1/5", 0)) == coll(
        (("1/5", 0), ("7/10", 0), ("6/5", "1/3")), (("17/10", "1/3"),)
    )


def test_affine_image_rejects_singular_and_float_maps():
    omega = coll(*OMEGA0)
    for singular in [((1, 2), (2, 4)), ((0, 0), (0, 0)), ((Fraction(1, 2), 1), (1, "2"))]:
        with pytest.raises(ValueError):
            affine_image(omega, singular)
    with pytest.raises(TypeError):
        affine_image(omega, ((1.0, 0), (0, 1)))
    with pytest.raises(TypeError):
        affine_image(omega, ((1, 0), (0, 1)), (0, 0.5))


@given(point_lists_st, affine_maps_st)
@example([pt(1, 0), pt(1, 1), pt(-1, 0)], (MIRROR, (0, 0)))
def test_affine_image_round_trip(points, phi):
    hull = convex_hull(points)
    assert affine_polytope(affine_polytope(hull, *phi), *inverse_map(*phi)) == hull


def pulled_back(A, g):
    # A^T g, scaled by a positive int to integer components: the direction
    # in which P's face maps to the face of A P + t in direction g.
    (a, b), (c, d) = A
    u, v = Fraction(a * g[0] + c * g[1]), Fraction(b * g[0] + d * g[1])
    scale = lcm(u.denominator, v.denominator)
    return (u * scale).numerator, (v * scale).numerator


@given(point_lists_st, affine_maps_st, directions_st)
@example([pt(1, 0), pt(1, 1), pt(-1, 0)], (MIRROR, (0, 0)), (1, 2))
def test_exposed_face_commutes_with_affine_maps(points, phi, g):
    hull = convex_hull(points)
    A, t = phi
    assert exposed_face(affine_polytope(hull, A, t), g) == affine_polytope(
        exposed_face(hull, pulled_back(A, g)), A, t
    )


# Values 10^-12 apart share their floor(c * 2^32), so only the exact part of
# each key tells them apart.
_THIRD, _TINY = Fraction(1, 3), Fraction(1, 10**12)


@given(st.lists(point_lists_st.map(convex_hull), min_size=1, max_size=4))
@example([poly((_THIRD, 0)), poly((_THIRD + _TINY, -_TINY)), poly((_THIRD - _TINY, _TINY))])
@example([poly((_THIRD, 2 * _TINY), (_THIRD - _TINY, _TINY)), poly((_THIRD + _TINY, _TINY))])
def test_bounding_box_matches_fraction_min_max(polytopes):
    xs = [v.x for p in polytopes for v in p.vertices]
    ys = [v.y for p in polytopes for v in p.vertices]
    points = [v for p in polytopes for v in p.vertices]
    assert bounding_box(points) == (min(xs), max(xs), min(ys), max(ys))
