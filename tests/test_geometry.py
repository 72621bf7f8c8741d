import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from demyanov import Direction, Point, Polytope, convex_hull, exposed_face
from demyanov.errors import EmptyInputError
from demyanov.geometry import orient, reflect_y, support_value

from support import poly, pt, reference_hull_vertices, vertex_set, wide_denominator_points

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
directions_st = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda ab: ab != (0, 0)
).map(lambda ab: Direction(*ab))


def contains_point(polytope, p):
    # Independent membership predicate used to validate hulls.
    verts = polytope.vertices
    if len(verts) == 1:
        return p == verts[0]
    if len(verts) == 2:
        a, b = verts
        if orient(a, b, p) != 0:
            return False
        return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    return all(orient(verts[i], verts[(i + 1) % len(verts)], p) >= 0 for i in range(len(verts)))


def test_orient_signs():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1


def test_orient_is_exact_on_tiny_fractions():
    almost = Fraction(1, 10**30)
    assert orient(pt(0, 0), pt(1, 0), pt(1, almost)) == 1
    assert orient(pt(0, 0), pt(1, 0), pt(1, -almost)) == -1


def test_convex_hull_triangle_canonical_form():
    hull = poly((1, 0), (1, 1), (-1, 0))
    assert hull.vertices == (pt(-1, 0), pt(1, 0), pt(1, 1))


def test_convex_hull_collinear_collapses_to_segment():
    assert poly((0, 0), (1, 0), (2, 0)).vertices == (pt(0, 0), pt(2, 0))


def test_convex_hull_duplicates_collapse_to_point():
    assert poly((0, 0), (0, 0)).vertices == (pt(0, 0),)


def test_convex_hull_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        convex_hull([])


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


def test_direction_canonicalises_to_primitive():
    assert Direction(2, -2) == Direction(1, -1)
    assert Direction(0, 7) == Direction(0, 1)
    assert Direction(-4, -6) == Direction(-2, -3)
    with pytest.raises(ValueError):
        Direction(0, 0)


@given(hull_inputs_st)
def test_convex_hull_matches_fraction_reference(points):
    assert convex_hull(points).vertices == reference_hull_vertices(points)


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
        assert all(orient(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) == 1 for i in range(n))
        assert verts[0] == min(verts, key=lambda v: (v.x, v.y))


def test_support_value_examples():
    assert support_value(poly(*((2, 0), (-2, 0))), Direction(1, 0)) == 2
    assert support_value(poly((0, 0)), Direction(3, -7)) == 0
    # Boundary ray of the tall triangle: both (0,0) and (1,2) attain 0.
    assert support_value(poly((1, 2), (-1, 2), (0, 0)), Direction(2, -1)) == 0


def test_exposed_face_examples():
    p1 = poly((1, 0), (1, 1), (-1, 0))
    assert vertex_set(exposed_face(p1, Direction(0, -1))) == {(-1, 0), (1, 0)}
    p3 = poly((1, 2), (-1, 2), (0, 0))
    assert vertex_set(exposed_face(p3, Direction(1, 1))) == {(1, 2)}
    p2 = poly((-1, 0), (-1, 1), (1, 0))
    assert vertex_set(exposed_face(p2, Direction(1, 2))) == {(-1, 1), (1, 0)}


def test_exposed_face_of_segment_orthogonal_direction():
    segment = poly((2, 0), (-2, 0))
    assert exposed_face(segment, Direction(0, 1)) == segment
    assert exposed_face(segment, Direction(0, -1)) == segment


@given(point_lists_st, directions_st)
def test_exposed_face_attains_support_exactly(points, g):
    hull = convex_hull(points)
    face = exposed_face(hull, g)
    best = max(v.x * g.a + v.y * g.b for v in hull.vertices)
    assert set(face.vertices) <= set(hull.vertices)
    assert all(v.x * g.a + v.y * g.b == best for v in face.vertices)
    outside = set(hull.vertices) - set(face.vertices)
    assert all(v.x * g.a + v.y * g.b < best for v in outside)


@given(point_lists_st, directions_st, st.integers(1, 50))
def test_exposed_face_ignores_positive_scaling(points, g, scale):
    hull = convex_hull(points)
    assert exposed_face(hull, Direction(g.a * scale, g.b * scale)) == exposed_face(hull, g)


def test_reflect_y_examples():
    p1 = poly((1, 0), (1, 1), (-1, 0))
    p2 = poly((-1, 0), (-1, 1), (1, 0))
    assert reflect_y(p1) == p2
    segment = poly((-2, 0), (2, 0))
    assert reflect_y(segment) == segment
    assert reflect_y(poly((1, 2))) == poly((-1, 2))


@given(point_lists_st)
def test_reflect_y_is_involution(points):
    hull = convex_hull(points)
    assert reflect_y(reflect_y(hull)) == hull


@given(point_lists_st, directions_st)
def test_reflect_y_mirrors_support(points, g):
    hull = convex_hull(points)
    assert support_value(reflect_y(hull), Direction(-g.a, g.b)) == support_value(hull, g)
