"""Exact planar geometry over rational coordinates.

Every scalar is an arbitrary-precision rational and every predicate is
exact, so directions that sit right on a face boundary are classified
correctly instead of being lost to rounding. Polytopes are stored in a
canonical vertex order, which makes value equality coincide with
point-set equality and lets collections be deduplicated by hashing.

Predicates run on plain ints, not on Fraction arithmetic: each point is
lifted once to homogeneous integers (X, Y, W) with (x, y) = (X/W, Y/W),
where W > 0 is the lcm of that point's own two denominators (W = 1 on
lattice input). Because every W is positive, comparing X1/W1 with X2/W2
by the sign of X1*W2 - X2*W1, and orienting three points by the sign of
their 3x3 homogeneous determinant (the affine cross product times
W1*W2*W3), gives exactly the rational answer. No float is ever used. The
lift is per point, never over a common denominator, so its cost grows
with each point's own size and cannot be blown up by the rest of the
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable

from .errors import EmptyInputError


def _as_rational(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coordinates are not supported; pass int, str or Fraction")
    return Fraction(value)


@dataclass(frozen=True)
class Point:
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_rational(self.x))
        object.__setattr__(self, "y", _as_rational(self.y))


@dataclass(frozen=True)
class Direction:
    """A nonzero integer vector stored with coprime coordinates.

    A Direction stands for the whole ray of its positive multiples:
    construction divides out the gcd and keeps the signs, so any two
    positively proportional inputs collapse to the same value.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise TypeError("direction components must be integers")
        if self.a == 0 and self.b == 0:
            raise ValueError("direction must be nonzero")
        g = gcd(abs(self.a), abs(self.b))
        if g > 1:
            object.__setattr__(self, "a", self.a // g)
            object.__setattr__(self, "b", self.b // g)

    def rotated_ccw(self) -> Direction:
        """The ray a quarter turn counterclockwise from this one."""
        return Direction(-self.b, self.a)

    def opposite(self) -> Direction:
        return Direction(-self.a, -self.b)


def _lift(p: Point) -> tuple[int, int, int]:
    """p as homogeneous integers (X, Y, W), W > 0 the lcm of p's denominators."""
    xn, xd = p.x.as_integer_ratio()
    yn, yd = p.y.as_integer_ratio()
    w = xd * yd // gcd(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def _turn(p: tuple[int, int, int], q: tuple[int, int, int], r: tuple[int, int, int]) -> int:
    # The 3x3 determinant of the rows (X, Y, W): the cross product
    # (q - p) x (r - p) times the positive W_p * W_q * W_r.
    px, py, pw = p
    qx, qy, qw = q
    rx, ry, rw = r
    return px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx)


def _lex_cmp(a: tuple, b: tuple) -> int:
    # Lexicographic (x, y) order of two (lift, point) pairs.
    (ax, ay, aw), (bx, by, bw) = a[0], b[0]
    d = ax * bw - bx * aw or ay * bw - by * aw
    return (d > 0) - (d < 0)


# Sort key for (lift, point) pairs, in lexicographic order of the points.
_lex_key = cmp_to_key(_lex_cmp)


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 for a counterclockwise turn, -1 for clockwise, 0 for collinear.
    """
    turn = _turn(_lift(p), _lift(q), _lift(r))
    return (turn > 0) - (turn < 0)


def _hull_vertices(points: Iterable[Point]) -> tuple[Point, ...]:
    """Extreme points in canonical order (monotone chain on lifted ints).

    Canonical order is counterclockwise starting at the lexicographically
    smallest vertex; collinear interior points and duplicates are dropped.
    A lift is unique to its point, so duplicates are equal sorted
    neighbours.
    """
    pairs = sorted(((_lift(p), p) for p in points), key=_lex_key)
    if not pairs:
        raise EmptyInputError("convex hull of an empty point set")
    pts = [pairs[0]]
    for pair in pairs[1:]:
        if pair[0] != pts[-1][0]:
            pts.append(pair)
    if len(pts) == 1:
        return (pts[0][1],)
    lower: list[tuple] = []
    for p in pts:
        while len(lower) > 1 and _turn(lower[-2][0], lower[-1][0], p[0]) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple] = []
    for p in reversed(pts):
        while len(upper) > 1 and _turn(upper[-2][0], upper[-1][0], p[0]) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(p for _, p in lower[:-1] + upper[:-1])


@dataclass(frozen=True)
class Polytope:
    """Canonical V-representation of a convex polytope in the plane.

    The vertex tuple holds exactly the extreme points: a single point, a
    segment with its endpoints in lexicographic order, or a polygon in
    counterclockwise order starting at the lexicographically smallest
    vertex. Construction rejects anything else, so two polytopes are equal
    iff they are equal as point sets.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if verts != _hull_vertices(verts):
            raise ValueError("vertices are not in canonical convex position")


def convex_hull(points: Iterable[Point]) -> Polytope:
    """The canonical polytope spanned by the given points.

    Idempotent and independent of input order; duplicate and collinear
    interior points collapse away.
    """
    return Polytope(_hull_vertices(points))


def support_value(polytope: Polytope, g: Direction) -> Fraction:
    """Largest inner product <v, g> over the polytope."""
    return max(v.x * g.a + v.y * g.b for v in polytope.vertices)


def exposed_face(polytope: Polytope, g: Direction) -> Polytope:
    """The face of the polytope on which <., g> attains its maximum.

    A vertex or an edge for polygons; a segment orthogonal to g exposes
    itself whole.
    """
    best = support_value(polytope, g)
    return convex_hull(v for v in polytope.vertices if v.x * g.a + v.y * g.b == best)


def reflect_y(polytope: Polytope) -> Polytope:
    """Mirror image through the vertical axis, re-canonicalised."""
    return convex_hull(Point(-v.x, v.y) for v in polytope.vertices)
