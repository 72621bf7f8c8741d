"""Exact planar geometry over rational coordinates.

Every scalar is an arbitrary-precision rational and every predicate is
exact, so directions that sit right on a face boundary are classified
correctly instead of being lost to rounding. Polytopes are stored in a
canonical vertex order, which makes value equality coincide with
point-set equality and lets collections be deduplicated by hashing. The
hull is the one definition of that order: its own output is taken as is,
and any other vertex tuple only if hulling it would return it unchanged.

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

Each Point makes its lift, its hash (that of the Fraction pair), a key
for lexicographic order and its "x,y" text for digests and documents
once, when it is built. For each coordinate c = n/d the key holds the
int (n << 32) // d = floor(c * 2^32), then c exactly: the int n where
d = 1, else the Fraction. So only values within 2^-32 of each other, in
practice equal ones, compare exactly. The text prints those same exact
parts, so a coordinate too long for str() fails the build. Equality compares
lifts instead, which are all ints and canonical per point, so it never
reaches a Fraction. A Polytope holds only its vertex tuple: it equals
another when their vertex tuples are equal, and the dataclass hashes that
tuple. Collection.of builds each member's key from its vertices' keys
when it sorts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import attrgetter, itemgetter
from typing import Iterable

_KEY_BITS = 32  # each key coordinate starts with floor(c * 2**_KEY_BITS)
# The one grammar of coordinate literals, for Point strings and document
# coordinates alike: an integer or p/q, no exponent, point or space.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def _as_rational(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if not isinstance(value, str):
        # Fraction(value) would also take a float, or a Decimal whose
        # exponent builds a numerator of millions of bits.
        raise TypeError(
            f"{type(value).__name__} coordinates are not supported; pass int, str or Fraction"
        )
    if not _RATIONAL_RE.match(value):
        raise ValueError(f"{value!r} is not an integer or p/q rational literal")
    num, _, den = value.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except ValueError:
        # The literal is well formed, so only the interpreter's limit on
        # integer digits can reject it.
        raise ValueError("literal exceeds the integer digit limit") from None


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the plane with exact rational coordinates; its lift, its
    key (floor(x * 2^32), x, floor(y * 2^32), y), its hash and its "x,y"
    text (each coordinate as str(Fraction) prints it) are made once, when
    it is built. The key orders points; == compares their lifts."""

    x: Fraction
    y: Fraction
    _lift: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x, y = _as_rational(self.x), _as_rational(self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        xn, xd = x.numerator, x.denominator
        yn, yd = y.numerator, y.denominator
        w = xd * yd // gcd(xd, yd)
        object.__setattr__(self, "_lift", (xn * (w // xd), yn * (w // yd), w))
        ex, ey = xn if xd == 1 else x, yn if yd == 1 else y
        key = ((xn << _KEY_BITS) // xd, ex, (yn << _KEY_BITS) // yd, ey)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((ex, ey)))
        object.__setattr__(self, "_text", "%s,%s" % (ex, ey))

    def __eq__(self, other):
        return self._lift == other._lift if other.__class__ is Point else NotImplemented

    def __hash__(self) -> int:
        return self._hash


def _direction(g) -> tuple[int, int]:
    # A direction is a pair (a, b) of ints, not both zero; it stands for the
    # ray of its positive multiples.
    a, b = g
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeError("direction components must be integers")
    if a == 0 and b == 0:
        raise ValueError("direction must be nonzero")
    return a, b


# Lexicographic order of points.
_sort_key = attrgetter("_key")
# The (floor(c * 2^32), c) parts of a point key for c = x and c = y.
_x_part, _y_part = itemgetter(0, 1), itemgetter(2, 3)


class _Canonical(tuple):  # a builder's own output: its type takes it unchecked
    __slots__ = ()


class _Sorted(list):  # distinct points in _sort_key order: the hull skips its sort
    __slots__ = ()


def _hull_vertices(points: Iterable[Point]) -> tuple[Point, ...]:
    """Extreme points in canonical order (monotone chain on lifted ints).

    Canonical order is counterclockwise starting at the lexicographically
    smallest vertex; collinear interior points and duplicates are dropped.
    The chord from the first to the last point in key order splits the
    rest: one sign puts each point right of it (lower chain), left of it
    (upper chain) or on it, where it is never a vertex, duplicates of
    either end included. Each chain runs the turn test on its own points
    only, the lower one turning strictly left and the upper one strictly
    right, and both close at the last point. Input of exactly the class
    _Sorted is taken as its caller's promise that it holds distinct points
    already in _sort_key order, and is not sorted again; anything else, a
    _Canonical hull included, is sorted.
    """
    pts = points if points.__class__ is _Sorted else sorted(points, key=_sort_key)
    if not pts:
        raise ValueError("a polytope needs at least one vertex")
    first, last = pts[0], pts[-1]
    if first._lift == last._lift:
        return _Canonical((first,))
    # The chord's normal: the sign of r . (a x b) orients (first, last, r).
    (ax, ay, aw), (bx, by, bw) = first._lift, last._lift
    cx, cy, cw = ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx
    lower, upper = [first], [first]
    for p in pts:
        rx, ry, rw = p._lift
        side = rx * cx + ry * cy + rw * cw
        if side < 0 or p is last:
            while len(lower) > 1:
                (px, py, pw), (qx, qy, qw) = lower[-2]._lift, lower[-1]._lift
                if px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx) > 0:
                    break
                lower.pop()
            lower.append(p)
        if side > 0 or p is last:
            while len(upper) > 1:
                (px, py, pw), (qx, qy, qw) = upper[-2]._lift, upper[-1]._lift
                if px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx) < 0:
                    break
                upper.pop()
            upper.append(p)
    # Both chains run from first to last; the upper one, reversed, closes the cycle.
    return _Canonical(lower[:-1] + upper[:0:-1])


@dataclass(frozen=True, slots=True)
class Polytope:
    """Canonical V-representation of a convex polytope in the plane.

    The vertex tuple holds exactly the extreme points: a single point, a
    segment with its endpoints in lexicographic order, or a polygon in
    counterclockwise order starting at the lexicographically smallest
    vertex. convex_hull's output is taken as is; any other vertex tuple,
    an empty one included, is accepted only if convex_hull would return it
    unchanged. So polytopes are equal iff equal as point sets, and ==
    compares their vertex tuples, hence the vertices' lifts; the hash is
    the dataclass's, of the vertex tuple, all it holds: Collection.of
    builds member keys from the vertices when it sorts.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        checked = self.vertices.__class__ is not _Canonical
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        # The hull returns the caller's own points, so equal entries compare by identity.
        if checked and _hull_vertices(verts) != verts:
            raise ValueError("vertices are not in canonical convex position")


def convex_hull(points: Iterable[Point]) -> Polytope:
    """The canonical polytope spanned by the given points.

    Idempotent and independent of input order; duplicate and collinear
    interior points collapse away.
    """
    return Polytope(_hull_vertices(points))


def bounding_box(points: Iterable[Point]) -> tuple:
    """(min x, max x, min y, max y) over the points.

    Each bound is exact: an int where the coordinate is one, else a
    Fraction. It is read from the stored point keys, so comparisons are
    between ints except among values within 2^-32 of each other.
    """
    keys = [p._key for p in points]
    return (
        min(keys, key=_x_part)[1],
        max(keys, key=_x_part)[1],
        min(keys, key=_y_part)[3],
        max(keys, key=_y_part)[3],
    )


def support_value(polytope: Polytope, g: tuple[int, int]) -> Fraction:
    """Largest inner product <v, g> over the polytope, for g = (a, b) a
    pair of ints, not both zero. It scales with g, while the face that
    attains it does not."""
    a, b = _direction(g)
    return max(v.x * a + v.y * b for v in polytope.vertices)


def exposed_face(polytope: Polytope, g: tuple[int, int]) -> Polytope:
    """The face of the polytope on which <., g> attains its maximum, for
    g = (a, b) a pair of ints, not both zero.

    A vertex or an edge for polygons; a segment orthogonal to g exposes
    itself whole.
    """
    best = support_value(polytope, g)
    a, b = g
    return convex_hull(v for v in polytope.vertices if v.x * a + v.y * b == best)
