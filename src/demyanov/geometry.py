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

Each Point makes its lift, its hash (that of the Fraction pair) and a key
for equality and lexicographic order once, when it is built, and its
"x,y" text for digests once, when a digest first reads it. For each
coordinate c = n/d the key holds the int (n << 32) // d = floor(c * 2^32),
then c exactly: the int n where d = 1, else the Fraction. So only values
within 2^-32 of each other, in practice equal ones, compare exactly. Each
Polytope likewise stores the tuple of its vertices' keys once, which
validation and the ordering of collections read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import attrgetter, itemgetter
from typing import Iterable

from .errors import EmptyInputError

_KEY_BITS = 32  # each key coordinate starts with floor(c * 2**_KEY_BITS)


def _as_rational(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coordinates are not supported; pass int, str or Fraction")
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the plane with exact rational coordinates; its lift, its
    key (floor(x * 2^32), x, floor(y * 2^32), y) and its hash are made
    once; its "x,y" text (each coordinate as str(Fraction) prints it) is
    made on first use by a digest and kept."""

    x: Fraction
    y: Fraction
    _lift: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

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

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is Point else NotImplemented

    def __hash__(self) -> int:
        return self._hash


def _make_text(p: Point) -> str:
    object.__setattr__(p, "_text", "%s,%s" % p._key[1::2])
    return p._text


def _joined_text(points: Iterable[Point]) -> str:
    # Each point's "x,y" text, joined by "|". Only digests read it, so a
    # point makes its text on first use and keeps it.
    return "|".join([p._text or _make_text(p) for p in points])


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


# Lexicographic order of points, and of polytopes by their vertex keys.
_sort_key = attrgetter("_key")
# The (floor(c * 2^32), c) parts of a point key for c = x and c = y.
_x_part, _y_part = itemgetter(0, 1), itemgetter(2, 3)


def _hull_vertices(points: Iterable[Point]) -> tuple[Point, ...]:
    """Extreme points in canonical order (monotone chain on lifted ints).

    Canonical order is counterclockwise starting at the lexicographically
    smallest vertex; collinear interior points and duplicates are dropped.
    """
    pts = sorted(points, key=_sort_key)
    if not pts:
        raise EmptyInputError("convex hull of an empty point set")
    if pts[0] == pts[-1]:
        return (pts[0],)
    return tuple(_chain(pts) + _chain(reversed(pts)))


def _chain(pts: Iterable[Point]) -> list[Point]:
    # One monotone chain, without its last point (the next chain's first).
    # Sorting puts duplicates side by side, so the turn test pops them too.
    chain: list[Point] = []
    for p in pts:
        rx, ry, rw = p._lift
        while len(chain) > 1:
            (px, py, pw), (qx, qy, qw) = chain[-2]._lift, chain[-1]._lift
            if px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain[:-1]


def _is_canonical(verts: tuple[Point, ...], keys: tuple) -> bool:
    # verts == _hull_vertices(verts) in one pass: one point, two in strict
    # lexicographic order, or a cycle whose keys rise strictly from verts[0]
    # to one peak and fall strictly back, turning strictly left throughout.
    n = len(verts)
    if n < 3:
        return n == 1 or keys[0] < keys[1]
    i = 1
    while i < n and keys[i - 1] < keys[i]:
        i += 1
    # keys[i - 1] is the peak; the rest must fall strictly back to keys[0],
    # which also fails if they do not rise from it (i == 1).
    if not all(a > b for a, b in zip(keys[i - 1 :], keys[i:] + keys[:1])):
        return False
    (px, py, pw), (qx, qy, qw) = verts[-2]._lift, verts[-1]._lift
    for v in verts:
        rx, ry, rw = v._lift
        if px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx) <= 0:
            return False
        px, py, pw, qx, qy, qw = qx, qy, qw, rx, ry, rw
    return True


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
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        keys = tuple(map(_sort_key, verts))
        object.__setattr__(self, "_key", keys)
        if not verts:
            raise EmptyInputError("a polytope needs at least one vertex")
        if not _is_canonical(verts, keys):
            raise ValueError("vertices are not in canonical convex position")


def convex_hull(points: Iterable[Point]) -> Polytope:
    """The canonical polytope spanned by the given points.

    Idempotent and independent of input order; duplicate and collinear
    interior points collapse away.
    """
    return Polytope(_hull_vertices(points))


def bounding_box(polytopes: Iterable[Polytope]) -> tuple:
    """(min x, max x, min y, max y) over every vertex of the polytopes.

    Each bound is exact: an int where the coordinate is one, else a
    Fraction. It is read from the stored vertex keys, so comparisons are
    between ints except among values within 2^-32 of each other.
    """
    keys = [k for p in polytopes for k in p._key]
    return (
        min(keys, key=_x_part)[1],
        max(keys, key=_x_part)[1],
        min(keys, key=_y_part)[3],
        max(keys, key=_y_part)[3],
    )


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
