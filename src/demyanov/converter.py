"""The Demyanov converter on finite families of planar polytopes.

For a family Omega and a nonzero direction g, the image polytope is the
convex hull of the union, over all members, of the member's exposed face
in direction g. The converter maps Omega to the set of all such images.

That set is computed exactly, not sampled: a member's exposed face can
only change across one of its edge normals, so the union of all members'
edge normals cuts direction space into finitely many rays and open
sectors (the common refinement of the members' normal fans) on which the
image is constant. Evaluating one witness direction per cell enumerates
the whole image set; rays must be evaluated too because they frequently
produce polytopes that no open sector yields.

Every image, over fan cells or over sampled directions, comes from one
integer kernel. It indexes the family's distinct vertices once, in
lexicographic order, and lifts each to homogeneous integers (X, Y, W)
with W > 0 the lcm of that vertex's own two denominators (W = 1 on
lattice input), so <v, g> = (X a + Y b) / W for g = (a, b). A member's
exposed face is found by comparing these values through cross-multiplying
with W, exact because every W is positive; no Fraction arithmetic and no
float enter the loop. The union of the members' faces is an int bitmask
over the vertex index, and each distinct mask is hulled once, its points
passed in index order, which is already sorted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Iterator

from .errors import EmptyInputError, FanInvariantError
from .geometry import Direction, Point, Polytope, _lex_key, _lift, convex_hull, reflect_y


def _member_key(polytope: Polytope) -> tuple:
    return tuple((v.x, v.y) for v in polytope.vertices)


@dataclass(frozen=True)
class Collection:
    """A nonempty, deduplicated, canonically ordered family of polytopes.

    Members are sorted by their vertex tuples, so equal families compare
    and hash equal regardless of how they were assembled. Use
    Collection.of for arbitrary input; the constructor insists on the
    canonical layout.
    """

    members: tuple[Polytope, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise EmptyInputError("a collection must contain at least one polytope")
        keys = [_member_key(m) for m in members]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("members must be sorted and deduplicated; use Collection.of")

    @classmethod
    def of(cls, polytopes: Iterable[Polytope]) -> Collection:
        return cls(tuple(sorted(set(polytopes), key=_member_key)))

    def __iter__(self) -> Iterator[Polytope]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class CellKind(Enum):
    RAY = "ray"
    SECTOR = "sector"


def _cross(d: Direction, e: Direction) -> int:
    return d.a * e.b - d.b * e.a


@dataclass(frozen=True)
class FanCell:
    """One cell of the refined fan: a single ray or an open sector.

    bounds holds the delimiting rays: one direction for a RAY cell, the
    counterclockwise (start, end) pair for a SECTOR cell, and nothing for
    the all-directions sector of a fan with no rays at all. A sector's
    representative comes from sector_representative, so it sits strictly
    inside the open sector.
    """

    kind: CellKind
    bounds: tuple[Direction, ...]
    representative: Direction


def edge_normals(polytope: Polytope) -> frozenset[Direction]:
    """Outward edge normals of the polytope as primitive directions.

    These are exactly the directions whose exposed face is an edge. A
    point has none; a segment is orthogonal to two opposite normals.
    """
    verts = [_lift(v) for v in polytope.vertices]
    if len(verts) == 1:
        return frozenset()
    if len(verts) == 2:
        normal = _edge_normal(verts[0], verts[1])
        return frozenset((normal, normal.opposite()))
    return frozenset(_edge_normal(v, verts[(i + 1) % len(verts)]) for i, v in enumerate(verts))


def _edge_normal(p: tuple[int, int, int], q: tuple[int, int, int]) -> Direction:
    # (q - p) turned a quarter turn clockwise, scaled by W_p * W_q > 0.
    px, py, pw = p
    qx, qy, qw = q
    return Direction(qy * pw - py * qw, px * qw - qx * pw)


def _half_plane(d: Direction) -> int:
    # 0 for angles in [0, pi) measured from (1, 0), 1 for [pi, 2*pi).
    return 0 if d.b > 0 or (d.b == 0 and d.a > 0) else 1


def _angular_cmp(d: Direction, e: Direction) -> int:
    if _half_plane(d) != _half_plane(e):
        return _half_plane(d) - _half_plane(e)
    c = _cross(d, e)
    return -1 if c > 0 else (1 if c < 0 else 0)


def fan_rays(omega: Collection) -> list[Direction]:
    """Union of the members' edge normals in counterclockwise angular order.

    The order starts from the smallest angle in [0, 2*pi) measured from
    (1, 0). Empty when every member is a single point.
    """
    rays: set[Direction] = set()
    for member in omega.members:
        rays |= edge_normals(member)
    return sorted(rays, key=cmp_to_key(_angular_cmp))


def sector_representative(start: Direction, end: Direction) -> Direction:
    """A primitive direction strictly inside the open sector from start
    counterclockwise to end.

    For a sector narrower than a half turn this is the reduced vector sum
    of the bounds; for an exact half turn (end opposite to start) it is
    start rotated a quarter turn counterclockwise. Equal bounds or
    anything wider mean the bounds were not consecutive fan rays, a caller
    bug reported as FanInvariantError.
    """
    if start == end:
        raise FanInvariantError(f"empty sector at {start}")
    a, b = start.a + end.a, start.b + end.b
    if a == 0 and b == 0:
        return start.rotated_ccw()
    rep = Direction(a, b)
    if _cross(start, rep) <= 0 or _cross(rep, end) <= 0:
        raise FanInvariantError(f"sector from {start} to {end} spans more than a half turn")
    return rep


def test_directions(omega: Collection) -> list[FanCell]:
    """Fan cells covering every nonzero direction, one witness each.

    The converter image is constant on each cell, so evaluating it at the
    representatives enumerates the full image set. A fan without rays
    collapses to a single sector with representative (1, 0).
    """
    rays = fan_rays(omega)
    if not rays:
        return [FanCell(CellKind.SECTOR, (), Direction(1, 0))]
    cells: list[FanCell] = []
    for i, ray in enumerate(rays):
        nxt = rays[(i + 1) % len(rays)]
        cells.append(FanCell(CellKind.RAY, (ray,), ray))
        cells.append(FanCell(CellKind.SECTOR, (ray, nxt), sector_representative(ray, nxt)))
    return cells


def converter_image(omega: Collection, g: Direction) -> Polytope:
    """conv of the union of every member's exposed face in direction g."""
    return _collect_images(omega, (g,)).members[0]


def _collect_images(omega: Collection, directions: Iterable[Direction]) -> Collection:
    # The exact integer kernel (see the module docstring). Index the
    # distinct vertices once, lexicographically, as lifted ints; a member
    # becomes the list of its vertices' indices, an attaining set a bitmask.
    lifted: dict[tuple[int, int, int], Point] = {}
    member_lifts = []
    for member in omega.members:
        lifts = [_lift(v) for v in member.vertices]
        lifted.update(zip(lifts, member.vertices))
        member_lifts.append(lifts)
    pairs = sorted(lifted.items(), key=_lex_key)
    points = [v for _, v in pairs]
    coords = [q for q, _ in pairs]
    weights = [w for _, _, w in coords]
    bits = [1 << i for i in range(len(coords))]
    index = {q: i for i, q in enumerate(coords)}
    members = [[index[q] for q in lifts] for lifts in member_lifts]
    # Distinct directions often share one attaining set; hull it only once.
    cache: dict[int, Polytope] = {}
    for g in directions:
        a, b = g.a, g.b
        values = [x * a + y * b for x, y, _ in coords]
        attaining = 0
        for member in members:
            vertices = iter(member)
            i = next(vertices)
            top, w, face = values[i], weights[i], bits[i]
            for i in vertices:
                # Sign of values[i]/weights[i] - top/w, both weights positive.
                d = values[i] * w - top * weights[i]
                if d > 0:
                    top, w, face = values[i], weights[i], bits[i]
                elif d == 0:
                    face |= bits[i]
            attaining |= face
        if attaining not in cache:
            cache[attaining] = convex_hull(
                [p for p, bit in zip(points, bits) if attaining & bit]
            )
    return Collection.of(cache.values())


def demyanov_convert(omega: Collection) -> Collection:
    """One application of the converter: the set of images over all
    nonzero directions, computed by exact cell enumeration."""
    return _collect_images(omega, (cell.representative for cell in test_directions(omega)))


def sampled_convert(omega: Collection, bound: int) -> Collection:
    """Brute-force image set over all primitive integer directions with
    coordinates of magnitude at most bound.

    Always a sub-collection of demyanov_convert(omega), with equality once
    bound covers the coordinates of every fan-cell representative (see
    representative_bound). Kept independent of the cell enumeration so the
    two routes can check each other.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    directions = [
        Direction(a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if (a, b) != (0, 0) and gcd(abs(a), abs(b)) == 1
    ]
    return _collect_images(omega, directions)


def representative_bound(omega: Collection) -> int:
    """Largest coordinate magnitude among the fan-cell representatives."""
    return max(
        max(abs(cell.representative.a), abs(cell.representative.b))
        for cell in test_directions(omega)
    )


def reflect_collection(omega: Collection) -> Collection:
    """Mirror image of every member through the vertical axis."""
    return Collection.of(reflect_y(member) for member in omega.members)


def collection_digest(omega: Collection) -> str:
    """SHA-256 digest of the canonical form, equal for equal collections."""
    token = ";".join(
        "|".join(f"{v.x},{v.y}" for v in member.vertices) for member in omega.members
    )
    return hashlib.sha256(token.encode("ascii")).hexdigest()
