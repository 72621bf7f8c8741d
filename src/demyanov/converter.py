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

Both routes below index the family's distinct vertices once, in
lexicographic order, and read the integer lift (X, Y, W), W > 0, that each
Point made when built, so <v, g> = (X a + Y b) / W for g = (a, b). An
attaining set is an int bitmask over the index; each distinct one is
hulled once, on its points picked from the lowest set bit up, so in index
order, which the hull takes without sorting. No Fraction or float is used.

test_directions computes each member edge's outward normal once, orders
the distinct normals counterclockwise by an exact int key (the half-plane,
then floor(-a/b * 2^k) with 2^k above every product |b1 b2|) and lists,
on each ray cell, the member edges normal to that ray. Cells keep their
rays as those primitive int pairs; a cell's witness direction, a
primitive int pair too, is made from its own rays only when read, which
the sweep never does. demyanov_convert
sweeps the rays once, reading those lists: a member whose edge
(v_i, v_{i+1}) has the current ray as outward normal exposes v_i just
before the ray, the edge on it and v_{i+1} after it, and every other
member keeps its face; the open sector after the ray has the faces past
it. Counting per vertex the members
whose face it is keeps the union's mask, so a step costs time linear in
rays plus member vertices.
sampled_convert and converter_image instead score each member on its own
rows (bit, X, Y, W), one per vertex, at each direction (a, b), comparing
values by cross-multiplying with W; sharing none of the sweep,
sampled_convert checks demyanov_convert.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable, Iterator

from .geometry import Point, Polytope, convex_hull
from .geometry import _Canonical, _Sorted, _as_rational, _direction, _joined_text, _sort_key


@dataclass(frozen=True, slots=True)
class Collection:
    """A nonempty, deduplicated, canonically ordered family of polytopes.

    Members are sorted by their vertex tuples, so equal families compare
    and hash equal regardless of how they were assembled. Collection.of
    builds that layout from arbitrary input, keying members by their
    vertices' keys as it sorts, and is taken as is; any other member
    tuple is accepted only if Collection.of would return it unchanged.
    """

    members: tuple[Polytope, ...]

    def __post_init__(self) -> None:
        checked = self.members.__class__ is not _Canonical
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a collection must contain at least one polytope")
        if checked and Collection.of(self.members).members != self.members:
            raise ValueError("members must be sorted and deduplicated; use Collection.of")

    @classmethod
    def of(cls, polytopes: Iterable[Polytope]) -> Collection:
        return cls(_Canonical(sorted(set(polytopes), key=lambda p: [*map(_sort_key, p.vertices)])))

    def __iter__(self) -> Iterator[Polytope]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class CellKind(Enum):
    RAY = "ray"
    SECTOR = "sector"


@dataclass(frozen=True, slots=True)
class FanCell:
    """One cell of the refined fan: a single ray or an open sector.

    rays holds the delimiting rays as primitive int pairs (a, b): one for
    a RAY cell, the counterclockwise (start, end) pair for a SECTOR cell,
    and none for the all-directions sector of a fan with no rays at all.
    kind and representative, the cell's witness direction as a primitive
    int pair, are made from rays when read. A RAY cell's witness is its
    ray. A sector from (a, b) to (c, d) takes (a + c, b + d), reduced by
    their gcd, which lies strictly inside it; an exact half turn, where
    that sum is zero, takes (-b, a), its start turned a quarter turn. The
    rayless fan takes (1, 0).

    edges lists, on a RAY cell, the member edges (m, i, j) whose outward
    normal is the ray: m is the member's position in omega.members and i, j
    are positions in its vertex tuple, so the member exposes vertex i just
    before the ray, the edge on it and vertex j just after it. A segment
    has (m, 0, 1) on its normal n and (m, 1, 0) on -n. Sectors have none.
    """

    rays: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int, int], ...] = ()

    @property
    def kind(self) -> CellKind:
        return CellKind.RAY if len(self.rays) == 1 else CellKind.SECTOR

    @property
    def representative(self) -> tuple[int, int]:
        if len(self.rays) < 2:
            return self.rays[0] if self.rays else (1, 0)
        (a, b), (c, d) = self.rays
        g = gcd(a + c, b + d)  # 0 only on a half turn, where the sum is zero
        return ((a + c) // g, (b + d) // g) if g else (-b, a)


def _ccw_order(normals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # Distinct primitive (a, b) counterclockwise from (1, 0): (1, 0), those
    # with b > 0, (-1, 0), those with b < 0, each run by rising slope -a/b,
    # keyed by floor(-a/b * 2^k). Distinct slopes differ by at least
    # 1/|b1 b2| and 2^k > |b1 b2|, so their int keys differ as well.
    k = 2 * max(abs(b) for _, b in normals).bit_length() + 1

    def angle(normal: tuple[int, int]) -> tuple[int, int]:
        a, b = normal
        return (0 if a > 0 else 2, 0) if b == 0 else (1 if b > 0 else 3, (-a << k) // b)

    return sorted(normals, key=angle)


def test_directions(omega: Collection) -> list[FanCell]:
    """Fan cells covering every nonzero direction, one witness each.

    The converter image is constant on each cell, so evaluating it at the
    representatives enumerates the full image set. The rays, in
    counterclockwise order from (1, 0), are the members' outward edge
    normals; each ray cell lists the edges normal to it. A fan without rays
    collapses to a single sector with representative (1, 0).
    """
    on_ray: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for m, member in enumerate(omega.members):
        lifts = [v._lift for v in member.vertices]
        n = len(lifts)
        # The cyclic edges (v_i, v_{i+1}): a segment's one edge runs both
        # ways, a point has none.
        for i in range(n if n > 1 else 0):
            j = (i + 1) % n
            # Outward normal: (v_j - v_i) * W_i * W_j turned clockwise, made primitive.
            (px, py, pw), (qx, qy, qw) = lifts[i], lifts[j]
            a, b = qy * pw - py * qw, px * qw - qx * pw
            g = gcd(a, b)
            normal = (a // g, b // g)
            edges = on_ray.get(normal)
            if edges is None:
                on_ray[normal] = [(m, i, j)]
            else:
                edges.append((m, i, j))
    if not on_ray:
        return [FanCell(())]
    rays = _ccw_order(list(on_ray))
    cells: list[FanCell] = []
    for ray, nxt in zip(rays, rays[1:] + rays[:1]):
        cells.append(FanCell((ray,), tuple(on_ray[ray])))
        cells.append(FanCell((ray, nxt)))
    return cells


def converter_image(omega: Collection, g: tuple[int, int]) -> Polytope:
    """conv of the union of every member's exposed face in direction g, a
    pair (a, b) of ints, not both zero."""
    return _collect_images(omega, [_direction(g)]).members[0]


def _vertex_index(omega: Collection) -> tuple[list[Point], list[list[int]]]:
    # The distinct vertices in lexicographic order; members as index lists.
    lifted = {v._lift: v for member in omega.members for v in member.vertices}
    points = sorted(lifted.values(), key=_sort_key)
    index = {p._lift: i for i, p in enumerate(points)}
    return points, [[index[v._lift] for v in member.vertices] for member in omega.members]


def _images(points: list[Point], masks: Iterable[int]) -> Collection:
    # Hull each distinct attaining set once, on the points of its set bits.
    hulls = []
    for mask in dict.fromkeys(masks):
        picked = _Sorted()  # set bits rise, and so do the points' keys
        while mask:
            picked.append(points[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        hulls.append(convex_hull(picked))
    return Collection.of(hulls)


def _collect_images(omega: Collection, directions: Iterable[tuple[int, int]]) -> Collection:
    # Brute force: each member scored at every direction (a, b) on its own
    # rows (bit, X, Y, W), one per vertex, bit being 1 << its index.
    points, members = _vertex_index(omega)
    rows = [[(1 << i, *points[i]._lift) for i in member] for member in members]
    rows = [(member[0], member[1:]) for member in rows]
    masks = []
    for a, b in directions:
        attaining = 0
        for (face, x, y, w), rest in rows:
            top = x * a + y * b
            for bit, x, y, v in rest:
                value = x * a + y * b
                # Sign of value/v - top/w, both weights positive.
                d = value * w - top * v
                if d > 0:
                    top, w, face = value, v, bit
                elif d == 0:
                    face |= bit
            attaining |= face
        masks.append(attaining)
    return _images(points, masks)


def demyanov_convert(omega: Collection) -> Collection:
    """One application of the converter: the set of images over all
    nonzero directions, computed by one sweep over the fan's rays."""
    cells = test_directions(omega)
    points, members = _vertex_index(omega)
    # Each ray's member edges (m, i, j), with i and j as vertex indices.
    steps = [[(m, members[m][i], members[m][j]) for m, i, j in c.edges] for c in cells if c.edges]
    # Past the normal of its edge (v_i, v_j) a member's face is v_j, so one
    # pass over the rays leaves each member at its face before the first.
    face = [member[0] for member in members]
    for edges in steps:
        for m, _, j in edges:
            face[m] = j
    count = [0] * len(points)  # vertex index -> members whose face it is
    mask = 0
    for i in face:
        count[i] += 1
        mask |= 1 << i
    masks = [] if steps else [mask]
    for edges in steps:
        before = mask
        for _, i, j in edges:
            count[i] -= 1
            count[j] += 1
        for _, i, j in edges:
            mask = (mask if count[i] else mask & ~(1 << i)) | 1 << j
        # On a ray each member with an edge there exposes both faces; the
        # open sector after it, the faces past the ray.
        masks += before | mask, mask
    return _images(points, masks)


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
    # gcd(0, 0) == 0, so the zero vector is left out with the rest.
    directions = [
        (a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if gcd(a, b) == 1
    ]
    return _collect_images(omega, directions)


def representative_bound(omega: Collection) -> int:
    """Largest coordinate magnitude among the fan-cell representatives."""
    witnesses = [cell.representative for cell in test_directions(omega)]
    return max(max(abs(a), abs(b)) for a, b in witnesses)


def affine_image(omega: Collection, A, t=(0, 0)) -> Collection:
    """The family mapped by x -> A x + t, every member hulled again.

    A = ((a, b), (c, d)) and t = (tx, ty) hold rationals as Point takes
    them, so a float raises TypeError; a singular A raises ValueError.
    """
    (a, b), (c, d) = [[_as_rational(e) for e in row] for row in A]
    tx, ty = map(_as_rational, t)
    if a * d == b * c:
        raise ValueError("A is singular; an affine image needs an invertible map")
    return Collection.of(
        convex_hull(Point(a * v.x + b * v.y + tx, c * v.x + d * v.y + ty) for v in m.vertices)
        for m in omega.members
    )


def collection_digest(omega: Collection) -> str:
    """SHA-256 digest of the canonical form, equal for equal collections:
    the members' vertex texts, each made once per Point and kept."""
    token = ";".join(_joined_text(member.vertices) for member in omega.members)
    return hashlib.sha256(token.encode("ascii")).hexdigest()
