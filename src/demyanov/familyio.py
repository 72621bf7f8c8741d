"""Reading and writing family documents.

A family document is versioned JSON carrying one vertex list per
polytope. Coordinates are strings, either an integer literal or "p/q",
so arbitrary precision survives the trip; floats are rejected outright.

A malformed document raises ValueError, whose text says what was wrong and
where. Each coordinate is read by Point's own reader, geometry._as_rational,
so documents and Point strings take the same literals and fail with the
same texts. A document adds only that a coordinate must be a JSON string (a
Point also takes ints) and that each error names its vertex.

Every iterate of the converter is spanned by vertices of the family it
started from, so a document lists few distinct vertices, many times over.
parse_family therefore reads each distinct coordinate literal once, into
one Fraction that every equal literal shares (so equal coordinates compare
by identity), and builds each distinct [x, y] literal pair's Point once,
at its first occurrence (which an error then names), for every later
occurrence to share. Both memos live for one call. Each member is still
hulled on its own and the members deduplicated once. serialize_family
likewise formats each distinct vertex once and lists that text in every
slot.
"""

from __future__ import annotations

import json

from .converter import Collection
from .geometry import Point, _as_rational, convex_hull

FORMAT_VERSION = "1"


def _parse_rational(raw, where: str, literals: dict):
    if not isinstance(raw, str):
        raise ValueError(f"{where}: coordinate must be a string, got {type(raw).__name__}")
    value = literals.get(raw)
    if value is None:
        try:
            value = literals[raw] = _as_rational(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return value


def parse_family(text: str) -> Collection:
    """Parse a family document into a canonical Collection.

    Vertex lists need not be canonical: they are hulled on load and the
    resulting members deduplicated.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    except ValueError:
        raise ValueError("invalid JSON: number literal exceeds the digit limit") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("document root must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version: {version!r}")
    polytopes = doc.get("polytopes")
    if not isinstance(polytopes, list):
        raise ValueError("'polytopes' must be a list of vertex lists")
    if not polytopes:
        raise ValueError("document contains no polytopes")
    # The Point of each distinct literal pair parsed so far, and the
    # Fraction of each distinct coordinate literal. A pair with a non-string
    # coordinate gets the key None, which is never stored: its parse always
    # raises.
    seen: dict[tuple[str, str] | None, Point] = {}
    literals = {}
    members = []
    for i, vertex_list in enumerate(polytopes):
        if not isinstance(vertex_list, list) or not vertex_list:
            raise ValueError(f"polytope {i}: vertex list must be a nonempty list")
        points = []
        for j, vertex in enumerate(vertex_list):
            if not isinstance(vertex, list) or len(vertex) != 2:
                raise ValueError(f"polytope {i} vertex {j}: expected an [x, y] pair")
            x, y = vertex
            key = (x, y) if isinstance(x, str) and isinstance(y, str) else None
            point = seen.get(key)
            if point is None:
                where = f"polytope {i} vertex {j}"
                point = seen[key] = Point(
                    _parse_rational(x, where, literals), _parse_rational(y, where, literals)
                )
            points.append(point)
        members.append(convex_hull(points))
    return Collection.of(members)


def serialize_family(omega: Collection) -> str:
    """Canonical document text: sorted members, reduced rationals, fixed
    field order, byte-identical for equal collections."""
    # Each distinct vertex's [x, y] text, keyed by its lift (canonical for its point).
    distinct = {v._lift: v for member in omega.members for v in member.vertices}
    texts = {lift: [str(v.x), str(v.y)] for lift, v in distinct.items()}
    doc = {
        "version": FORMAT_VERSION,
        "polytopes": [[texts[v._lift] for v in member.vertices] for member in omega.members],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
