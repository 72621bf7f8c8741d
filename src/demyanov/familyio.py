"""Reading and writing family documents.

A family document is versioned JSON carrying one vertex list per
polytope. Coordinates are strings, either an integer literal or "p/q",
so arbitrary precision survives the trip; floats are rejected outright.

Each literal is checked once against a strict pattern and then built from
its integer parts: int(n) or Fraction(int(p), int(q)), never parsed a
second time as a Fraction string. A zero denominator and a part over the
interpreter's integer digit limit are reported as ParseErrors.

Every iterate of the converter is spanned by vertices of the family it
started from, so a document lists few distinct vertices, many times over.
parse_family therefore parses each distinct [x, y] literal pair once, at
its first occurrence (which an error then names), and every later
occurrence shares that one immutable Point. The memo lives for one call,
so it holds at most one entry per vertex of the document. Each member is
still hulled on its own and the members deduplicated once.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .converter import Collection
from .errors import EmptyInputError, ParseError
from .geometry import _RATIONAL_RE, Point, convex_hull

FORMAT_VERSION = "1"


def _parse_rational(raw, where: str) -> int | Fraction:
    if not isinstance(raw, str):
        raise ParseError(f"{where}: coordinate must be a string, got {type(raw).__name__}")
    if not _RATIONAL_RE.match(raw):
        raise ParseError(f"{where}: {raw!r} is not an integer or p/q rational literal")
    num, _, den = raw.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ZeroDivisionError:
        raise ParseError(f"{where}: zero denominator in {raw!r}") from None
    except ValueError:
        # The literal is well formed, so only the interpreter's limit on
        # integer digits can reject it.
        raise ParseError(f"{where}: literal exceeds the integer digit limit") from None


def parse_family(text: str) -> Collection:
    """Parse a family document into a canonical Collection.

    Vertex lists need not be canonical: they are hulled on load and the
    resulting members deduplicated.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except ValueError:
        raise ParseError("invalid JSON: number literal exceeds the digit limit") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version: {version!r}")
    polytopes = doc.get("polytopes")
    if not isinstance(polytopes, list):
        raise ParseError("'polytopes' must be a list of vertex lists")
    if not polytopes:
        raise EmptyInputError("document contains no polytopes")
    # The Point of each distinct literal pair parsed so far. A pair with a
    # non-string coordinate gets the key None, which is never stored: its
    # parse always raises.
    seen: dict[tuple[str, str] | None, Point] = {}
    members = []
    for i, vertex_list in enumerate(polytopes):
        if not isinstance(vertex_list, list) or not vertex_list:
            raise ParseError(f"polytope {i}: vertex list must be a nonempty list")
        points = []
        for j, vertex in enumerate(vertex_list):
            if not isinstance(vertex, list) or len(vertex) != 2:
                raise ParseError(f"polytope {i} vertex {j}: expected an [x, y] pair")
            x, y = vertex
            key = (x, y) if isinstance(x, str) and isinstance(y, str) else None
            point = seen.get(key)
            if point is None:
                where = f"polytope {i} vertex {j}"
                point = seen[key] = Point(_parse_rational(x, where), _parse_rational(y, where))
            points.append(point)
        members.append(convex_hull(points))
    return Collection.of(members)


def serialize_family(omega: Collection) -> str:
    """Canonical document text: sorted members, reduced rationals, fixed
    field order, byte-identical for equal collections."""
    doc = {
        "version": FORMAT_VERSION,
        "polytopes": [
            [[str(v.x), str(v.y)] for v in member.vertices] for member in omega.members
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
