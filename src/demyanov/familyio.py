"""Reading and writing family documents.

A family document is versioned JSON carrying one vertex list per
polytope. Coordinates are strings, either an integer literal or "p/q",
so arbitrary precision survives the trip; floats are rejected outright.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .converter import Collection
from .errors import EmptyInputError, ParseError
from .geometry import Point, convex_hull

FORMAT_VERSION = "1"

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def _parse_rational(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ParseError(f"{where}: coordinate must be a string, got {type(raw).__name__}")
    if not _RATIONAL_RE.match(raw):
        raise ParseError(f"{where}: {raw!r} is not an integer or p/q rational literal")
    try:
        return Fraction(raw)
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
    members = []
    for i, vertex_list in enumerate(polytopes):
        if not isinstance(vertex_list, list) or not vertex_list:
            raise ParseError(f"polytope {i}: vertex list must be a nonempty list")
        points = []
        for j, vertex in enumerate(vertex_list):
            if not isinstance(vertex, list) or len(vertex) != 2:
                raise ParseError(f"polytope {i} vertex {j}: expected an [x, y] pair")
            where = f"polytope {i} vertex {j}"
            points.append(
                Point(_parse_rational(vertex[0], where), _parse_rational(vertex[1], where))
            )
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
