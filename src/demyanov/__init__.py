"""Exact engine for the Demyanov converter on families of planar polytopes.

Builds converter images by exact enumeration of the common refinement of
the members' normal fans, iterates the resulting dynamical system on
collections, detects minimal cycle lengths, and ships a four-polytope
family whose orbit settles into a cycle of length 4, refuting the
Demyanov-Ryabova conjecture that two always suffices.
"""

from .converter import (
    Collection,
    collection_digest,
    converter_image,
    demyanov_convert,
)
from .dynamics import (
    CapExceededError,
    ClaimVerdict,
    CycleResult,
    SearchReport,
    builtin_counterexample,
    iterate_until_cycle,
    random_family,
    search_cycles,
    verify_claim,
)
from .familyio import parse_family, serialize_family
from .geometry import Point, Polytope, convex_hull
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ClaimVerdict",
    "Collection",
    "CycleResult",
    "Point",
    "Polytope",
    "SearchReport",
    "builtin_counterexample",
    "collection_digest",
    "converter_image",
    "convex_hull",
    "demyanov_convert",
    "iterate_until_cycle",
    "parse_family",
    "random_family",
    "render_svg",
    "search_cycles",
    "serialize_family",
    "verify_claim",
]
