"""Iteration of the converter, cycle detection, and randomized search.

Repeatedly applying the converter to a finite family yields a sequence
that must eventually repeat, because every image polytope is spanned by
vertices of the starting members. The first repeated collection gives
both the preperiod and the minimal cycle length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .converter import (
    Collection,
    collection_digest,
    converter_image,
    demyanov_convert,
)
from .geometry import Point, convex_hull

DEFAULT_CAP = 10_000


class CapExceededError(Exception):
    """No repeated collection appeared within the iteration cap."""

    def __init__(self, cap: int, trajectory: tuple):
        super().__init__(f"no cycle detected within {cap} iterations")
        self.cap = cap
        self.trajectory = trajectory

    def __reduce__(self):
        return self.__class__, (self.cap, self.trajectory)


@dataclass(frozen=True)
class CycleResult:
    """Outcome of iterating the converter until a collection repeats.

    trajectory[preperiod + cycle_length] == trajectory[preperiod], all
    earlier entries are pairwise distinct, and for a deterministic map the
    first repeat makes cycle_length minimal. The repeat is found by value;
    canonical_hashes holds each state's digest, made once the orbit closed.
    """

    preperiod: int
    cycle_length: int
    trajectory: tuple[Collection, ...]
    canonical_hashes: tuple[str, ...]


def iterate_until_cycle(start: Collection, cap: int = DEFAULT_CAP) -> CycleResult:
    """Apply the converter until the current collection equals an earlier one.

    States are keys of one dict from state to its first step, so a repeat
    is found by the collections' own exact hash and equality, and the
    dict's order is the trajectory. Each state is digested once the orbit
    closes. Raises CapExceededError, carrying the partial trajectory, if
    no repeat shows up within cap applications.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    seen = {start: 0}
    current = start
    for k in range(1, cap + 1):
        current = demyanov_convert(current)
        j = seen.setdefault(current, k)
        if j < k:
            trajectory = (*seen, current)
            return CycleResult(
                preperiod=j,
                cycle_length=k - j,
                trajectory=trajectory,
                canonical_hashes=tuple(map(collection_digest, trajectory)),
            )
    raise CapExceededError(cap, tuple(seen))


def builtin_counterexample() -> Collection:
    """The bundled four-member family whose minimal cycle length is 4.

    Two mirror-image triangles on the x-axis, a taller triangle reaching
    down to the origin, and a wide segment; the family is symmetric with
    respect to the vertical axis.
    """
    return Collection.of(
        [
            convex_hull([Point(1, 0), Point(1, 1), Point(-1, 0)]),
            convex_hull([Point(-1, 0), Point(-1, 1), Point(1, 0)]),
            convex_hull([Point(1, 2), Point(-1, 2), Point(0, 0)]),
            convex_hull([Point(2, 0), Point(-2, 0)]),
        ]
    )


_WITNESS_DIRECTION = (1, 2)
_WITNESS_VERTEX = Point(-1, 2)


@dataclass(frozen=True)
class ClaimVerdict:
    """Structured result of verify_claim: the orbit and each assertion."""

    collections: tuple[Collection, ...]
    assertions: tuple[tuple[str, bool], ...]
    preperiod: int
    cycle_length: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.assertions)


def verify_claim() -> ClaimVerdict:
    """Check the facts that pin down the bundled family's length-4 cycle.

    Computes the first five iterates, asserts that the fifth equals the
    first but differs from the third, that the minimal cycle length is 4,
    and that the image of the second iterate in direction (1, 2) picks up
    the vertex (-1, 2) which the starting family's image lacks. Returns
    the verdict holding every assertion, passed or failed.
    """
    orbit = [builtin_counterexample()]
    for _ in range(5):
        orbit.append(demyanov_convert(orbit[-1]))
    result = iterate_until_cycle(orbit[0], cap=16)
    gained = _WITNESS_VERTEX in converter_image(orbit[2], _WITNESS_DIRECTION).vertices
    absent = _WITNESS_VERTEX not in converter_image(orbit[0], _WITNESS_DIRECTION).vertices
    assertions = (
        ("omega5 equals omega1", orbit[5] == orbit[1]),
        ("omega5 differs from omega3", orbit[5] != orbit[3]),
        ("minimal cycle length is 4", result.cycle_length == 4),
        ("witness vertex gained by image of omega2", gained),
        ("witness vertex absent from image of omega0", absent),
    )
    return ClaimVerdict(tuple(orbit), assertions, result.preperiod, result.cycle_length)


def random_family(
    num_polytopes: int, max_vertices: int, coord_bound: int, seed: int
) -> Collection:
    """Seeded family of distinct random polytopes with small integer vertices.

    Each member is the hull of 1..max_vertices points drawn uniformly from
    the integer square [-coord_bound, coord_bound]^2 with Python's Mersenne
    Twister, so equal seeds give equal families on every platform. Seeds
    are non-negative, since Random(-k) draws the same stream as Random(k).
    Members that collide with earlier ones are redrawn; ValueError is
    raised once the retry budget is spent (the parameter space is too
    small to hold num_polytopes distinct members).
    """
    if num_polytopes < 1 or max_vertices < 1 or coord_bound < 0 or seed < 0:
        raise ValueError("num_polytopes and max_vertices must be >= 1, coord_bound and seed >= 0")
    rng = random.Random(seed)
    budget = 64 * num_polytopes
    members: dict = {}
    for _ in range(budget):
        count = rng.randint(1, max_vertices)
        points = [
            Point(rng.randint(-coord_bound, coord_bound), rng.randint(-coord_bound, coord_bound))
            for _ in range(count)
        ]
        members.setdefault(convex_hull(points), None)
        if len(members) == num_polytopes:
            return Collection.of(members)
    raise ValueError(f"could not generate {num_polytopes} distinct polytopes in {budget} attempts")


@dataclass(frozen=True)
class SearchReport:
    """Aggregate of a cycle-length survey over seeded instances.

    histogram is (cycle length, count) pairs in ascending length order;
    its counts sum to instances_run - cap_exceeded. max_l_witness is the
    first family attaining the largest observed length, with its seed.
    """

    instances_run: int
    histogram: tuple[tuple[int, int], ...]
    max_l_witness: Collection | None
    max_l_seed: int | None
    cap_exceeded: int


def search_cycles(
    params: tuple[int, int, int] | None,
    num_instances: int,
    cap: int,
    base_seed: int,
    family_source: Callable[[int], Collection] | None = None,
) -> SearchReport:
    """Iterate many seeded families and tally their minimal cycle lengths.

    Instance i draws its family with seed base_seed + i, from random_family
    under params, the tuple (num_polytopes, max_vertices, coord_bound),
    unless family_source overrides the generator. Instances that exceed
    the cap are counted, never fatal. The report depends only on the
    seeds, not on execution order.
    """
    if num_instances < 1:
        raise ValueError("num_instances must be at least 1")
    if family_source is None:
        if params is None:
            raise ValueError("params are required when no family_source is given")
        family_source = partial(random_family, *params)

    histogram: dict[int, int] = {}
    cap_exceeded = 0
    best: tuple[int, Collection, int] | None = None
    for i in range(num_instances):
        seed = base_seed + i
        family = family_source(seed)
        try:
            result = iterate_until_cycle(family, cap)
        except CapExceededError:
            cap_exceeded += 1
            continue
        length = result.cycle_length
        histogram[length] = histogram.get(length, 0) + 1
        if best is None or length > best[0]:
            best = (length, family, seed)
    return SearchReport(
        instances_run=num_instances,
        histogram=tuple(sorted(histogram.items())),
        max_l_witness=None if best is None else best[1],
        max_l_seed=None if best is None else best[2],
        cap_exceeded=cap_exceeded,
    )
