"""The three benchmark workloads: their inputs, timed operation and checks.

Every workload builds its inputs from the run seed alone, so the same seed
gives the same families and documents. The library is called through module
attributes (``dynamics.iterate_until_cycle`` rather than an imported name) so
that the traced run can rebind those names and see every call.

An operation ("op") is what one closed-loop caller waits for: one orbit for
the two orbit workloads, one document round trip for doc-io. ``op`` is the
timed part; ``check`` runs outside the timed region and returns a list of
problems, empty when the result is correct.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from demyanov import converter, dynamics, familyio, geometry, render
from demyanov.converter import Collection
from demyanov.geometry import Point

# Orbits close within a handful of steps on every family used here; a cap
# this low turns a runaway orbit into a counted failure instead of a hang.
CAP = 100

# The eight symmetries of the integer lattice square, as (a, b, c, d) for
# x' = a x + b y, y' = c x + d y.
SYMMETRIES = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0),
)
TRANSLATION_BOUND = 4

# x -> (2/3) x + (1/5, -3/7): a similarity whose image carries denominators.
RATIONAL_MAP = (Fraction(2, 3), 0, 0, Fraction(2, 3), Fraction(1, 5), Fraction(-3, 7))


def affine_image(omega: Collection, a, b, c, d, tx, ty) -> Collection:
    """The family mapped by x -> (a x + b y + tx, c x + d y + ty)."""
    return Collection.of(
        geometry.convex_hull(
            Point(a * v.x + b * v.y + tx, c * v.x + d * v.y + ty) for v in member.vertices
        )
        for member in omega.members
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# random_family(num_polytopes, max_vertices, coord_bound, k) shapes: the CLI
# search defaults, and the six-member families of the long orbits.
SEARCH_SHAPE = (3, 4, 3)
WIDE_SHAPE = (6, 8, 10)


def panel_family(seed: int, k: int, draw: int = 0, shape=WIDE_SHAPE) -> Collection:
    """Panel family k: random_family(*shape, k) under a lattice symmetry and
    an integer translation drawn from (seed, k, draw).

    Fixing the panel and drawing only the lattice map from the seed keeps
    the work of a run the same on every seed (the map changes coordinates,
    not the combinatorics), while no two seeds, and no two draws, hand the
    library the same family.
    """
    rng = random.Random(f"panel:{shape}:{seed}:{k}:{draw}")
    symmetry = SYMMETRIES[rng.randrange(len(SYMMETRIES))]
    tx = rng.randint(-TRANSLATION_BOUND, TRANSLATION_BOUND)
    ty = rng.randint(-TRANSLATION_BOUND, TRANSLATION_BOUND)
    return affine_image(dynamics.random_family(*shape, k), *symmetry, tx, ty)


def orbit_problems(result) -> list[str]:
    """Invariants every orbit satisfies, on any seed."""
    problems = []
    traj = result.trajectory
    n, length = result.preperiod, result.cycle_length
    if n + length != len(traj) - 1 or traj[n + length] != traj[n]:
        problems.append("trajectory[N+L] != trajectory[N]")
    start = {v for member in traj[0] for v in member.vertices}
    if any(v not in start for state in traj for member in state for v in member.vertices):
        problems.append("an iterate has a vertex outside the starting vertex set")
    first = traj[0]
    if converter.sampled_convert(first, converter.representative_bound(first)) != traj[1]:
        problems.append("sampled_convert oracle disagrees on the first step")
    return problems


class Workload:
    """Shared bookkeeping: reference lookup and run-level checks."""

    name = ""
    trace_ops = 0
    # Op i repeats the work of op i - round_ops on a freshly mapped input
    # (doc-io: on the same document), so a round is a fixed mix of costs
    # and each of its positions is timed once per round.
    round_ops = 1
    # Whether ops cycle through a fixed pool, so op i has reference entry
    # i modulo the pool size.
    wraps = False

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        ref = reference if reference and reference.get("seed") == seed else None
        self.ref = ref.get(self.name, {}) if ref else None

    def fingerprint(self, i: int, result) -> list:
        """What the frozen reference records for op i: for an orbit, N, L
        and the digest of the state at N."""
        n = result.preperiod
        return [n, result.cycle_length, converter.collection_digest(result.trajectory[n])]

    def reference_problems(self, i: int, result) -> list[str]:
        table = self.ref.get("ops", []) if self.ref else []
        index = i % len(table) if table and self.wraps else i
        if index >= len(table):
            return []
        got = self.fingerprint(i, result)
        if got != table[index]:
            return [f"op {i}: {got} differs from the frozen reference {table[index]}"]
        return []

    def run_checks(self) -> dict[str, list[str]]:
        """Checks made once per run, keyed by name."""
        verdict = dynamics.verify_claim()
        return {"verify_claim": [] if verdict.passed else ["verify_claim failed"]}


class Search343(Workload):
    """The CLI ``search`` defaults: random_family(3, 4, 3, k) instances.

    A round visits panel families k = 0..99, each generated and mapped
    afresh inside the timed op, then iterated to its first repeat.
    """

    name = "search-343"
    trace_ops = 40
    round_ops = 100

    def op(self, i: int):
        draw, k = divmod(i, self.round_ops)
        family = panel_family(self.seed, k, draw, SEARCH_SHAPE)
        return dynamics.iterate_until_cycle(family, CAP)

    def check(self, i, result) -> list[str]:
        return orbit_problems(result) + self.reference_problems(i, result)


class OrbitWide(Workload):
    """Long orbits of six-member families, each followed by a rational copy.

    A round visits panel families 0..panel_size-1, each under a fresh
    lattice map: op 2k of a round iterates family k, op 2k+1 its image
    under RATIONAL_MAP, whose trajectory must be the mapped integer one.
    """

    name = "orbit-wide"
    trace_ops = 4
    panel_size = 8
    round_ops = 2 * panel_size

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.integer_result = None

    def family(self, i: int) -> Collection:
        draw, j = divmod(i, self.round_ops)
        family = panel_family(self.seed, j // 2, draw)
        return family if j % 2 == 0 else affine_image(family, *RATIONAL_MAP)

    def op(self, i: int):
        return dynamics.iterate_until_cycle(self.family(i), CAP)

    def check(self, i, result) -> list[str]:
        problems = orbit_problems(result) + self.reference_problems(i, result)
        if i % 2 == 0:
            self.integer_result = result
        else:
            integer = self.integer_result
            mapped = None if integer is None else tuple(
                affine_image(state, *RATIONAL_MAP) for state in integer.trajectory
            )
            if mapped != result.trajectory:
                problems.append("rational trajectory is not the mapped integer trajectory")
        return problems


class DocIo(Workload):
    """Serialize, parse back, compare and render precomputed orbit states.

    The pool holds the builtin orbit and the orbits of panel families 0-5
    with their rational images, all computed in set-up; ops cycle through
    it, so no converter runs in the timed loop.
    """

    name = "doc-io"
    wraps = True
    # Six families give 67 documents whose costs lie densely around the
    # median; with two, the percentiles jumped between sparse cost levels.
    panel = range(6)

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        builtin = dynamics.iterate_until_cycle(dynamics.builtin_counterexample(), CAP)
        pool = list(builtin.trajectory[:-1])
        for k in self.panel:
            states = dynamics.iterate_until_cycle(panel_family(seed, k), CAP).trajectory[:-1]
            pool.extend(states)
            pool.extend(affine_image(state, *RATIONAL_MAP) for state in states)
        self.pool = pool
        self.trace_ops = self.round_ops = len(pool)

    def op(self, i: int):
        omega = self.pool[i % len(self.pool)]
        text = familyio.serialize_family(omega)
        same = familyio.parse_family(text) == omega
        svg = render.render_svg(omega)
        return text, svg, same

    def fingerprint(self, i, result):
        text, svg, _ = result
        return [sha256(text), sha256(svg)]

    def check(self, i, result) -> list[str]:
        problems = [] if result[2] else [f"op {i}: parse(serialize(state)) != state"]
        return problems + self.reference_problems(i, result)


WORKLOADS = {cls.name: cls for cls in (Search343, OrbitWide, DocIo)}
