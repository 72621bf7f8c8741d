"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import random
import time

import pytest

import demyanov as dm
from demyanov import (
    Collection,
    builtin_counterexample,
    converter_image,
    demyanov_convert,
    iterate_until_cycle,
    parse_family,
    random_family,
    render_svg,
    serialize_family,
)
from demyanov.cli import EX_OK, cli_dispatch
from demyanov.converter import affine_image, representative_bound, sampled_convert
from demyanov.geometry import exposed_face

from support import (
    ARGMAX_TABLES,
    MIRROR,
    TABLE_OMEGA0,
    TABLE_OMEGA1,
    TABLE_OMEGA2,
    TABLE_OMEGA3,
    coll,
    mirror_symmetric,
    poly,
    vertex_set,
)

FAMILY_COUNT = 200
BASE_SEED = 20_240_601


def _report(number, text):
    print(f"[acceptance] criterion {number} PASS: {text}")


@pytest.fixture(scope="module")
def families():
    out = []
    for i in range(FAMILY_COUNT):
        r = random.Random(BASE_SEED + i)
        out.append(random_family(r.randint(1, 4), 4, 3, seed=BASE_SEED + 10_000 + i))
    return out


@pytest.fixture(scope="module")
def builtin_orbit():
    return iterate_until_cycle(builtin_counterexample(), 100)


def test_criterion_1_counterexample_reproduction(builtin_orbit, capsys):
    start = time.perf_counter()
    result = iterate_until_cycle(builtin_counterexample(), 100)
    elapsed = time.perf_counter() - start
    assert result.preperiod == 1
    assert result.cycle_length == 4
    assert serialize_family(result.trajectory[5]) == serialize_family(result.trajectory[1])
    assert result.trajectory[5] != result.trajectory[3]
    assert elapsed < 1.0
    code = cli_dispatch(["iterate", "--builtin", "--cap", "100"])
    assert code == EX_OK
    assert capsys.readouterr().out == "N=1 L=4\n"
    _report(1, f"N=1 L=4, omega5 == omega1 byte-for-byte, {elapsed:.3f}s")


def test_criterion_2_table_conformance_omega0():
    omega0 = builtin_counterexample()
    for raw, expected in TABLE_OMEGA0:
        image = converter_image(omega0, raw)
        assert vertex_set(image) == set(expected), f"image at {raw}"
    for member_coords, rows in ARGMAX_TABLES:
        member = poly(*member_coords)
        for raw, expected in rows:
            face = exposed_face(member, raw)
            assert vertex_set(face) == set(expected), f"face of {member_coords} at {raw}"
    _report(2, "7/7 image rows and 4 argmax tables match exactly")


def test_criterion_3_table_conformance_omega1_to_omega3(builtin_orbit):
    trajectory = builtin_orbit.trajectory
    tables = ((1, TABLE_OMEGA1), (2, TABLE_OMEGA2), (3, TABLE_OMEGA3))
    checked = 0
    for index, table in tables:
        omega = trajectory[index]
        for raw, expected in table:
            image = converter_image(omega, raw)
            assert vertex_set(image) == set(expected), f"omega{index} at {raw}"
            checked += 1
    witness = (1, 2)
    gained = converter_image(trajectory[2], witness)
    base = converter_image(trajectory[0], witness)
    assert dm.Point(-1, 2) in gained.vertices
    assert dm.Point(-1, 2) not in base.vertices
    _report(3, f"{checked} table rows reproduced, witness vertex (-1,2) distinguishes")


def test_criterion_4_oracle_equivalence(families):
    for omega in families:
        full = demyanov_convert(omega)
        bound = representative_bound(omega)
        assert sampled_convert(omega, bound) == full
        for smaller in {1, max(1, bound // 2)}:
            assert set(sampled_convert(omega, smaller).members) <= set(full.members)
    _report(4, f"sampled oracle equals exact image on {len(families)} families")


def test_criterion_5_vertex_containment(families):
    for omega in families:
        pool = {v for member in omega for v in member.vertices}
        for image in demyanov_convert(omega):
            assert set(image.vertices) <= pool
    _report(5, f"vertex containment holds on {len(families)} families")


def test_criterion_6_eventual_periodicity(families):
    histogram = {}
    for omega in families:
        result = iterate_until_cycle(omega, 10_000)
        histogram[result.cycle_length] = histogram.get(result.cycle_length, 0) + 1
    assert sum(histogram.values()) == len(families)
    _report(6, f"all families cycle; L histogram {dict(sorted(histogram.items()))}")


def test_criterion_7_affinely_independent_special_case():
    triangle = ((0, 0), (1, 0), (0, 1))

    def triangle_family(seed):
        r = random.Random(seed)
        for _ in range(64):
            members = []
            covered = set()
            for _ in range(r.randint(1, 4)):
                mask = r.randint(1, 7)
                subset = tuple(triangle[i] for i in range(3) if mask & (1 << i))
                covered.update(subset)
                members.append(poly(*subset))
            if len(covered) == 3:
                return Collection.of(members)
        raise AssertionError("triangle family generation exhausted retries")

    lengths = set()
    for i in range(100):
        result = iterate_until_cycle(triangle_family(777 + i), 100)
        lengths.add(result.cycle_length)
        assert result.cycle_length <= 2
    _report(7, f"100 affinely independent families all have L <= 2 (seen {sorted(lengths)})")


def test_criterion_8_symmetry_equivariance(builtin_orbit):
    for omega in builtin_orbit.trajectory:
        assert affine_image(omega, MIRROR) == omega
    for i in range(50):
        r = random.Random(31_000 + i)
        base = random_family(r.randint(1, 3), 4, 3, seed=32_000 + i)
        result = iterate_until_cycle(mirror_symmetric(base), 10_000)
        for omega in result.trajectory:
            assert affine_image(omega, MIRROR) == omega
    _report(8, "reflection invariance preserved along 51 orbits")


def test_criterion_9_round_trip_and_determinism(families, capsys):
    for omega in families[:100]:
        assert parse_family(serialize_family(omega)) == omega
    rendered = [render_svg(omega) for omega in families[:10]]
    assert rendered == [render_svg(omega) for omega in families[:10]]
    argv_sets = (
        ["builtin"],
        ["iterate", "--builtin", "--cap", "100"],
        ["search", "--instances", "5", "--cap", "1000", "--seed", "3",
         "--num-polytopes", "2", "--max-vertices", "3", "--coord-bound", "2"],
    )
    for argv in argv_sets:
        assert cli_dispatch(list(argv)) == EX_OK
        first = capsys.readouterr().out
        assert cli_dispatch(list(argv)) == EX_OK
        assert capsys.readouterr().out == first
    _report(9, "round trip on 100 collections, SVG and CLI output byte-stable")
