import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import demyanov as dm
from demyanov import (
    Collection,
    Point,
    collection_digest,
    convex_hull,
    converter_image,
    demyanov_convert,
    iterate_until_cycle,
)
from demyanov import converter
from demyanov.converter import (
    CellKind,
    FanCell,
    affine_image,
    representative_bound,
    sampled_convert,
)
from demyanov.geometry import exposed_face

from support import (
    MIRROR,
    OMEGA0,
    OMEGA1,
    P1,
    P4,
    TABLE_OMEGA0,
    affine_maps_st,
    coll,
    directions_st,
    mirror_symmetric,
    mixed_families,
    poly,
    pt,
    reference_angular_cmp,
    vertex_set,
)

coords_st = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
members_st = st.lists(st.builds(pt, coords_st, coords_st), min_size=1, max_size=5).map(convex_hull)
rational_families_st = st.lists(members_st, min_size=1, max_size=4).map(Collection.of)


small_coords_st = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
mixed_families_st = mixed_families(small_coords_st)


def small_family(seed):
    r = random.Random(seed)
    return dm.random_family(r.randint(1, 4), 4, 3, seed=seed + 7919)


def interior_witness(cell, rng):
    (a, b), (c, d) = cell.rays
    if (c, d) == (-a, -b):
        # Half-plane sector: positive normal component, any tangential one.
        c, d = -b, a
        lam, mu = rng.randint(-9, 9), rng.randint(1, 9)
    else:
        lam, mu = rng.randint(1, 9), rng.randint(1, 9)
    return lam * a + mu * c, lam * b + mu * d


def test_collection_of_dedupes_and_sorts():
    a = poly((0, 0))
    b = poly((1, 1))
    omega = Collection.of([b, a, b, a])
    assert omega.members == (a, b)
    assert len(omega) == 2
    assert a in omega


def test_collection_rejects_empty_and_unsorted():
    empty = "^a collection must contain at least one polytope$"
    with pytest.raises(ValueError, match=empty):
        Collection.of([])
    with pytest.raises(ValueError, match=empty):
        Collection(())
    a = poly((0, 0))
    b = poly((1, 1))
    with pytest.raises(ValueError):
        Collection((b, a))
    with pytest.raises(ValueError):
        Collection((a, a))


# A small pool of hulls, so that drawn tuples often repeat a member and
# members share a vertex prefix (a point sorts before a segment from it).
member_pool_st = st.sampled_from(
    [
        poly((0, 0)),
        poly((0, 0), (1, 0)),
        poly((0, 0), (1, 0), (0, 1)),
        poly((Fraction(1, 2), 0), (0, 1)),
        poly((0, 1)),
    ]
)


@given(st.lists(member_pool_st, min_size=1, max_size=5).map(tuple))
# One rational first vertex, built apart for each member: a triangle, a
# segment whose vertex tuple is the triangle's prefix, and the point alone.
# The sort key's exact tie-break meets equal Fractions in distinct objects,
# and a prefix sorts first.
@example(
    (
        convex_hull([Point("1/2", "1/3"), pt(1, 0), pt(1, 1)]),
        convex_hull([Point(Fraction(2, 4), Fraction(1, 3)), pt(1, 0)]),
        convex_hull([Point("1/2", "1/3")]),
    )
)
def test_collection_accepts_exactly_the_output_of_of(members):
    omega = Collection.of(members)
    assert type(omega.members) is tuple
    assert Collection(tuple(omega.members)) == omega
    # Members sort as their vertex lists of Fraction pairs do.
    assert omega.members == tuple(
        sorted(set(members), key=lambda m: [(v.x, v.y) for v in m.vertices])
    )
    canonical = members == omega.members
    try:
        Collection(members)
    except ValueError:
        assert not canonical
    else:
        assert canonical


def test_only_caller_member_tuples_are_validated(monkeypatch):
    calls = []
    build = Collection.of.__func__
    monkeypatch.setattr(
        Collection, "of", classmethod(lambda cls, ps: calls.append(ps) or build(cls, ps))
    )
    omega = coll(*OMEGA0)
    assert len(calls) == 1  # coll's own call; its output is not checked again
    assert Collection(omega.members) == omega
    assert calls[1:] == [omega.members]
    with pytest.raises(ValueError):
        Collection(omega.members[::-1])


def ray_representatives(omega):
    return [c.representative for c in converter.test_directions(omega) if c.kind is CellKind.RAY]


def test_edge_normals_of_triangle():
    rays = ray_representatives(coll(P1))
    assert set(rays) == {(0, -1), (1, 0), (-1, 2)}


def test_edge_normals_of_segment_and_point():
    assert set(ray_representatives(coll(P4))) == {(0, 1), (0, -1)}
    assert ray_representatives(coll(((0, 0),))) == []


OMEGA0_RAYS = [(1, 0), (1, 2), (0, 1), (-1, 2), (-1, 0), (-2, -1), (0, -1), (2, -1)]


def test_fan_rays_of_builtin_family_in_ccw_order():
    omega = coll(*OMEGA0)
    assert [cell.rays for cell in converter.test_directions(omega)] == [
        rays
        for k, ray in enumerate(OMEGA0_RAYS)
        for rays in ((ray,), (ray, OMEGA0_RAYS[(k + 1) % len(OMEGA0_RAYS)]))
    ]
    assert ray_representatives(omega) == OMEGA0_RAYS


@given(mixed_families_st)
def test_fan_cell_fields_agree_with_their_int_rays(omega):
    for cell in converter.test_directions(omega):
        assert all(type(c) is int for ray in cell.rays for c in ray)
        assert all(gcd(a, b) == 1 for a, b in cell.rays)
        assert (cell.kind is CellKind.RAY) == (len(cell.rays) == 1)
        g = cell.representative
        assert type(g) is tuple and len(g) == 2
        ga, gb = g
        assert type(ga) is int and type(gb) is int and gcd(ga, gb) == 1
        if len(cell.rays) == 2:
            # Strictly inside the open sector, also where it is a half turn.
            (a, b), (c, d) = cell.rays
            assert a * gb - b * ga > 0
            assert ga * d - gb * c > 0
        elif cell.rays:
            assert g == cell.rays[0]
        else:
            assert g == (1, 0)


@given(mixed_families_st)
# One segment: two opposite rays, each sector a half turn.
@example(coll(P4))
# Two non-parallel segments: four rays, each sector a quarter turn.
@example(coll(((0, 0), (1, 0)), ((0, 0), (0, 1))))
# Points only: no rays, so no sector between two of them.
@example(coll(((0, 0),), ((1, 1),)))
def test_consecutive_fan_rays_bound_at_most_a_half_turn(omega):
    # A polygon's normals leave no gap as wide as a half turn, a segment
    # adds n and -n, and a point adds none, so every sector turns
    # counterclockwise by less than a half turn, or by exactly one between
    # opposite rays.
    for cell in converter.test_directions(omega):
        if len(cell.rays) == 2:
            (a, b), (c, d) = cell.rays
            cross = a * d - b * c
            assert cross > 0 or (cross == 0 and (c, d) == (-a, -b)), cell.rays


def test_converter_path_reads_no_representative(monkeypatch):
    # The sweep reads each ray cell's edges, never a cell's witness.
    def no_witness(cell):
        raise AssertionError("a representative was read on the converter path")

    monkeypatch.setattr(FanCell, "representative", property(no_witness))
    result = iterate_until_cycle(dm.builtin_counterexample(), 100)
    assert (result.preperiod, result.cycle_length) == (1, 4)


def test_fan_rays_of_points_and_segment():
    assert ray_representatives(coll(((0, 0),), ((1, 1),))) == []
    assert ray_representatives(coll(P4)) == [(0, 1), (0, -1)]


@given(mixed_families_st)
def test_ray_cells_list_the_member_edges_normal_to_them(omega):
    # exposed_face evaluates <v, g> on Fractions, apart from the int normals.
    cells = converter.test_directions(omega)
    listed = []
    for k, cell in enumerate(cells):
        if cell.kind is CellKind.SECTOR:
            assert cell.edges == ()
            continue
        before, after = cells[k - 1].representative, cells[k + 1].representative
        for m, member in enumerate(omega):
            verts = member.vertices
            on_ray = [(i, j) for n, i, j in cell.edges if n == m]
            face = exposed_face(member, cell.representative).vertices
            if len(face) == 1:
                assert on_ray == []
                continue
            assert len(on_ray) == 1
            i, j = on_ray[0]
            assert set(face) == {verts[i], verts[j]}
            assert exposed_face(member, before).vertices == (verts[i],)
            assert exposed_face(member, after).vertices == (verts[j],)
        listed += cell.edges
    edges = [
        (m, i, (i + 1) % len(member.vertices))
        for m, member in enumerate(omega)
        if len(member.vertices) > 1
        for i in range(len(member.vertices))
    ]
    assert sorted(listed) == sorted(edges)


def primitive(a, b):
    g = gcd(a, b)
    return a // g, b // g


def farey_neighbours(normal):
    # n = (a, b), m = (c, d) with a*d - b*c = 1 and their sum: consecutive
    # rays whose slopes a/b, c/d and (a+c)/(b+d) differ by 1/|b d| and
    # 1/|b (b+d)|, far below 2^-64 once b and d are large.
    a, b = normal
    d = pow(a, -1, abs(b)) if b else a
    c = (a * d - 1) // b if b else 0
    return [normal, (c, d), (a + c, b + d)]


huge_st = st.integers(-(2**80), 2**80)
primitive_normals_st = (
    st.tuples(huge_st, huge_st).filter(lambda ab: ab != (0, 0)).map(lambda ab: primitive(*ab))
)
normal_sets_st = st.lists(
    st.one_of(
        primitive_normals_st.map(lambda n: [n]),
        primitive_normals_st.map(farey_neighbours),
        st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]).map(lambda n: [n]),
    ),
    min_size=1,
    max_size=6,
).flatmap(lambda groups: st.permutations(list({n: None for g in groups for n in g})))


@given(normal_sets_st)
# Slopes 2^80 / (2^80 - 1) and its two Farey neighbours, 2^-160 apart,
# in both half-planes, with the axis rays opening each half-plane.
@example(
    farey_neighbours((2**80, 2**80 - 1))
    + [(-a, -b) for a, b in farey_neighbours((2**80, 2**80 - 1))]
    + [(-1, 0), (1, 0)]
)
def test_ccw_order_matches_the_reference_comparator(normals):
    assert converter._ccw_order(list(normals)) == sorted(
        normals, key=cmp_to_key(reference_angular_cmp)
    )


@given(mixed_families_st)
def test_fan_rays_are_in_reference_angular_order(omega):
    rays = ray_representatives(omega)
    assert rays == sorted(set(rays), key=cmp_to_key(reference_angular_cmp))


def test_sector_representative_examples():
    assert FanCell(((0, -1), (2, -1))).representative == (1, -1)
    assert FanCell(((1, 0), (-1, 0))).representative == (0, 1)
    assert FanCell(((2, -1), (1, 0))).representative == (3, -1)


def test_test_directions_cell_counts():
    cells = converter.test_directions(coll(*OMEGA0))
    assert len(cells) == 16
    assert sum(1 for c in cells if c.kind is CellKind.RAY) == 8
    assert sum(1 for c in cells if c.kind is CellKind.SECTOR) == 8


def test_test_directions_of_point_family_is_single_sector():
    cells = converter.test_directions(coll(((0, 0),), ((1, 1),)))
    assert len(cells) == 1
    assert cells[0].kind is CellKind.SECTOR
    assert cells[0].rays == ()
    assert cells[0].representative == (1, 0)


def test_test_directions_of_segment_family():
    cells = converter.test_directions(coll(P4))
    rays = {c.representative for c in cells if c.kind is CellKind.RAY}
    sectors = {c.representative for c in cells if c.kind is CellKind.SECTOR}
    assert rays == {(0, 1), (0, -1)}
    assert sectors == {(1, 0), (-1, 0)}


def test_converter_image_matches_case_table():
    omega = coll(*OMEGA0)
    for raw, expected in TABLE_OMEGA0:
        image = converter_image(omega, raw)
        assert vertex_set(image) == {(x, y) for x, y in expected}, raw


def test_converter_image_on_second_iterate_along_x_axis():
    omega1 = demyanov_convert(coll(*OMEGA0))
    image = converter_image(omega1, (1, 0))
    assert vertex_set(image) == {(-1, 0), (-1, 2), (2, 0), (1, 1)}


@given(mixed_families_st, directions_st, st.integers(1, 50))
def test_converter_image_ignores_positive_scaling(omega, g, scale):
    a, b = g
    assert converter_image(omega, (a * scale, b * scale)) == converter_image(omega, g)


def test_demyanov_convert_of_builtin_family():
    assert demyanov_convert(coll(*OMEGA0)) == coll(*OMEGA1)


def test_demyanov_convert_of_point_family_is_single_hull():
    omega = coll(((0, 0),), ((2, 1),), ((1, 3),))
    image = demyanov_convert(omega)
    assert len(image) == 1
    assert image.members[0] == poly((0, 0), (2, 1), (1, 3))


def test_demyanov_convert_of_segment_family():
    image = demyanov_convert(coll(P4))
    assert image == coll(P4, ((2, 0),), ((-2, 0),))


def test_sampled_convert_equals_exact_at_bound():
    omega = coll(*OMEGA0)
    assert representative_bound(omega) == 3
    assert sampled_convert(omega, 3) == demyanov_convert(omega)


def test_sampled_convert_below_bound_is_strict_subcollection():
    omega = coll(*OMEGA0)
    full = demyanov_convert(omega)
    sampled = sampled_convert(omega, 1)
    assert set(sampled.members) < set(full.members)
    missing = set(full.members) - set(sampled.members)
    # The boundary-ray images (and the narrow sector above (1, 2)) are missed.
    assert poly((0, 0), (1, 2), (2, 0)) in missing
    assert poly((1, 0), (-1, 1), (1, 2), (2, 0)) in missing
    assert poly((-1, 1), (1, 2), (2, 0)) in missing


def test_sampled_convert_of_point_family():
    omega = coll(((3, 2),))
    assert sampled_convert(omega, 5) == omega
    with pytest.raises(ValueError):
        sampled_convert(omega, 0)


_NEAR = Fraction(1, 2**40)


@given(rational_families_st)
# x values 0 and +-2^-40 closer than the point key's 2^-32 resolution: the
# vertex index, and so each hull's input, is ordered by the exact tie-break,
# which puts (0, 2) first in the image of the segment and the point (1, 0).
@example(coll(((0, 2), (_NEAR, 0)), ((1, 0),)))
# The builtin under x -> (x/2 + 1/3, y - 1/5): lifts (X, Y, W) with W of 15
# and 30, whose order is not the order of the points.
@example(affine_image(coll(*OMEGA0), (("1/2", 0), (0, 1)), ("1/3", "-1/5")))
def test_converter_image_is_hull_of_exposed_faces(omega):
    # exposed_face evaluates <v, g> on Fractions, apart from the kernel.
    images = []
    for cell in converter.test_directions(omega):
        g = cell.representative
        faces = [v for member in omega for v in exposed_face(member, g).vertices]
        image = converter_image(omega, g)
        assert image == convex_hull(faces)
        images.append(image)
    assert demyanov_convert(omega) == Collection.of(images)


def assert_three_routes_agree(omega):
    # The fan sweep, the sampled oracle and the brute-force image at every
    # fan-cell representative.
    swept = demyanov_convert(omega)
    assert swept == sampled_convert(omega, representative_bound(omega))
    assert swept == Collection.of(
        converter_image(omega, cell.representative) for cell in converter.test_directions(omega)
    )


@given(mixed_families_st)
# One segment: two opposite rays, each sector a half turn.
@example(coll(((0, 0), (2, 1))))
# A point beside a segment.
@example(coll(((1, 1),), ((0, 0), (0, 2))))
# One ray, (0, -1), normal to an edge of each of three members.
@example(coll(((0, 0), (1, 0), (0, 1)), ((2, 0), (4, 0), (3, 2)), ((-2, 1), (-1, 1))))
def test_fan_sweep_matches_brute_force_routes(omega):
    assert_three_routes_agree(omega)


def test_fan_sweep_of_rayless_family_matches_brute_force_routes():
    omega = coll(((0, 0),), (("1/2", "-1/3"),), ((2, 1),), ((-1, "3/2"),))
    assert_three_routes_agree(omega)
    assert demyanov_convert(omega) == Collection.of(
        [convex_hull(v for member in omega for v in member.vertices)]
    )


def test_vertex_containment_invariant():
    for seed in range(40):
        omega = small_family(seed)
        pool = {v for member in omega for v in member.vertices}
        for image in demyanov_convert(omega):
            assert set(image.vertices) <= pool


def test_oracle_consistency_on_random_families():
    for seed in range(25):
        omega = small_family(seed)
        full = demyanov_convert(omega)
        bound = representative_bound(omega)
        assert sampled_convert(omega, bound) == full
        assert set(sampled_convert(omega, 1).members) <= set(full.members)


def test_sector_representative_choice_is_irrelevant():
    rng = random.Random(20240)
    for seed in range(15):
        omega = small_family(seed)
        expected = demyanov_convert(omega)
        witnesses = []
        for cell in converter.test_directions(omega):
            if len(cell.rays) == 2:
                witnesses.append(interior_witness(cell, rng))
            else:
                witnesses.append(cell.representative)
        rebuilt = Collection.of(converter_image(omega, g) for g in witnesses)
        assert rebuilt == expected


def test_image_constant_inside_each_sector():
    rng = random.Random(555)
    omega = coll(*OMEGA0)
    for cell in converter.test_directions(omega):
        if cell.kind is not CellKind.SECTOR:
            continue
        reference = converter_image(omega, cell.representative)
        for _ in range(10):
            assert converter_image(omega, interior_witness(cell, rng)) == reference


# A failing orbit property reports its generated example at once: each
# shrink step would rerun two whole orbits, holding a failure for minutes.
@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(mixed_families_st, affine_maps_st)
# The vertical mirror on the bundled family, which it maps to itself, and
# on families made symmetric by adding their mirror images.
@example(coll(*OMEGA0), (MIRROR, (0, 0)))
@example(mirror_symmetric(small_family(3)), (MIRROR, (0, 0)))
@example(mirror_symmetric(small_family(11)), (MIRROR, (0, 0)))
def test_orbits_commute_with_affine_maps(omega, phi):
    # For invertible affine phi, demyanov_convert(phi omega) equals
    # phi(demyanov_convert(omega)) (trajectory[1]), so whole orbits map onto
    # each other and share (N, L).
    orbit = iterate_until_cycle(omega, 10_000)
    mapped = iterate_until_cycle(affine_image(omega, *phi), 10_000)
    assert (mapped.preperiod, mapped.cycle_length) == (orbit.preperiod, orbit.cycle_length)
    assert list(mapped.trajectory) == [affine_image(state, *phi) for state in orbit.trajectory]


def test_collection_digest_tracks_equality():
    omega = coll(*OMEGA0)
    again = Collection.of([poly(*vl) for vl in reversed(OMEGA0)])
    assert collection_digest(omega) == collection_digest(again)
    assert collection_digest(omega) != collection_digest(coll(*OMEGA1))


def test_collection_digest_bytes_are_pinned():
    # Frozen digests: lattice coordinates print as ints, rational ones as n/d.
    omega = dm.builtin_counterexample()
    scale = Fraction(2, 3)
    image = affine_image(omega, ((scale, 0), (0, scale)), (Fraction(1, 5), Fraction(-3, 7)))
    assert collection_digest(omega) == (
        "73195852eb46db6f992c9f3cd7d4f5b553fe0ae10746b5e3372048daa707b158"
    )
    assert collection_digest(image) == (
        "0dfd87c8bd9ce0b489d8b7ca32627681000f1aa5a4ba08ba2a1e39adbb472017"
    )
