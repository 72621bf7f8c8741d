import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import demyanov as dm
from demyanov import (
    Collection,
    Direction,
    collection_digest,
    convex_hull,
    converter_image,
    demyanov_convert,
    exposed_face,
    sampled_convert,
)
from demyanov import converter
from demyanov.converter import (
    CellKind,
    edge_normals,
    fan_rays,
    reflect_collection,
    representative_bound,
    sector_representative,
)
from demyanov.errors import EmptyInputError, FanInvariantError
from demyanov.geometry import reflect_y

from support import OMEGA0, OMEGA1, P1, P4, TABLE_OMEGA0, coll, direction, poly, pt, vertex_set

coords_st = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
members_st = st.lists(st.builds(pt, coords_st, coords_st), min_size=1, max_size=5).map(convex_hull)
rational_families_st = st.lists(members_st, min_size=1, max_size=4).map(Collection.of)


def small_family(seed):
    r = random.Random(seed)
    return dm.random_family(r.randint(1, 4), 4, 3, seed=seed + 7919)


def interior_witness(cell, rng):
    start, end = cell.bounds
    if end == start.opposite():
        # Half-plane sector: positive normal component, any tangential one.
        normal = start.rotated_ccw()
        lam, mu = rng.randint(-9, 9), rng.randint(1, 9)
    else:
        lam, mu = rng.randint(1, 9), rng.randint(1, 9)
        normal = end
    return Direction(lam * start.a + mu * normal.a, lam * start.b + mu * normal.b)


def test_collection_of_dedupes_and_sorts():
    a = poly((0, 0))
    b = poly((1, 1))
    omega = Collection.of([b, a, b, a])
    assert omega.members == (a, b)
    assert len(omega) == 2
    assert a in omega


def test_collection_rejects_empty_and_unsorted():
    with pytest.raises(EmptyInputError):
        Collection.of([])
    a = poly((0, 0))
    b = poly((1, 1))
    with pytest.raises(ValueError):
        Collection((b, a))
    with pytest.raises(ValueError):
        Collection((a, a))


def test_edge_normals_of_triangle():
    assert edge_normals(poly(*P1)) == {Direction(0, -1), Direction(1, 0), Direction(-1, 2)}


def test_edge_normals_of_segment_and_point():
    assert edge_normals(poly(*P4)) == {Direction(0, 1), Direction(0, -1)}
    assert edge_normals(poly((0, 0))) == frozenset()


def test_fan_rays_of_builtin_family_in_ccw_order():
    omega = coll(*OMEGA0)
    assert fan_rays(omega) == [
        Direction(1, 0),
        Direction(1, 2),
        Direction(0, 1),
        Direction(-1, 2),
        Direction(-1, 0),
        Direction(-2, -1),
        Direction(0, -1),
        Direction(2, -1),
    ]


def test_fan_rays_of_points_and_segment():
    assert fan_rays(coll(((0, 0),), ((1, 1),))) == []
    assert fan_rays(coll(P4)) == [Direction(0, 1), Direction(0, -1)]


def test_sector_representative_examples():
    assert sector_representative(Direction(0, -1), Direction(2, -1)) == Direction(1, -1)
    assert sector_representative(Direction(1, 0), Direction(-1, 0)) == Direction(0, 1)
    assert sector_representative(Direction(2, -1), Direction(1, 0)) == Direction(3, -1)


def test_sector_representative_rejects_degenerate_and_reflex():
    with pytest.raises(FanInvariantError):
        sector_representative(Direction(1, 0), Direction(2, 0))
    with pytest.raises(FanInvariantError):
        sector_representative(Direction(1, 0), Direction(0, -1))


def test_test_directions_cell_counts():
    cells = converter.test_directions(coll(*OMEGA0))
    assert len(cells) == 16
    assert sum(1 for c in cells if c.kind is CellKind.RAY) == 8
    assert sum(1 for c in cells if c.kind is CellKind.SECTOR) == 8


def test_test_directions_of_point_family_is_single_sector():
    cells = converter.test_directions(coll(((0, 0),), ((1, 1),)))
    assert len(cells) == 1
    assert cells[0].kind is CellKind.SECTOR
    assert cells[0].bounds == ()
    assert cells[0].representative == Direction(1, 0)


def test_test_directions_of_segment_family():
    cells = converter.test_directions(coll(P4))
    rays = {c.representative for c in cells if c.kind is CellKind.RAY}
    sectors = {c.representative for c in cells if c.kind is CellKind.SECTOR}
    assert rays == {Direction(0, 1), Direction(0, -1)}
    assert sectors == {Direction(1, 0), Direction(-1, 0)}


def test_converter_image_matches_case_table():
    omega = coll(*OMEGA0)
    for raw, expected in TABLE_OMEGA0:
        image = converter_image(omega, direction(raw))
        assert vertex_set(image) == {(x, y) for x, y in expected}, raw


def test_converter_image_on_second_iterate_along_x_axis():
    omega1 = demyanov_convert(coll(*OMEGA0))
    image = converter_image(omega1, Direction(1, 0))
    assert vertex_set(image) == {(-1, 0), (-1, 2), (2, 0), (1, 1)}


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


@given(rational_families_st)
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
            if cell.kind is CellKind.SECTOR and cell.bounds:
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


def test_symmetry_equivariance():
    omega = coll(*OMEGA0)
    assert reflect_collection(omega) == omega
    image = demyanov_convert(omega)
    assert reflect_collection(image) == image
    for seed in range(20):
        base = small_family(seed)
        symmetric = Collection.of(
            list(base.members) + [reflect_y(m) for m in base.members]
        )
        converted = demyanov_convert(symmetric)
        assert reflect_collection(converted) == converted


def test_collection_digest_tracks_equality():
    omega = coll(*OMEGA0)
    again = Collection.of([poly(*vl) for vl in reversed(OMEGA0)])
    assert collection_digest(omega) == collection_digest(again)
    assert collection_digest(omega) != collection_digest(coll(*OMEGA1))
