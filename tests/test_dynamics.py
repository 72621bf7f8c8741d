import random

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from demyanov import (
    Collection,
    Point,
    builtin_counterexample,
    collection_digest,
    converter_image,
    demyanov_convert,
    iterate_until_cycle,
    random_family,
    search_cycles,
    serialize_family,
    verify_claim,
)
from demyanov.cli import cli_dispatch
from demyanov.converter import affine_image, representative_bound, sampled_convert
from demyanov.errors import CapExceededError, GenerationFailedError

from support import (
    MIRROR,
    OMEGA0,
    OMEGA1,
    OMEGA2,
    OMEGA3,
    OMEGA4,
    affine_maps_st,
    coll,
    critical_directions,
    exhauster_value,
    mixed_families,
    poly,
)


def test_builtin_counterexample_members():
    omega = builtin_counterexample()
    assert omega == coll(*OMEGA0)
    assert len(omega) == 4
    with_origin = [m for m in omega if Point(0, 0) in m.vertices]
    assert with_origin == [poly((1, 2), (-1, 2), (0, 0))]
    assert affine_image(omega, MIRROR) == omega


# Three triangles on the builtin's box [-2, 2] x [0, 2], symmetric under
# x -> -x, whose orbit also reaches a cycle of length 4.
THREE_MEMBER_WITNESS = (
    ((-1, 0), (1, 0), (0, 1)),
    ((-2, 1), (-1, 1), (1, 2)),
    ((-1, 2), (1, 1), (2, 1)),
)


def test_three_member_family_reaches_length_four_cycle(tmp_path, capsys):
    omega = coll(*THREE_MEMBER_WITNESS)
    assert affine_image(omega, MIRROR) == omega
    result = iterate_until_cycle(omega, 100)
    assert (result.preperiod, result.cycle_length) == (2, 4)
    assert [len(state) for state in result.trajectory] == [3, 14, 14, 16, 12, 14, 14]
    for state, image in zip(result.trajectory, result.trajectory[1:]):
        assert sampled_convert(state, representative_bound(state)) == image
    assert result.canonical_hashes[2] == (
        "1eea58caeba90c31cd98570168820ab6eba952865e6b70adc705938293567201"
    )
    document = tmp_path / "witness.json"
    document.write_text(serialize_family(omega))
    assert cli_dispatch(["iterate", "--in", str(document)]) == 0
    assert capsys.readouterr().out == "N=2 L=4\n"


def exhauster_values(state, directions):
    return {d: exhauster_value(state, d) for d in directions}


# U_T(omega)(d) = -U_omega(-d) for T = demyanov_convert: the image at -d
# attains -U_omega(-d) at d, and every image holds a point of each member,
# so no image's support at d lies below that. Both sides are piecewise
# linear with breaks on the critical directions of the orbit's first state,
# so checking those checks every d. A failure reports its example unshrunk:
# each shrink step would rerun a whole orbit.
@settings(
    max_examples=50, deadline=None, phases=[phase for phase in Phase if phase is not Phase.shrink]
)
@given(mixed_families(st.integers(-3, 3)), st.none() | affine_maps_st)
@example(builtin_counterexample(), None)
@example(coll(*THREE_MEMBER_WITNESS), None)
def test_converter_reflects_the_exhauster_at_every_step(omega, phi):
    if phi is not None:
        omega = affine_image(omega, *phi)
    trajectory = iterate_until_cycle(omega, 10_000).trajectory
    directions = critical_directions(trajectory[0])
    values = [exhauster_values(state, directions) for state in trajectory]
    for u, u_next in zip(values, values[1:]):
        assert all(u_next[a, b] == -u[-a, -b] for a, b in directions)


def test_odd_cycle_length_forces_an_odd_exhauster():
    # If omega_{j+L} = omega_j with L odd, U_j equals its own reflection,
    # and U_j is U_omega0 or its reflection: U(-d) = -U(d) for every d.
    odd = 0
    for k in range(60):
        omega = random_family(2, 3, 2, seed=k)
        if iterate_until_cycle(omega, 10_000).cycle_length % 2:
            odd += 1
            directions = critical_directions(omega)
            u = exhauster_values(omega, directions)
            assert all(u[-a, -b] == -u[a, b] for a, b in directions), k
    assert odd > 0


def test_builtin_orbit_reaches_length_four_cycle():
    result = iterate_until_cycle(builtin_counterexample(), 100)
    assert result.preperiod == 1
    assert result.cycle_length == 4
    assert len(result.trajectory) == 6
    assert result.trajectory[5] == result.trajectory[1]


def test_builtin_orbit_matches_frozen_iterates():
    result = iterate_until_cycle(builtin_counterexample(), 100)
    expected = [coll(*OMEGA0), coll(*OMEGA1), coll(*OMEGA2), coll(*OMEGA3), coll(*OMEGA4)]
    assert list(result.trajectory[:5]) == expected


def test_builtin_orbit_states_before_repeat_are_pairwise_distinct():
    result = iterate_until_cycle(builtin_counterexample(), 100)
    states = result.trajectory[:5]
    for i in range(5):
        for j in range(i + 1, 5):
            assert states[i] != states[j]


def test_trajectory_hashes_are_canonical_digests():
    result = iterate_until_cycle(builtin_counterexample(), 100)
    assert list(result.canonical_hashes) == [collection_digest(t) for t in result.trajectory]
    assert result.canonical_hashes[5] == result.canonical_hashes[1]


def test_single_point_family_is_fixed():
    result = iterate_until_cycle(coll(((0, 0),)), 10)
    assert (result.preperiod, result.cycle_length) == (0, 1)


def test_segment_family_two_cycle():
    # {segment} -> {segment, both endpoints} -> {segment}: the endpoint
    # singletons force every image back to the full segment.
    segment_family = coll(((2, 0), (-2, 0)))
    expanded = demyanov_convert(segment_family)
    assert len(expanded) == 3
    assert demyanov_convert(expanded) == segment_family
    result = iterate_until_cycle(segment_family, 10)
    assert (result.preperiod, result.cycle_length) == (0, 2)


def test_cap_exceeded_carries_partial_trajectory():
    with pytest.raises(CapExceededError) as err:
        iterate_until_cycle(builtin_counterexample(), 3)
    assert len(err.value.trajectory) == 4
    assert err.value.cap == 3
    with pytest.raises(ValueError):
        iterate_until_cycle(builtin_counterexample(), 0)


def test_verify_claim_passes_and_reports_witness():
    verdict = verify_claim()
    assert verdict.passed
    assert verdict.preperiod == 1
    assert verdict.cycle_length == 4
    assert len(verdict.collections) == 6
    omega2 = verdict.collections[2]
    gained = converter_image(omega2, (1, 2))
    assert set(gained.vertices) == {
        Point(1, 0), Point(-1, 1), Point(1, 2), Point(2, 0), Point(-1, 2),
    }
    base = converter_image(verdict.collections[0], (1, 2))
    assert Point(-1, 2) not in base.vertices


def test_verify_claim_returns_failing_verdict(monkeypatch):
    # The segment family cycles with length 2, so three of the length-4
    # facts fail, and verify_claim returns a verdict that says so.
    monkeypatch.setattr(
        "demyanov.dynamics.builtin_counterexample", lambda: coll(((2, 0), (-2, 0)))
    )
    verdict = verify_claim()
    assert not verdict.passed
    assert [ok for _, ok in verdict.assertions] == [True, False, False, False, True]
    assert verdict.cycle_length == 2


def test_random_family_deterministic_in_seed():
    a = random_family(4, 3, 2, seed=42)
    b = random_family(4, 3, 2, seed=42)
    assert a == b
    assert len(a) == 4
    assert random_family(4, 3, 2, seed=43) != a


def test_random_family_degenerate_parameter_space():
    assert random_family(1, 1, 0, seed=7) == coll(((0, 0),))
    with pytest.raises(GenerationFailedError):
        random_family(3, 1, 0, seed=7)
    for params in ((0, 1, 0), (1, 0, 0), (1, 1, -1)):
        with pytest.raises(ValueError):
            random_family(*params, seed=7)
    # Random(-k) draws the same stream as Random(k).
    with pytest.raises(ValueError):
        random_family(1, 1, 0, seed=-1)


def test_random_family_respects_bounds():
    omega = random_family(4, 4, 3, seed=11)
    for member in omega:
        assert len(member.vertices) <= 4
        for v in member.vertices:
            assert -3 <= v.x <= 3 and -3 <= v.y <= 3


def test_search_cycles_deterministic():
    params = (3, 3, 2)
    a = search_cycles(params, 25, 1000, base_seed=9)
    b = search_cycles(params, 25, 1000, base_seed=9)
    assert a == b
    assert a.instances_run == 25
    assert sum(count for _, count in a.histogram) == 25 - a.cap_exceeded
    assert a.max_l_witness is not None
    assert dict(a.histogram)[a.histogram[-1][0]] >= 1


def test_search_cycles_counts_capped_instances():
    report = search_cycles((3, 4, 3), 20, 4, base_seed=0)
    assert report.cap_exceeded == 3
    assert report.histogram == ((2, 17),)
    assert sum(count for _, count in report.histogram) == (
        report.instances_run - report.cap_exceeded
    )


def test_search_cycles_with_injected_builtin_family():
    report = search_cycles(
        None, 1, 100, base_seed=0, family_source=lambda seed: builtin_counterexample()
    )
    assert report.histogram == ((4, 1),)
    assert report.max_l_witness == builtin_counterexample()
    assert report.cap_exceeded == 0


def test_search_cycles_on_affinely_independent_vertices():
    triangle = ((0, 0), (1, 0), (0, 1))

    def family_source(seed):
        r = random.Random(seed)
        members = []
        for _ in range(r.randint(1, 4)):
            subset = [triangle[i] for i in range(3) if r.random() < 0.6] or [triangle[0]]
            members.append(poly(*subset))
        return Collection.of(members)

    report = search_cycles(None, 40, 100, base_seed=100, family_source=family_source)
    assert set(dict(report.histogram)) <= {1, 2}
    assert report.cap_exceeded == 0


def test_search_cycles_requires_params_or_source():
    with pytest.raises(ValueError):
        search_cycles(None, 5, 100, base_seed=0)
    with pytest.raises(ValueError):
        search_cycles((1, 1, 1), 0, 100, base_seed=0)
