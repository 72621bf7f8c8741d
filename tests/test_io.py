import json
import sys
import time
from fractions import Fraction

import pytest

from demyanov import builtin_counterexample, parse_family, serialize_family
from demyanov.errors import EmptyInputError, ParseError

from support import coll, poly, wide_denominator_points

_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

BUILTIN_TEXT = (
    '{"version":"1","polytopes":[[["-2","0"],["2","0"]],'
    '[["-1","0"],["1","0"],["-1","1"]],'
    '[["-1","0"],["1","0"],["1","1"]],'
    '[["-1","2"],["0","0"],["1","2"]]]}\n'
)


def test_serialize_builtin_family_golden():
    assert serialize_family(builtin_counterexample()) == BUILTIN_TEXT


def test_parse_builtin_document():
    doc = json.dumps(
        {
            "version": "1",
            "polytopes": [
                [["1", "0"], ["1", "1"], ["-1", "0"]],
                [["-1", "0"], ["-1", "1"], ["1", "0"]],
                [["1", "2"], ["-1", "2"], ["0", "0"]],
                [["2", "0"], ["-2", "0"]],
            ],
        }
    )
    assert parse_family(doc) == builtin_counterexample()


def test_round_trip_is_identity():
    omega = builtin_counterexample()
    assert parse_family(serialize_family(omega)) == omega


def test_serialization_deterministic_for_equal_collections():
    a = coll(((0, 0), (1, 0), (1, 1)), ((2, 2),))
    b = coll(((2, 2),), ((1, 1), (0, 0), (1, 0)))
    assert serialize_family(a) == serialize_family(b)


def test_parse_hulls_non_canonical_input():
    doc = '{"version":"1","polytopes":[[["0","0"],["2","0"],["1","0"]]]}'
    assert parse_family(doc) == coll(((0, 0), (2, 0)))


def test_parse_exact_rational_coordinates():
    doc = '{"version":"1","polytopes":[[["1/2","-2/3"]]]}'
    omega = parse_family(doc)
    vertex = omega.members[0].vertices[0]
    assert vertex.x == Fraction(1, 2)
    assert vertex.y == Fraction(-2, 3)


def test_parse_dedupes_members():
    doc = '{"version":"1","polytopes":[[["0","0"]],[["0","0"]]]}'
    assert len(parse_family(doc)) == 1


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_family('{"version":"1",\n  "polytopes": [[[')
    assert err.value.line is not None
    assert err.value.column is not None


def test_parse_rejects_zero_polytopes():
    with pytest.raises(EmptyInputError):
        parse_family('{"version":"1","polytopes":[]}')


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"polytopes":[[["0","0"]]]}',
        '{"version":"2","polytopes":[[["0","0"]]]}',
        '{"version":"1","polytopes":{}}',
        '{"version":"1","polytopes":[[]]}',
        '{"version":"1","polytopes":[[["0"]]]}',
        '{"version":"1","polytopes":[[["0","0","0"]]]}',
        '{"version":"1","polytopes":[[[0,"0"]]]}',
        '{"version":"1","polytopes":[[["0.5","0"]]]}',
        '{"version":"1","polytopes":[[["1/0","0"]]]}',
        '{"version":"1","polytopes":[[["1e3","0"]]]}',
    ],
)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        parse_family(doc)


def test_round_trip_preserves_fractions():
    omega = coll((("1/2", "1/3"), ("5/2", "0"), ("1/2", "7/3")))
    assert parse_family(serialize_family(omega)) == omega


def test_parse_cost_is_bounded_on_large_denominators():
    points = wide_denominator_points(3000)
    text = json.dumps({"version": "1", "polytopes": [[[str(p.x), str(p.y)] for p in points]]})
    started = time.perf_counter()
    omega = parse_family(text)
    assert time.perf_counter() - started < 5
    assert set(omega.members[0].vertices) <= set(points)


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="interpreter has no limit on integer digits")
def test_parse_cost_is_bounded_on_digit_limit_fibonacci_ratios():
    # Consecutive Fibonacci numbers are the worst case of Euclid's
    # algorithm; their ratios, at one digit under the limit, all lie within
    # far less than 2**-32 of the golden ratio. About 1 MB of them.
    fib, bound = [1, 2], 10 ** (_DIGIT_LIMIT - 1)
    while fib[-1] + fib[-2] < bound:
        fib.append(fib[-1] + fib[-2])
    assert len(str(fib[-1])) == _DIGIT_LIMIT - 1
    ratios = [f"{b}/{a}" for a, b in zip(fib[-62:], fib[-61:])]
    polytopes = [[ratios[i:i + 2] for i in range(j, j + 4)] for j in range(0, 60, 4)]
    text = json.dumps({"version": "1", "polytopes": polytopes})
    assert len(text) > 10**6
    started = time.perf_counter()
    omega = parse_family(text)
    assert time.perf_counter() - started < 2
    assert len(omega) == 15
