import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from demyanov import (
    Collection,
    Point,
    builtin_counterexample,
    convex_hull,
    parse_family,
    render_svg,
    serialize_family,
)
from demyanov.converter import affine_image
from demyanov.familyio import _parse_rational
from demyanov.geometry import _RATIONAL_RE

from support import coll, mixed_families, poly, wide_denominator_points

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
    with pytest.raises(ValueError) as err:
        parse_family('{"version":"1",\n  "polytopes": [[[')
    assert str(err.value) == "invalid JSON: Expecting value (line 2, column 19)"


# Each malformed document fails with its own exact text, so no stray
# ValueError from inside the parser can pass for a document error.
MALFORMED = {
    "[]": "document root must be an object",
    '{"polytopes":[[["0","0"]]]}': "unsupported format version: None",
    '{"version":"2","polytopes":[[["0","0"]]]}': "unsupported format version: '2'",
    '{"version":"1","polytopes":{}}': "'polytopes' must be a list of vertex lists",
    '{"version":"1","polytopes":[]}': "document contains no polytopes",
    '{"version":"1","polytopes":[[]]}': "polytope 0: vertex list must be a nonempty list",
    '{"version":"1","polytopes":[[["0"]]]}': "polytope 0 vertex 0: expected an [x, y] pair",
    '{"version":"1","polytopes":[[["0","0","0"]]]}': "polytope 0 vertex 0: expected an [x, y] pair",
    '{"version":"1","polytopes":[[[0,"0"]]]}': (
        "polytope 0 vertex 0: coordinate must be a string, got int"
    ),
    '{"version":"1","polytopes":[[["0.5","0"]]]}': (
        "polytope 0 vertex 0: '0.5' is not an integer or p/q rational literal"
    ),
    '{"version":"1","polytopes":[[["1/0","0"]]]}': "polytope 0 vertex 0: zero denominator in '1/0'",
    '{"version":"1","polytopes":[[["1e3","0"]]]}': (
        "polytope 0 vertex 0: '1e3' is not an integer or p/q rational literal"
    ),
}


@pytest.mark.parametrize("doc", MALFORMED)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(ValueError) as err:
        parse_family(doc)
    assert str(err.value) == MALFORMED[doc]


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


def fibonacci_ratio_document():
    # Consecutive Fibonacci numbers are the worst case of Euclid's
    # algorithm; their ratios, at one digit under the limit, all lie within
    # far less than 2**-32 of the golden ratio. About 1 MB of them.
    fib, bound = [1, 2], 10 ** (_DIGIT_LIMIT - 1)
    while fib[-1] + fib[-2] < bound:
        fib.append(fib[-1] + fib[-2])
    assert len(str(fib[-1])) == _DIGIT_LIMIT - 1
    ratios = [f"{b}/{a}" for a, b in zip(fib[-62:], fib[-61:])]
    polytopes = [[ratios[i:i + 2] for i in range(j, j + 4)] for j in range(0, 60, 4)]
    return json.dumps({"version": "1", "polytopes": polytopes})


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="interpreter has no limit on integer digits")
def test_parse_cost_is_bounded_on_digit_limit_fibonacci_ratios():
    text = fibonacci_ratio_document()
    assert len(text) > 10**6
    started = time.perf_counter()
    omega = parse_family(text)
    assert time.perf_counter() - started < 2
    assert len(omega) == 15


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="interpreter has no limit on integer digits")
def test_render_cost_is_bounded_on_digit_limit_fibonacci_ratios():
    omega = parse_family(fibonacci_ratio_document())
    started = time.perf_counter()
    svg = render_svg(omega)
    assert time.perf_counter() - started < 2
    assert svg.count('<g class="panel">') == 15


def test_render_cost_is_bounded_on_large_denominators():
    points = wide_denominator_points(3000)
    omega = Collection.of(convex_hull(points[k : k + 3]) for k in range(0, 3000, 3))
    started = time.perf_counter()
    svg = render_svg(omega)
    assert time.perf_counter() - started < 2
    assert svg.count('<g class="panel">') == len(omega)


# Literals _RATIONAL_RE accepts: a sign, leading zeros, and parts up to
# just past the interpreter's digit limit (or the default one, 4300, where
# none is set).
_LIMIT = _DIGIT_LIMIT or 4300
_parts_st = st.builds(
    lambda zeros, digits: "0" * zeros + digits,
    st.integers(0, 3),
    st.one_of(
        st.integers(0, 10**6).map(str),
        st.integers(_LIMIT - 6, _LIMIT + 2).map(lambda n: "7" * n),
    ),
)
literals_st = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-"]),
    _parts_st,
    st.none() | _parts_st,
)


@given(literals_st)
@example("-0")
@example("0/7")
@example("-0/7")
@example("6/4")
@example("-006/0004")
@example("1/0")
@example("-00/000")
@example("1" * _LIMIT)
@example("-" + "1" * _LIMIT + "/" + "3" * _LIMIT)
@example("0" + "1" * _LIMIT)
@example("1/" + "2" * (_LIMIT + 1))
def test_parse_rational_agrees_with_fraction_literals(raw):
    # Either both routes give the same rational, or Fraction's own parser
    # fails and the document parser reports the same cause, naming the vertex.
    # A Point string goes through the same reader: it gives the same value,
    # or a ValueError with the same text minus the vertex name.
    assert _RATIONAL_RE.match(raw)
    try:
        expected = Fraction(raw)
    except ZeroDivisionError:
        text = f"zero denominator in {raw!r}"
    except ValueError:
        text = "literal exceeds the integer digit limit"
    else:
        assert _parse_rational(raw, "w", {}) == expected
        assert Point(raw, 0).x == expected
        return
    with pytest.raises(ValueError) as err:
        _parse_rational(raw, "w", {})
    assert str(err.value) == "w: " + text
    with pytest.raises(ValueError) as err:
        Point(raw, 0)
    assert str(err.value) == text


def test_parse_error_text_for_zero_denominator():
    with pytest.raises(ValueError) as err:
        parse_family('{"version":"1","polytopes":[[["0","0"]],[["3","-4/00"]]]}')
    assert str(err.value) == "polytope 1 vertex 0: zero denominator in '-4/00'"


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="interpreter has no limit on integer digits")
def test_parse_error_text_for_digit_limit():
    literal = "1/" + "9" * (_DIGIT_LIMIT + 1)
    with pytest.raises(ValueError) as err:
        parse_family(json.dumps({"version": "1", "polytopes": [[["0", "0"], ["2", literal]]]}))
    assert str(err.value) == "polytope 0 vertex 1: literal exceeds the integer digit limit"


def equivalent_literal(data, c):
    # c written as (k n)/(k d), with leading zeros and, for zero, maybe "-0".
    k = data.draw(st.integers(1, 3))
    num, den = abs(c.numerator) * k, c.denominator * k
    sign = "-" if c < 0 or (c == 0 and data.draw(st.booleans())) else ""
    zeros = "0" * data.draw(st.integers(0, 2))
    if den == 1 and data.draw(st.booleans()):
        return f"{sign}{zeros}{num}"
    return f"{sign}{zeros}{num}/{den}"


@given(mixed_families(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))), st.data())
def test_parse_is_invariant_under_equivalent_documents(omega, data):
    # Repeat vertices, shuffle each member's vertices and the members, and
    # write every coordinate in some equivalent form: the family is the same.
    polytopes = []
    for member in omega.members:
        vertices = list(member.vertices)
        vertices += data.draw(st.lists(st.sampled_from(vertices), max_size=4))
        vertices = data.draw(st.permutations(vertices))
        polytopes.append(
            [[equivalent_literal(data, v.x), equivalent_literal(data, v.y)] for v in vertices]
        )
    polytopes = data.draw(st.permutations(polytopes))
    assert parse_family(json.dumps({"version": "1", "polytopes": polytopes})) == omega


def test_parse_shares_one_point_per_literal_pair():
    doc = (
        '{"version":"1","polytopes":[[["0","0"],["1/2","1"]],'
        '[["1/2","1"],["0","0"],["2","0"]],[["0","0"]]]}'
    )
    omega = parse_family(doc)
    vertices = [v for member in omega for v in member.vertices]
    assert len(vertices) == 6
    assert len({id(v) for v in vertices}) == 3
    origin = [v for v in vertices if v == Point(0, 0)]
    assert len(origin) == 3 and origin[0] is origin[1] is origin[2]


def test_parse_shares_one_fraction_per_coordinate_literal():
    # Equal literals in different pairs, and in x and y, give one Fraction.
    omega = parse_family('{"version":"1","polytopes":[[["1/2","1/3"],["1/3","1/2"],["1/2","2"]]]}')
    point = {(v.x, v.y): v for v in omega.members[0].vertices}
    half, third = Fraction(1, 2), Fraction(1, 3)
    a, b, c = point[half, third], point[third, half], point[half, 2]
    assert a.x is c.x is b.y and a.y is b.x


def test_parsed_family_equals_its_source_without_fraction_compares(monkeypatch):
    # The builtin under x -> (2/3)x + (1/5, -3/7): every coordinate is p/q,
    # and parsing builds new Fractions and Points for them all. Equality
    # compares the Points' integer lifts, never a Fraction.
    omega = affine_image(builtin_counterexample(), (("2/3", 0), (0, "2/3")), ("1/5", "-3/7"))
    calls = []
    compare = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(1) or compare(a, b))
    assert parse_family(serialize_family(omega)) == omega
    assert calls == []


@pytest.mark.parametrize(
    "polytopes, message",
    [
        # A bad literal is reported where it first occurs.
        (
            '[[["0","0"]],[["1","0"],["x","1"]],[["x","1"]]]',
            "polytope 1 vertex 1: 'x' is not an integer or p/q rational literal",
        ),
        (
            '[[["0","0"]],[["1/0","0"]],[["1/0","0"]]]',
            "polytope 1 vertex 0: zero denominator in '1/0'",
        ),
        # A literal read into the memo is read no further on: it fails at
        # the vertex where it first occurs, even when it recurs in other pairs.
        (
            '[[["0","0"]],[["1","1"],["2","0"],["1/0","3"],["1/0","4"]],[["1/0","0"]]]',
            "polytope 1 vertex 2: zero denominator in '1/0'",
        ),
        (
            '[[["0","0"]],[["1","1"],["2","0"],["4","abc"],["abc","3"]],[["abc","0"]]]',
            "polytope 1 vertex 2: 'abc' is not an integer or p/q rational literal",
        ),
        # A pair that is not two strings never reaches the memo, hashable or not.
        ('[[[["0"],"0"]]]', "polytope 0 vertex 0: coordinate must be a string, got list"),
        ('[[["0",["0"]]]]', "polytope 0 vertex 0: coordinate must be a string, got list"),
        ('[[[0,"0"]]]', "polytope 0 vertex 0: coordinate must be a string, got int"),
        ('[[["0","0"]],[[0,"0"]]]', "polytope 1 vertex 0: coordinate must be a string, got int"),
        # The literal "1" is in the memo, yet the int 1 is still no string.
        ('[[["1","2"],[1,"2"]]]', "polytope 0 vertex 1: coordinate must be a string, got int"),
        # x is read in full before y is looked at.
        (
            '[[["0.5",0]]]',
            "polytope 0 vertex 0: '0.5' is not an integer or p/q rational literal",
        ),
    ],
    ids=[
        "bad-literal",
        "zero-denominator",
        "zero-denominator-recurring",
        "bad-literal-recurring",
        "list-x",
        "list-y",
        "int-x",
        "int-x-after-hit",
        "int-x-after-equal-string",
        "bad-x-before-int-y",
    ],
)
def test_parse_error_text_names_first_bad_occurrence(polytopes, message):
    with pytest.raises(ValueError) as err:
        parse_family('{"version":"1","polytopes":' + polytopes + "}")
    assert str(err.value) == message
