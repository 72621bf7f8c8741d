import hashlib
from fractions import Fraction

from hypothesis import example, given, strategies as st

from demyanov import builtin_counterexample, demyanov_convert, render_svg
from demyanov.converter import affine_image
from demyanov.render import MARGIN, PALETTE, PANEL_SIZE, PER_ROW, _fixed_point

from support import (
    coll,
    mixed_families,
    reference_canvas_points,
    reference_fmt,
    reference_render_svg,
)

# Coordinates land exactly half a unit of the 4th decimal past a
# multiple of 1e-4 on the canvas, where rounding half up decides: the
# spans are 128 px = 128 units, so the scale is 1 and the offsets survive
# unscaled, toward the left (x), right (-x) and bottom (y) of the panel.
HALF_UP_TIES = (
    coll(((0, 0), (128, 0)), ((Fraction(1, 20000), 0),)),
    coll(((-128, 0), (0, 0)), ((Fraction(-1, 20000), 0),)),
    coll(
        ((0, -128), (0, 0)),
        ((0, Fraction(-3, 20000)),),
        ((Fraction(-7, 3), Fraction(-9, 20000)),),
    ),
)


def test_render_builtin_family_has_four_panels():
    svg = render_svg(builtin_counterexample())
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.count('<g class="panel">') == 4
    assert svg.count("<path") == 4  # three filled triangles and one segment
    assert 'fill="none"' in svg
    assert svg.endswith("</svg>\n")


def test_render_first_iterate_has_twelve_panels():
    svg = render_svg(demyanov_convert(builtin_counterexample()))
    assert svg.count('<g class="panel">') == 12


def test_render_single_point_is_one_disk():
    svg = render_svg(coll(((1, 1),)))
    assert svg.count('<g class="panel">') == 1
    assert svg.count("<circle") == 1
    assert "<path" not in svg


def test_render_is_deterministic():
    omega = demyanov_convert(builtin_counterexample())
    assert render_svg(omega) == render_svg(omega)


def test_render_layout_follows_spec():
    # The layout is fixed: 160 px panels, four to a row.
    svg = render_svg(builtin_counterexample())
    assert 'width="640" height="160"' in svg
    assert 'viewBox="0 0 640 160"' in svg
    svg = render_svg(demyanov_convert(builtin_counterexample()))
    assert 'width="640" height="480"' in svg
    assert 'viewBox="0 0 640 480"' in svg


def test_render_style_indices_select_palette_entries():
    # Member i is drawn in PALETTE[i % 6], so twelve members use each stroke twice.
    svg = render_svg(demyanov_convert(builtin_counterexample()))
    for _, stroke in PALETTE:
        assert svg.count(f'stroke="{stroke}"') == 2


def is_half_up_tie(c):
    return (c * 20000).denominator == 1 and (c * 20000) % 2 == 1


def test_tie_examples_land_on_ties():
    for omega in HALF_UP_TIES:
        coordinates = [c for panel in reference_canvas_points(omega) for p in panel for c in p]
        assert any(map(is_half_up_tie, coordinates))


RENDER_EXAMPLES = (
    coll(((Fraction(-3, 7), Fraction(5, 2)),)),  # a single point: the span is 0
    coll(((Fraction(-1, 2), -3), (Fraction(5, 3), 1)), ((-2, 0), (1, Fraction(-1, 3)))),
    coll(((0, -40), (1, 40)), ((Fraction(1, 3), 0), (Fraction(-2, 3), 1), (0, 2))),  # tall
    coll(((-40, 0), (40, Fraction(1, 7))), ((Fraction(-5, 9), 0),)),  # wide
    *HALF_UP_TIES,
)


def render_families(test):
    """Run the test on mixed rational families and on RENDER_EXAMPLES."""
    for omega in reversed(RENDER_EXAMPLES):
        test = example(omega)(test)
    return given(mixed_families(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))))(test)


@render_families
def test_render_matches_fraction_reference(omega):
    # The int route through the vertex lifts against the Fraction route
    # through the coordinates, and the panel layout is blind to a positive
    # scaling and translation of the whole family.
    svg = render_svg(omega)
    assert svg == reference_render_svg(omega)
    c, t = Fraction(7, 3), (Fraction(-5, 2), Fraction(1, 9))
    assert render_svg(affine_image(omega, ((c, 0), (0, c)), t)) == svg


@render_families
def test_canvas_offsets_lie_within_the_panel_margin(omega):
    # render_svg rounds each vertex's offset inside its panel once and adds
    # the panel origin to the whole part; that equals rounding the sum
    # only because every offset is positive, here at least MARGIN.
    for i, points in enumerate(reference_canvas_points(omega)):
        panel_x, panel_y = (i % PER_ROW) * PANEL_SIZE, (i // PER_ROW) * PANEL_SIZE
        for x, y in points:
            assert MARGIN <= x - panel_x <= PANEL_SIZE - MARGIN
            assert MARGIN <= y - panel_y <= PANEL_SIZE - MARGIN


def test_fixed_point_rounds_unreduced_non_negative_pairs_half_up():
    # Whole part plus an integer origin, then the ".dddd" text: the
    # rounding of the value moved by that origin.
    for num in range(301):
        value = Fraction(num, 20000)
        for k in (1, 3, 10**30):
            whole, frac = _fixed_point(num * k, 20000 * k)
            for origin in (0, PANEL_SIZE, 2 * PANEL_SIZE):
                assert f"{whole + origin}{frac}" == reference_fmt(value + origin)
    assert (_fixed_point(1, 20000), _fixed_point(3, 20000)) == ((0, ".0001"), (0, ".0002"))
    assert (_fixed_point(1, 20001), _fixed_point(320_000, 20_000)) == ((0, ""), (16, ""))


def test_render_bytes_are_pinned():
    # Frozen SVG digests. The layout scales and centres the bounding box, so
    # the similar image renders to the same bytes; the sheared one does not.
    omega = builtin_counterexample()
    scale = Fraction(2, 3)
    similar = affine_image(omega, ((scale, 0), (0, scale)), (Fraction(1, 5), Fraction(-3, 7)))
    sheared = affine_image(omega, ((scale, Fraction(1, 5)), (0, Fraction(-3, 7))))

    def digest(o):
        return hashlib.sha256(render_svg(o).encode()).hexdigest()

    assert digest(omega) == "12cd7cbfb508bafb622e47471422225f13ea501de63829b8677eb7b3c0009a80"
    assert digest(similar) == "12cd7cbfb508bafb622e47471422225f13ea501de63829b8677eb7b3c0009a80"
    assert digest(sheared) == "f896199a3987632d00c9bcb5d3a6d66774660fd54f2a78a6aa646076e4f90843"
    # The first iterate: 12 panels in 3 rows, so the panel origins move
    # both coordinates. Its similar image draws the same bytes.
    converted = demyanov_convert(omega)
    similar = affine_image(converted, ((scale, 0), (0, scale)), (Fraction(1, 5), Fraction(-3, 7)))
    assert digest(converted) == "2e9cbf7284a727ee88cef9e2f642a3abfd9459f428dee599d41500b42d736d49"
    assert digest(similar) == "2e9cbf7284a727ee88cef9e2f642a3abfd9459f428dee599d41500b42d736d49"
