from demyanov import builtin_counterexample, demyanov_convert, render_svg
from demyanov.render import PALETTE

from support import coll


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
