import re

import pytest

from gripstream.svgplot import PALETTE, NoDataError, render_profile_svg

RAMP = [(20 * k, 0.5 * k) for k in range(40)]
FLAT = [(20 * k, 4.0) for k in range(40)]


def test_rendering_is_deterministic():
    series = [("left", RAMP), ("right", FLAT)]
    first = render_profile_svg(series, title="session")
    second = render_profile_svg(series, title="session")
    assert first == second
    assert first.startswith('<?xml version="1.0"')
    assert first.endswith("</svg>\n")
    assert 'xmlns="http://www.w3.org/2000/svg"' in first


def test_one_polyline_per_series_and_palette():
    svg = render_profile_svg([("a", RAMP), ("b", FLAT), ("c", RAMP)])
    assert svg.count("<polyline") == 3
    assert svg.count(PALETTE[0]) >= 1 and svg.count(PALETTE[2]) >= 1


def test_empty_series_are_skipped():
    svg = render_profile_svg([("a", RAMP), ("hollow", []), ("c", FLAT)])
    assert svg.count("<polyline") == 2
    assert "hollow" not in svg


def test_all_empty_raises():
    with pytest.raises(NoDataError):
        render_profile_svg([])
    with pytest.raises(NoDataError):
        render_profile_svg([("a", []), ("b", [])])


def test_single_point_gets_a_visible_marker():
    svg = render_profile_svg([("dot", [(1000, 3.0)])])
    assert svg.count("<circle") == 1  # a 1-point polyline alone would be invisible


def test_labels_title_and_escaping():
    svg = render_profile_svg(
        [("a<b & c", RAMP)], y_label="voltage (mV)", title="run <1>"
    )
    assert "a&lt;b &amp; c" in svg
    assert "a<b" not in svg
    assert "run &lt;1&gt;" in svg
    assert "voltage (mV)" in svg
    assert "task time (s)" in svg


def test_constant_series_draws_horizontal_line():
    svg = render_profile_svg([("flat", FLAT)])
    match = re.search(r'<polyline[^>]*points="([^"]+)"', svg)
    assert match is not None
    ys = {point.split(",")[1] for point in match.group(1).split()}
    assert len(ys) == 1
