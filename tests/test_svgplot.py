import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripstream.analytics import ForceSeries, sensor_profile
from gripstream.core import Dominance, Hand, Side
from gripstream.ingest import load_sessions, record_session
from gripstream.pipeline import run_plan
from gripstream.simulate import SessionPlan, WAVEFORM_LIFT, get_preset
from gripstream.svgplot import PALETTE, NoDataError, _polyline_points, render_profile_svg

from helpers import mv_session, reference_polyline

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


def force_series(pts) -> ForceSeries:
    ts = np.array([t for t, _ in pts], dtype=np.int64)
    return ForceSeries(1, Hand(Side.RIGHT, Dominance.DOMINANT), "quiet", ts,
                       np.array([v for _, v in pts], dtype=float))


POINT = st.tuples(st.integers(0, 600_000), st.integers(0, 3299))
SERIES = st.one_of(
    st.lists(POINT, max_size=50),
    st.lists(POINT, min_size=1, max_size=1),
    st.builds(lambda t0, v, n: [(t0 + 20 * k, v) for k in range(n)],  # constant
              st.integers(0, 600_000), st.integers(0, 3299), st.integers(1, 50)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(SERIES, min_size=1, max_size=4), st.sampled_from([1, 7, 1000]))
def test_every_points_form_renders_the_reference_polylines(raw, divisor):
    # ints as they are, or floats as forces come
    series = [[(t, v if divisor == 1 else v / divisor) for t, v in pts] for pts in raw]
    forms = [
        [(f"s{i}", pts) for i, pts in enumerate(series)],
        [(f"s{i}", tuple(pts)) for i, pts in enumerate(series)],
        [(f"s{i}", np.array(pts)) for i, pts in enumerate(series)],  # int or float array
        [(f"s{i}", np.array(pts, dtype=float)) for i, pts in enumerate(series)],
        [(f"s{i}", force_series(pts).points) for i, pts in enumerate(series)],
    ]
    if not any(series):
        for form in forms:
            with pytest.raises(NoDataError):
                render_profile_svg(form)
        return
    svg = render_profile_svg(forms[0])
    assert all(render_profile_svg(form) == svg for form in forms[1:])
    drawn = re.findall(r'<polyline points="([^"]*)"', svg)
    assert drawn == [reference_polyline(pts, forms[0]) for _, pts in forms[0] if pts]


# "{:.2f}" rounds the exact binary value half to even, so values next to a .5
# tie of the hundredths are where a rounded 100·x can round the other way.
def near_tie(k: int, step: int) -> float:
    tie = k / 100 + 0.005
    return float(np.nextafter(tie, tie + step)) if step else tie


TIE = st.builds(near_tie, st.integers(0, 10**8), st.sampled_from([-1, 0, 1]))
COORD = st.one_of(
    st.floats(0, 1e6),
    TIE,
    st.floats(2**53 / 100, 1e18),  # past the hundredths guard
    st.sampled_from([0.0, 2**53 / 100, float(np.nextafter(2**53 / 100, 0)), 1e15, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40))
def test_polyline_points_are_what_format_writes(pairs):
    xs, ys = (np.array(column) for column in zip(*pairs))
    assert _polyline_points(xs, ys) == " ".join(f"{x:.2f},{y:.2f}" for x, y in pairs)


def test_points_are_the_stacked_columns_and_draw_as_the_old_pairs(tmp_path):
    assert sensor_profile(mv_session({}), 1).points.shape == (0, 2)
    plan = SessionPlan({Side.LEFT: get_preset("novice")}, duration_s=2.0, seed=6,
                       dominant=Side.LEFT, waveform=WAVEFORM_LIFT)
    record_session(run_plan(plan, subject="p")[Side.LEFT], tmp_path)
    (session,) = load_sessions(tmp_path)
    profiles = [sensor_profile(session, sid) for sid in (2, 3, 4, 5)]
    for profile in profiles:
        points = profile.points
        assert points.dtype == np.float64 and points.shape == (len(profile), 2)
        assert np.array_equal(points, np.column_stack((profile.timestamps_ms, profile.forces_n)))
    pairs = [(f"S{p.sensor}", tuple(zip(p.timestamps_ms.tolist(), p.forces_n.tolist())))
             for p in profiles]
    assert render_profile_svg([(f"S{p.sensor}", p.points) for p in profiles]) == \
        render_profile_svg(pairs)
