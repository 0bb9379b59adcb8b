import io
import math

import pytest

from expcross.errors import DomainError
from expcross.figures import FIGURE_NAMES, CurveSample, custom_samples, figure_samples, write_csv
from expcross.intersect import TANGENT_BASE


def series_of(rows: list[CurveSample], label: str) -> list[CurveSample]:
    return [r for r in rows if r.series_label == label]


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_series_are_finite_and_strictly_increasing(name):
    rows = figure_samples(name)
    labels = {r.series_label for r in rows}
    for label in labels:
        series = series_of(rows, label)
        assert all(math.isfinite(r.x) and math.isfinite(r.y) for r in series)
        assert all(a.x < b.x for a, b in zip(series, series[1:])), (name, label)


def test_fig1_has_no_intersection_marker():
    rows = figure_samples("fig1")
    assert series_of(rows, "point") == []
    assert {r.series_label for r in rows} == {"exp", "log", "bisectrix"}


def test_fig2_minimum_marker():
    rows = figure_samples("fig2")
    (marker,) = series_of(rows, "point")
    assert marker.x == -1.0
    assert marker.y == pytest.approx(-0.367879, abs=5e-7)
    curve = series_of(rows, "curve")
    low = min(curve, key=lambda r: r.y)
    assert low.y == pytest.approx(-1 / math.e, abs=1e-4)
    assert low.x == pytest.approx(-1.0, abs=1e-2)


def test_fig3_single_marker():
    rows = figure_samples("fig3")
    (marker,) = series_of(rows, "point")
    assert marker.x == pytest.approx(0.83, abs=0.005)


def test_fig4_two_markers():
    markers = series_of(figure_samples("fig4"), "point")
    assert len(markers) == 2
    assert markers[0].x == pytest.approx(1.47, abs=0.005)
    assert markers[1].x == pytest.approx(7.86, abs=0.005)


def test_fig5_tangency_marker():
    (marker,) = series_of(figure_samples("fig5"), "point")
    assert marker.x == pytest.approx(math.e, abs=1e-9)
    assert marker.y == pytest.approx(math.e, abs=1e-9)


def test_unknown_figure():
    with pytest.raises(DomainError):
        figure_samples("fig9")


def test_sample_count_is_respected():
    rows = figure_samples("fig2", samples=50)
    assert len(series_of(rows, "curve")) == 50


def test_too_few_samples():
    with pytest.raises(DomainError):
        figure_samples("fig2", samples=1)


def test_custom_window_from_points():
    rows = custom_samples(0.5)
    (marker,) = series_of(rows, "point")
    assert 0.0 < marker.x < 1.0


def test_custom_no_points_for_large_base():
    rows = custom_samples(2.0)
    assert series_of(rows, "point") == []
    # exponential series stays within plottable range
    assert max(r.y for r in series_of(rows, "exp")) <= 1e6


def test_custom_tiny_base_drops_overflowing_samples():
    rows = custom_samples(1e-200)
    assert series_of(rows, "exp")
    assert all(math.isfinite(r.x) and math.isfinite(r.y) for r in rows)


def test_custom_large_base_clamp_below_window_empties_exp_series():
    # ln(1e6)/ln(1e10) = 0.6 < x_min: no x in [2, 5] has b**x <= 1e6
    rows = custom_samples(1e10, 2.0, 5.0, 10)
    assert series_of(rows, "exp") == []
    assert all(2.0 <= r.x <= 5.0 for r in rows)
    assert len(series_of(rows, "log")) == len(series_of(rows, "bisectrix")) == 10


def test_custom_small_base_clamps_low_end_of_exp_series():
    # b**x <= 1e6 from x = ln(1e6)/ln(0.5) = -19.93... up
    rows = custom_samples(0.5, -1e6, 5.0, 10)
    exp = series_of(rows, "exp")
    assert len(exp) == 10
    assert exp[0].x == pytest.approx(math.log(1e6) / math.log(0.5)) and exp[-1].x == 5.0
    assert all(r.y <= 1e6 for r in exp)


def test_custom_rejects_empty_window():
    with pytest.raises(DomainError):
        custom_samples(1.3, x_min=5.0, x_max=1.0)


@pytest.mark.parametrize(
    "window", [(-2.0, math.inf), (-math.inf, 5.0), (-1e308, 1e308), (0.0, math.nan)]
)
def test_custom_rejects_infinite_window(window):
    # (-1e308, 1e308) has finite ends but a width that overflows
    with pytest.raises(DomainError):
        custom_samples(0.5, *window)


def test_write_csv_round_trips():
    rows = figure_samples("fig4", samples=10)
    buffer = io.StringIO()
    write_csv(rows, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "x,y,series_label"
    assert len(lines) == len(rows) + 1
    x, y, label = lines[1].split(",")
    assert float(x) == rows[0].x
    assert float(y) == rows[0].y
    assert label == rows[0].series_label
