import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfatigue.errors import CsvFormatError, InsufficientDataError, InvalidInputError
from sigfatigue.windowing import (
    NormalizedPath,
    SeriesPoint,
    TimeSeries,
    normalize_window,
    normalize_window_pair,
    read_series_csv,
    window_pairs,
    write_series_csv,
)

from conftest import START, series_from_ctr


def make_points(values, dates=None):
    dates = dates or [START + dt.timedelta(days=i) for i in range(len(values))]
    return [
        SeriesPoint(date=d, impressions=100_000, clicks=int(round(100_000 * v)))
        for d, v in zip(dates, values)
    ]


class TestSeriesPoint:
    def test_ctr_is_derived(self):
        p = SeriesPoint(date=START, impressions=10_000, clicks=150)
        assert p.ctr == 150 / 10_000

    def test_rejects_zero_impressions(self):
        with pytest.raises(InvalidInputError):
            SeriesPoint(date=START, impressions=0, clicks=0)

    def test_rejects_clicks_above_impressions(self):
        with pytest.raises(InvalidInputError):
            SeriesPoint(date=START, impressions=10, clicks=11)

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidInputError):
            SeriesPoint(date=START, impressions=10, clicks=1, cost=-1.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_rejects_non_finite_cost(self, cost):
        with pytest.raises(InvalidInputError, match="finite"):
            SeriesPoint(date=START, impressions=10, clicks=1, cost=cost)

    def test_metric_selector(self):
        p = SeriesPoint(date=START, impressions=200, clicks=30, cost=12.0)
        assert p.metric("ctr") == 0.15
        assert p.metric("clicks") == 30.0
        assert p.metric("impressions") == 200.0
        assert p.metric("cost") == 12.0
        with pytest.raises(InvalidInputError):
            p.metric("cpm")


class TestTimeSeries:
    def test_requires_strictly_increasing_dates(self):
        pts = make_points([0.01, 0.02])
        with pytest.raises(InvalidInputError):
            TimeSeries(points=(pts[1], pts[0]))

    def test_requires_at_least_one_point(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(points=())

    def test_gaps_are_permitted(self):
        dates = [START, START + dt.timedelta(days=1), START + dt.timedelta(days=5)]
        series = TimeSeries(points=tuple(make_points([0.01, 0.02, 0.03], dates)))
        np.testing.assert_array_equal(series.day_offsets(), [0, 1, 5])

    def test_between(self):
        series = series_from_ctr([0.01] * 10)
        pts = series.between(START + dt.timedelta(days=2), START + dt.timedelta(days=4))
        assert len(pts) == 3


class TestWindowPairs:
    @pytest.mark.parametrize("total,window,expected", [(30, 14, 3), (28, 14, 1), (120, 14, 93)])
    def test_pair_count(self, total, window, expected):
        series = series_from_ctr([0.01] * total)
        assert len(window_pairs(series, window)) == expected

    def test_too_short(self):
        series = series_from_ctr([0.01] * 27)
        with pytest.raises(InsufficientDataError, match="28"):
            window_pairs(series, 14)

    def test_window_below_two(self):
        series = series_from_ctr([0.01] * 30)
        with pytest.raises(InvalidInputError):
            window_pairs(series, 1)

    def test_boundary_is_first_date_of_right_window(self):
        series = series_from_ctr([0.01] * 30)
        pairs = window_pairs(series, 14)
        assert pairs[0].boundary_date == START + dt.timedelta(days=14)
        assert pairs[0].right[0].date == pairs[0].boundary_date
        assert len(pairs[0].left) == len(pairs[0].right) == 14

    def test_windows_are_adjacent_and_disjoint(self):
        series = series_from_ctr([0.01] * 40)
        for pair in window_pairs(series, 10):
            assert pair.left[-1].date < pair.right[0].date


class TestNormalizeWindow:
    def test_linear_ramp(self):
        path = normalize_window(make_points([0.01, 0.02, 0.03]))
        np.testing.assert_allclose(path.points, [[0, 0], [0.5, 0.5], [1, 1]], atol=1e-15)

    def test_constant_window_maps_to_half(self):
        path = normalize_window(make_points([0.02] * 5))
        np.testing.assert_array_equal(path.points[:, 1], [0.5] * 5)

    def test_calendar_gap_preserved(self):
        dates = [START, START + dt.timedelta(days=1), START + dt.timedelta(days=4)]
        path = normalize_window(make_points([0.03, 0.02, 0.01], dates))
        np.testing.assert_allclose(path.points[:, 0], [0, 0.25, 1])
        np.testing.assert_allclose(path.points[:, 1], [1, 0.5, 0])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            normalize_window(make_points([0.01]))

    def test_output_in_unit_square(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.uniform(0.001, 0.2, size=rng.integers(2, 30))
            path = normalize_window(make_points(vals))
            assert path.points.min() >= 0.0 and path.points.max() <= 1.0


class TestNormalizePair:
    def test_shared_scale_keeps_level_difference(self):
        left = make_points([0.02] * 5)
        right = make_points([0.01] * 5, [START + dt.timedelta(days=5 + i) for i in range(5)])
        pl, pr = normalize_window_pair(left, right)
        assert np.all(pl.points[:, 1] == 1.0)
        assert np.all(pr.points[:, 1] == 0.0)

    def test_constant_pair_maps_to_half(self):
        left = make_points([0.02] * 5)
        right = make_points([0.02] * 5, [START + dt.timedelta(days=5 + i) for i in range(5)])
        pl, pr = normalize_window_pair(left, right)
        assert np.all(pl.points[:, 1] == 0.5)
        assert np.all(pr.points[:, 1] == 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0001220703125, 1.0, allow_nan=False, width=32), min_size=2, max_size=20),
    st.floats(0.001953125, 1024.0, allow_nan=False, width=32),
)
def test_scale_invariance(values, factor):
    def cost_points(vals):
        return [
            SeriesPoint(date=START + dt.timedelta(days=i), impressions=100, clicks=5, cost=v)
            for i, v in enumerate(vals)
        ]

    base = normalize_window(cost_points(values), metric="cost")
    scaled = normalize_window(cost_points([v * factor for v in values]), metric="cost")
    np.testing.assert_allclose(scaled.points, base.points, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=-1000, max_value=1000))
def test_time_shift_invariance(shift_days):
    values = [0.01, 0.013, 0.011, 0.02, 0.016]
    base = normalize_window(make_points(values))
    shifted_dates = [
        START + dt.timedelta(days=shift_days + i) for i in range(len(values))
    ]
    shifted = normalize_window(make_points(values, shifted_dates))
    np.testing.assert_array_equal(base.points, shifted.points)


@pytest.mark.parametrize("stretch", [2, 3, 7])
def test_time_stretch_invariance(stretch):
    values = [0.01, 0.013, 0.011, 0.02, 0.016]
    base = normalize_window(make_points(values))
    stretched_dates = [START + dt.timedelta(days=stretch * i) for i in range(len(values))]
    stretched = normalize_window(make_points(values, stretched_dates))
    np.testing.assert_allclose(stretched.points, base.points, atol=1e-15)


def test_metric_scale_invariance_on_cost_column():
    rng = np.random.default_rng(8)
    costs = rng.uniform(5, 50, 12)
    for factor in (2.0, 0.5, 3.0):
        pts = [
            SeriesPoint(date=START + dt.timedelta(days=i), impressions=100, clicks=5, cost=c)
            for i, c in enumerate(costs)
        ]
        scaled = [
            SeriesPoint(date=p.date, impressions=100, clicks=5, cost=p.cost * factor)
            for p in pts
        ]
        a = normalize_window(pts, metric="cost")
        b = normalize_window(scaled, metric="cost")
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)


class TestNormalizedPath:
    def test_rejects_out_of_square(self):
        with pytest.raises(InvalidInputError):
            NormalizedPath(points=np.array([[0.0, 0.0], [1.0, 1.5]]))

    def test_rejects_non_increasing_time(self):
        with pytest.raises(InvalidInputError):
            NormalizedPath(points=np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_immutable(self):
        path = NormalizedPath(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            path.points[0, 0] = 0.5


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        series = series_from_ctr([0.01, 0.02, 0.015], cost_per_click=1.5)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert back.points == series.points

    def test_cost_column_optional(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks\n2024-01-01,100,5\n2024-01-02,100,7\n")
        series = read_series_csv(path)
        assert len(series) == 2
        assert series.points[0].cost is None

    def test_zero_impression_rows_dropped_with_warning(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "date,impressions,clicks\n2024-01-01,100,5\n2024-01-02,0,0\n2024-01-03,100,7\n"
        )
        with pytest.warns(UserWarning, match="zero impressions"):
            series = read_series_csv(path)
        assert len(series) == 2

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks\n2024-01-01,100,5\nnot-a-date,100,5\n")
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert err.value.line_number == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("day,imps,clicks\n2024-01-01,100,5\n")
        with pytest.raises(CsvFormatError):
            read_series_csv(path)

    def test_non_increasing_dates_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "date,impressions,clicks\n2024-01-02,100,5\n2024-01-01,100,5\n"
        )
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cost_names_line(self, tmp_path, cell):
        path = tmp_path / "s.csv"
        path.write_text(
            f"date,impressions,clicks,cost\n2024-01-01,100,5,1.0\n2024-01-02,100,5,{cell}\n"
        )
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert err.value.line_number == 3

    def test_clicks_above_impressions_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks\n2024-01-01,10,11\n")
        with pytest.raises(CsvFormatError):
            read_series_csv(path)
