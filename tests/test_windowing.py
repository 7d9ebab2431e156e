import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfatigue.errors import CsvFormatError, InsufficientDataError, InvalidInputError
from sigfatigue.windowing import (
    SeriesPoint,
    TimeSeries,
    pair_paths,
    read_series_csv,
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


def make_series(values, dates=None):
    return TimeSeries(points=tuple(make_points(values, dates)))


def cost_series(costs, dates=None):
    dates = dates or [START + dt.timedelta(days=i) for i in range(len(costs))]
    points = [
        SeriesPoint(date=d, impressions=100, clicks=5, cost=c) for d, c in zip(dates, costs)
    ]
    return TimeSeries(points=tuple(points), metric="cost")


class TestWindowPairs:
    @pytest.mark.parametrize("total,window,expected", [(30, 14, 3), (28, 14, 1), (120, 14, 93)])
    def test_pair_count(self, total, window, expected):
        series = series_from_ctr([0.01] * total)
        dates, left, right = pair_paths(series, window)
        assert len(dates) == expected
        assert left.shape == right.shape == (expected, window, 2)

    def test_too_short(self):
        series = series_from_ctr([0.01] * 27)
        with pytest.raises(InsufficientDataError, match="28"):
            pair_paths(series, 14)

    def test_window_below_two(self):
        series = series_from_ctr([0.01] * 30)
        with pytest.raises(InvalidInputError, match="window must be >= 2"):
            pair_paths(series, 1)

    def test_boundary_is_first_date_of_right_window(self):
        dates = [START + dt.timedelta(days=3 * i + i % 3) for i in range(30)]
        series = make_series([0.01] * 30, dates)
        boundaries, _, _ = pair_paths(series, 14)
        assert boundaries[0] == dates[14]
        assert boundaries == dates[14:17]

    def test_windows_are_adjacent_and_disjoint(self):
        values = np.random.default_rng(4).permutation(np.arange(100, 140)) / 10_000
        series = make_series(values)
        _, left, right = pair_paths(series, 10)
        for i in range(len(left)):
            # undo the pair's shared min-max scale to recover the observations
            pair = values[i : i + 20]
            lo, hi = pair.min(), pair.max()
            np.testing.assert_allclose(lo + left[i, :, 1] * (hi - lo), pair[:10], atol=1e-15)
            np.testing.assert_allclose(lo + right[i, :, 1] * (hi - lo), pair[10:], atol=1e-15)


class TestNormalizeWindow:
    def test_linear_ramp(self):
        _, left, right = pair_paths(make_series([0.01, 0.02, 0.03, 0.04, 0.05, 0.06]), 3)
        np.testing.assert_allclose(left[0], [[0, 0], [0.5, 0.2], [1, 0.4]], atol=1e-15)
        np.testing.assert_allclose(right[0], [[0, 0.6], [0.5, 0.8], [1, 1]], atol=1e-15)

    def test_constant_window_maps_to_half(self):
        _, left, right = pair_paths(make_series([0.02] * 12), 3)
        assert left.shape[0] == 7
        assert np.all(left[:, :, 1] == 0.5) and np.all(right[:, :, 1] == 0.5)

    def test_calendar_gap_preserved(self):
        offsets = [0, 1, 4, 10, 12, 14]
        dates = [START + dt.timedelta(days=d) for d in offsets]
        _, left, right = pair_paths(make_series([0.03, 0.02, 0.01, 0.01, 0.02, 0.03], dates), 3)
        np.testing.assert_allclose(left[0, :, 0], [0, 0.25, 1])
        np.testing.assert_allclose(left[0, :, 1], [1, 0.5, 0])
        np.testing.assert_allclose(right[0, :, 0], [0, 0.5, 1])
        np.testing.assert_allclose(right[0, :, 1], [0, 0.5, 1])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            pair_paths(make_series([0.01, 0.02, 0.03]), 2)

    def test_output_in_unit_square(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            window = int(rng.integers(2, 15))
            n = 2 * window + int(rng.integers(0, 10))
            dates = [START + dt.timedelta(days=int(d)) for d in np.cumsum(rng.integers(1, 4, n))]
            _, left, right = pair_paths(make_series(rng.uniform(0.001, 0.2, n), dates), window)
            for path in (left, right):
                assert path.min() >= 0.0 and path.max() <= 1.0
                assert np.all(path[:, 0, 0] == 0.0) and np.all(path[:, -1, 0] == 1.0)


class TestNormalizePair:
    def test_shared_scale_keeps_level_difference(self):
        _, left, right = pair_paths(make_series([0.02] * 5 + [0.01] * 5), 5)
        assert np.all(left[0, :, 1] == 1.0)
        assert np.all(right[0, :, 1] == 0.0)

    def test_constant_pair_maps_to_half(self):
        # only the pairs that lie wholly inside the flat stretch are constant
        _, left, right = pair_paths(make_series([0.02] * 12 + [0.01] * 4), 5)
        flat = (left[:, :, 1] == 0.5).all(axis=1) & (right[:, :, 1] == 0.5).all(axis=1)
        np.testing.assert_array_equal(flat, [True, True, True] + [False] * 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0001220703125, 1.0, allow_nan=False, width=32), min_size=4, max_size=20),
    st.floats(0.001953125, 1024.0, allow_nan=False, width=32),
)
def test_scale_invariance(values, factor):
    window = len(values) // 2
    _, base_l, base_r = pair_paths(cost_series(values), window)
    _, scaled_l, scaled_r = pair_paths(cost_series([v * factor for v in values]), window)
    np.testing.assert_allclose(scaled_l, base_l, atol=1e-9)
    np.testing.assert_allclose(scaled_r, base_r, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=-1000, max_value=1000))
def test_time_shift_invariance(shift_days):
    values = [0.01, 0.013, 0.011, 0.02, 0.016, 0.012]
    _, base_l, base_r = pair_paths(make_series(values), 3)
    shifted_dates = [
        START + dt.timedelta(days=shift_days + i) for i in range(len(values))
    ]
    _, shifted_l, shifted_r = pair_paths(make_series(values, shifted_dates), 3)
    np.testing.assert_array_equal(base_l, shifted_l)
    np.testing.assert_array_equal(base_r, shifted_r)


@pytest.mark.parametrize("stretch", [2, 3, 7])
def test_time_stretch_invariance(stretch):
    values = [0.01, 0.013, 0.011, 0.02, 0.016, 0.012]
    _, base_l, base_r = pair_paths(make_series(values), 3)
    stretched_dates = [START + dt.timedelta(days=stretch * i) for i in range(len(values))]
    _, stretched_l, stretched_r = pair_paths(make_series(values, stretched_dates), 3)
    np.testing.assert_allclose(stretched_l, base_l, atol=1e-15)
    np.testing.assert_allclose(stretched_r, base_r, atol=1e-15)


def test_metric_scale_invariance_on_cost_column():
    rng = np.random.default_rng(8)
    costs = rng.uniform(5, 50, 12)
    _, base_l, base_r = pair_paths(cost_series(costs), 6)
    for factor in (2.0, 0.5, 3.0):
        _, scaled_l, scaled_r = pair_paths(cost_series(costs * factor), 6)
        np.testing.assert_allclose(scaled_l, base_l, atol=1e-12)
        np.testing.assert_allclose(scaled_r, base_r, atol=1e-12)


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
