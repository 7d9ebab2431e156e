import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfatigue.errors import CsvFormatError, InsufficientDataError, InvalidInputError
from sigfatigue.detector import segment_series
from sigfatigue.windowing import (
    MAX_COST_METRIC,
    TimeSeries,
    pair_paths,
    read_series_csv,
    write_series_csv,
)

from conftest import START, daily_dates, series_from_ctr


def point(impressions, clicks, cost=None, date=START):
    """A one-observation series: the rules of a single point."""
    return TimeSeries(
        dates=[date], impressions=[impressions], clicks=[clicks],
        cost=None if cost is None else [cost],
    )


class TestSeriesPoint:
    """Per-point rules, checked on the columns of a series."""

    def test_ctr_is_derived(self):
        p = point(10_000, 150)
        assert p.metric_values("ctr")[0] == 150 / 10_000

    def test_rejects_zero_impressions(self):
        with pytest.raises(InvalidInputError):
            point(0, 0)

    def test_rejects_clicks_above_impressions(self):
        with pytest.raises(InvalidInputError):
            point(10, 11)

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidInputError):
            point(10, 1, cost=-1.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_rejects_non_finite_cost(self, cost):
        with pytest.raises(InvalidInputError, match="finite"):
            point(10, 1, cost=cost)

    def test_cost_metric_bounded(self):
        above = np.nextafter(MAX_COST_METRIC, np.inf)
        assert point(10, 1, cost=above).cost[0] == above  # bounded only when analysed
        TimeSeries(dates=[START], impressions=[10], clicks=[1], cost=[MAX_COST_METRIC],
                   metric="cost")
        with pytest.raises(InvalidInputError, match="cost must be <="):
            TimeSeries(dates=[START], impressions=[10], clicks=[1], cost=[above], metric="cost")

    def test_metric_selector(self):
        p = point(200, 30, cost=12.0)
        assert p.metric_values("ctr")[0] == 0.15
        assert p.metric_values("clicks")[0] == 30.0
        assert p.metric_values("impressions")[0] == 200.0
        assert p.metric_values("cost")[0] == 12.0
        with pytest.raises(InvalidInputError):
            p.metric_values("cpm")

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^unknown metric 'cpm', expected one of"):
            TimeSeries(dates=[START], impressions=[10], clicks=[1], metric="cpm")


class TestTimeSeries:
    def test_requires_strictly_increasing_dates(self):
        with pytest.raises(InvalidInputError):
            make_series([0.01, 0.02], [START + dt.timedelta(days=1), START])

    def test_requires_at_least_one_point(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(dates=[], impressions=[], clicks=[])

    def test_gaps_are_permitted(self):
        dates = [START, START + dt.timedelta(days=1), START + dt.timedelta(days=5)]
        series = make_series([0.01, 0.02, 0.03], dates)
        np.testing.assert_array_equal(series.day_offsets(), [0, 1, 5])

    def test_between(self):
        series = series_from_ctr([0.01] * 10)
        segments = segment_series(
            series, [START + dt.timedelta(days=2), START + dt.timedelta(days=5)]
        )
        assert segments[1].n_points == 3

    @pytest.mark.parametrize(
        "column", ["dates", "impressions", "clicks", "cost"]
    )
    def test_rejects_columns_of_unequal_length(self, column):
        columns = dict(dates=daily_dates(3), impressions=[100] * 3, clicks=[5] * 3, cost=[1.0] * 3)
        columns[column] = columns[column][:2]
        with pytest.raises(InvalidInputError, match="equal length"):
            TimeSeries(**columns)

    @pytest.mark.parametrize(
        "column,values,message",
        [
            ("impressions", [10.7] * 3, "impressions must hold integers that fit int64"),
            ("clicks", [1.9] * 3, "clicks must hold integers that fit int64"),
            ("impressions", [True] * 3, "impressions must hold integers"),
            ("impressions", [float("nan")] * 3, "impressions must hold integers"),
            ("impressions", [2**63 + 5] * 3, "impressions must hold integers that fit int64"),
            ("clicks", [2**64 + 5] * 3, "clicks must hold integers that fit int64"),
            ("cost", [True, False, True], "cost must hold integers or real numbers"),
            ("cost", ["1", "2", "3"], "cost must hold integers or real numbers"),
            ("dates", [19000, 19001, 19002], "dates must hold datetime64 values or datetime"),
            ("dates", [True, False, True], "dates must hold datetime64 values or datetime"),
            ("dates", [1.5, 2.5, 3.5], "dates must hold datetime64 values or datetime"),
            ("dates", ["2024-01-01", "2024-01-02", "x"], "dates must hold datetime64 values"),
            ("dates", [dt.datetime(2024, 1, d, 23) for d in (1, 2, 3)], "dates must be whole days"),
            (
                "dates",
                np.arange("2024-01-01T05", "2024-01-01T08", dtype="datetime64[h]"),
                "dates must be whole days, got 2024-01-01T05",
            ),
            (
                "dates",
                np.array(["2024-01-01", "NaT", "2024-01-03"], dtype="datetime64[D]"),
                "dates must be whole days, got NaT",
            ),
            ("dates", [*daily_dates(2), [START]], "dates must be a rectangular array"),
            ("impressions", [[100, 100], [100], [100]], "impressions must be a rectangular array"),
            ("cost", [1.0, [2.0, 3.0], 4.0], "cost must be a rectangular array"),
        ],
    )
    def test_rejects_columns_of_the_wrong_type(self, column, values, message):
        columns = dict(dates=daily_dates(3), impressions=[100] * 3, clicks=[5] * 3, cost=[1.0] * 3)
        columns[column] = values
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            TimeSeries(**columns)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(100, 5), (100, 101)], "2024-01-02: clicks must satisfy"),
            ([(100, 5), (-1, 0)], "2024-01-02: impressions must be positive"),
            ([(100, -1)], "2024-01-01: clicks must satisfy"),
        ],
    )
    def test_error_names_the_first_bad_date(self, rows, message):
        impressions, clicks = zip(*rows)
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            TimeSeries(dates=daily_dates(len(rows)), impressions=impressions, clicks=clicks)

    def test_whole_day_datetimes_are_days(self):
        expected = np.array(daily_dates(3), dtype="datetime64[D]")
        for dates in (
            [dt.datetime.combine(d, dt.time()) for d in daily_dates(3)],
            expected.astype("datetime64[h]"),
        ):
            series = TimeSeries(dates=dates, impressions=[100] * 3, clicks=[5] * 3)
            assert series.dates.dtype == expected.dtype
            assert np.array_equal(series.dates, expected)

    @pytest.mark.parametrize("hours", [0, 2])
    def test_time_zone_aware_dates_refused(self, hours):
        # numpy would cast them to UTC with a warning: midnight UTC+2 falls on the day before
        tz = dt.timezone(dt.timedelta(hours=hours))
        dates = [START, *(dt.datetime(2024, 1, d, tzinfo=tz) for d in (2, 3))]
        message = rf"^dates must not carry a time zone, got 2024-01-02T00:00:00\+0{hours}:00: "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=message):
                TimeSeries(dates=dates, impressions=[100] * 3, clicks=[5] * 3)

    def test_columns_are_read_only(self):
        series = series_from_ctr([0.01, 0.02])
        with pytest.raises(ValueError):
            series.clicks[0] = 7

    def test_columns_are_copied(self):
        clicks = np.array([5, 6])
        series = TimeSeries(dates=daily_dates(2), impressions=[100, 100], clicks=clicks)
        clicks[0] = 99
        assert series.clicks[0] == 5


def make_series(values, dates=None):
    return series_from_ctr(values, impressions=100_000, dates=dates)


def window_paths(series, window):
    """(boundary dates, left, right) from ``pair_paths``: the interiors of
    its left loops and of its right ones, once every loop is checked to
    run from (0, 0) to (1, 0)."""
    dates, loops = pair_paths(series, window)
    assert loops.shape == (2, len(dates), window + 2, 2)
    assert np.all(loops[:, :, 0] == [0.0, 0.0]) and np.all(loops[:, :, -1] == [1.0, 0.0])
    return dates, loops[0, :, 1:-1], loops[1, :, 1:-1]


def cost_series(costs, dates=None):
    n = len(costs)
    return TimeSeries(
        dates=daily_dates(n) if dates is None else dates,
        impressions=[100] * n, clicks=[5] * n, cost=costs, metric="cost",
    )


class TestWindowPairs:
    @pytest.mark.parametrize("total,window,expected", [(30, 14, 3), (28, 14, 1), (120, 14, 93)])
    def test_pair_count(self, total, window, expected):
        series = series_from_ctr([0.01] * total)
        dates, left, right = window_paths(series, window)
        assert len(dates) == expected
        assert left.shape == right.shape == (expected, window, 2)

    def test_too_short(self):
        series = series_from_ctr([0.01] * 27)
        with pytest.raises(InsufficientDataError, match="28"):
            pair_paths(series, 14)

    def test_window_below_two(self):
        series = series_from_ctr([0.01] * 30)
        message = r"^window must be an integer in \[2, inf\), got 1$"
        with pytest.raises(InvalidInputError, match=message):
            pair_paths(series, 1)
        with pytest.raises(InvalidInputError, match="window must be an integer"):
            pair_paths(series, 2.5)

    def test_boundary_is_first_date_of_right_window(self):
        dates = [START + dt.timedelta(days=3 * i + i % 3) for i in range(30)]
        series = make_series([0.01] * 30, dates)
        boundaries, _, _ = window_paths(series, 14)
        assert boundaries[0] == dates[14]
        assert boundaries.tolist() == dates[14:17]

    def test_windows_are_adjacent_and_disjoint(self):
        values = np.random.default_rng(4).permutation(np.arange(100, 140)) / 10_000
        series = make_series(values)
        _, left, right = window_paths(series, 10)
        for i in range(len(left)):
            # undo the pair's shared min-max scale to recover the observations
            pair = values[i : i + 20]
            lo, hi = pair.min(), pair.max()
            np.testing.assert_allclose(lo + left[i, :, 1] * (hi - lo), pair[:10], atol=1e-15)
            np.testing.assert_allclose(lo + right[i, :, 1] * (hi - lo), pair[10:], atol=1e-15)


class TestNormalizeWindow:
    def test_linear_ramp(self):
        _, left, right = window_paths(make_series([0.01, 0.02, 0.03, 0.04, 0.05, 0.06]), 3)
        np.testing.assert_allclose(left[0], [[0, 0], [0.5, 0.2], [1, 0.4]], atol=1e-15)
        np.testing.assert_allclose(right[0], [[0, 0.6], [0.5, 0.8], [1, 1]], atol=1e-15)

    def test_constant_window_maps_to_half(self):
        _, left, right = window_paths(make_series([0.02] * 12), 3)
        assert left.shape[0] == 7
        assert np.all(left[:, :, 1] == 0.5) and np.all(right[:, :, 1] == 0.5)

    def test_calendar_gap_preserved(self):
        offsets = [0, 1, 4, 10, 12, 14]
        dates = [START + dt.timedelta(days=d) for d in offsets]
        _, left, right = window_paths(make_series([0.03, 0.02, 0.01, 0.01, 0.02, 0.03], dates), 3)
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
            _, left, right = window_paths(make_series(rng.uniform(0.001, 0.2, n), dates), window)
            for path in (left, right):
                assert path.min() >= 0.0 and path.max() <= 1.0
                assert np.all(path[:, 0, 0] == 0.0) and np.all(path[:, -1, 0] == 1.0)


class TestNormalizePair:
    def test_shared_scale_keeps_level_difference(self):
        _, left, right = window_paths(make_series([0.02] * 5 + [0.01] * 5), 5)
        assert np.all(left[0, :, 1] == 1.0)
        assert np.all(right[0, :, 1] == 0.0)

    def test_constant_pair_maps_to_half(self):
        # only the pairs that lie wholly inside the flat stretch are constant
        _, left, right = window_paths(make_series([0.02] * 12 + [0.01] * 4), 5)
        flat = (left[:, :, 1] == 0.5).all(axis=1) & (right[:, :, 1] == 0.5).all(axis=1)
        np.testing.assert_array_equal(flat, [True, True, True] + [False] * 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0001220703125, 1.0, allow_nan=False, width=32), min_size=4, max_size=20),
    st.floats(0.001953125, 1024.0, allow_nan=False, width=32),
)
def test_scale_invariance(values, factor):
    window = len(values) // 2
    _, base_l, base_r = window_paths(cost_series(values), window)
    _, scaled_l, scaled_r = window_paths(cost_series([v * factor for v in values]), window)
    np.testing.assert_allclose(scaled_l, base_l, atol=1e-9)
    np.testing.assert_allclose(scaled_r, base_r, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=-1000, max_value=1000))
def test_time_shift_invariance(shift_days):
    values = [0.01, 0.013, 0.011, 0.02, 0.016, 0.012]
    _, base_l, base_r = window_paths(make_series(values), 3)
    shifted_dates = [
        START + dt.timedelta(days=shift_days + i) for i in range(len(values))
    ]
    _, shifted_l, shifted_r = window_paths(make_series(values, shifted_dates), 3)
    np.testing.assert_array_equal(base_l, shifted_l)
    np.testing.assert_array_equal(base_r, shifted_r)


@pytest.mark.parametrize("stretch", [2, 3, 7])
def test_time_stretch_invariance(stretch):
    values = [0.01, 0.013, 0.011, 0.02, 0.016, 0.012]
    _, base_l, base_r = window_paths(make_series(values), 3)
    stretched_dates = [START + dt.timedelta(days=stretch * i) for i in range(len(values))]
    _, stretched_l, stretched_r = window_paths(make_series(values, stretched_dates), 3)
    np.testing.assert_allclose(stretched_l, base_l, atol=1e-15)
    np.testing.assert_allclose(stretched_r, base_r, atol=1e-15)


def test_metric_scale_invariance_on_cost_column():
    rng = np.random.default_rng(8)
    costs = rng.uniform(5, 50, 12)
    _, base_l, base_r = window_paths(cost_series(costs), 6)
    for factor in (2.0, 0.5, 3.0):
        _, scaled_l, scaled_r = window_paths(cost_series(costs * factor), 6)
        np.testing.assert_allclose(scaled_l, base_l, atol=1e-12)
        np.testing.assert_allclose(scaled_r, base_r, atol=1e-12)


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        series = series_from_ctr([0.01, 0.02, 0.015], cost_per_click=1.5)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        for column in ("dates", "impressions", "clicks", "cost"):
            assert np.array_equal(getattr(back, column), getattr(series, column))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "date,impressions,clicks,cost\n2024-01-01,100,5,2.5\n2024-01-02,100,7,3.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = read_series_csv(plain), read_series_csv(marked)
        for column in ("dates", "impressions", "clicks", "cost"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_cost_column_optional(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks\n2024-01-01,100,5\n2024-01-02,100,7\n")
        series = read_series_csv(path)
        assert len(series) == 2
        assert series.cost is None

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

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks\n2024-01-01,100,5\n2024-01-02,100,5,1.5\n")
        with pytest.raises(CsvFormatError, match=r"^line 3: expected 3 fields, got 4$") as err:
            read_series_csv(path)
        assert err.value.line_number == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty file") as err:
            read_series_csv(path)
        assert err.value.line_number == 1

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks\n2024-01-01,100,5\n\n,,\n2024-01-02,100,7\n")
        assert read_series_csv(path).clicks.tolist() == [5, 7]

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

    @pytest.mark.parametrize(
        "row,expected",
        [
            ("2024-01-03,10,11", "clicks must satisfy"),
            ("2024-01-01,10,1", "strictly increasing"),
            ("2024-01-03,-5,0", "impressions must be positive"),
            ("2024-01-03,99999999999999999999,5", "64-bit"),
        ],
    )
    def test_rejected_value_names_line(self, tmp_path, row, expected):
        path = tmp_path / "s.csv"
        path.write_text(f"date,impressions,clicks\n2024-01-01,100,5\n2024-01-02,100,5\n{row}\n")
        with pytest.raises(CsvFormatError, match=expected) as err:
            read_series_csv(path)
        assert err.value.line_number == 4

    def test_cost_above_metric_bound_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "date,impressions,clicks,cost\n2024-01-01,100,5,1e150\n2024-01-02,100,5,1e151\n"
        )
        assert read_series_csv(path).cost[1] == 1e151
        with pytest.raises(CsvFormatError, match="cost must be <=") as err:
            read_series_csv(path, metric="cost")
        assert err.value.line_number == 3

    def test_empty_cost_cell_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,impressions,clicks,cost\n2024-01-01,100,5,1.0\n2024-01-02,100,5,\n")
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert err.value.line_number == 3
