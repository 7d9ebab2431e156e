import datetime as dt
import json
import math
import warnings

import numpy as np
import pytest

from sigfatigue.baselines import cusum, ma_crossover, rolling_regression
from sigfatigue.detector import detect, ols_slope_test
from sigfatigue.errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
)
from sigfatigue.synth import PATTERN_KINDS, generate_batch
from sigfatigue.windowing import MAX_COST_METRIC, TimeSeries

from conftest import START, daily_dates, series_from_ctr, sharp_drop_ctrs


def day(n):
    return START + dt.timedelta(days=n - 1)


class TestMaCrossover:
    def test_constant_series_no_crossings(self):
        assert ma_crossover(series_from_ctr([0.02] * 60), 7, 28) == []

    def test_increasing_series_no_downward_crossings(self):
        series = series_from_ctr([0.01 + 0.0001 * t for t in range(60)])
        assert ma_crossover(series, 7, 28) == []

    def test_sharp_drop_single_crossing_near_drop(self):
        series = series_from_ctr(sharp_drop_ctrs())
        flags = ma_crossover(series, 7, 28)
        assert len(flags) == 1
        assert day(61) <= flags[0] <= day(68)

    def test_window_ordering_enforced(self):
        series = series_from_ctr([0.02] * 60)
        with pytest.raises(InvalidInputError):
            ma_crossover(series, 28, 7)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            ma_crossover(series_from_ctr([0.02] * 28), 7, 28)

    @pytest.mark.parametrize(
        "windows",
        [{"short_window": 2.5}, {"short_window": True}, {"short_window": 7.0},
         {"long_window": 28.0}, {"long_window": "28"}],
    )
    def test_windows_must_be_integers(self, windows):
        (name,) = windows
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer in "):
            ma_crossover(series_from_ctr([0.02] * 60), **windows)

    def test_numpy_integer_windows_accepted(self):
        series = series_from_ctr(sharp_drop_ctrs())
        assert ma_crossover(series, np.int64(7), np.int64(28)) == ma_crossover(series, 7, 28)


class TestCusum:
    def test_constant_series_no_flags(self):
        assert cusum(series_from_ctr([0.02] * 60)) == []

    def test_burn_in_zero_variance_with_later_change_rejected(self):
        series = series_from_ctr([0.02] * 30 + [0.01] * 30)
        with pytest.raises(DegenerateInputError):
            cusum(series)

    def test_burn_in_spread_that_underflows_rejected(self):
        # the burn-in differs by one subnormal, so its population std
        # underflows to 0 and no later value standardizes to a finite z
        cost = np.array([0.0] * 13 + [5e-324] + [1e150] * 46)
        series = TimeSeries(dates=daily_dates(60), impressions=np.full(60, 100),
                            clicks=np.full(60, 5), cost=cost, metric="cost")
        with pytest.raises(DegenerateInputError):
            cusum(series)

    def test_large_negative_step_flagged_quickly(self):
        rng = np.random.default_rng(0)
        base = 0.02 + rng.normal(0, 0.0004, 120)
        values = np.where(np.arange(1, 121) < 61, base, base - 5 * base[:14].std())
        series = series_from_ctr(np.clip(values, 0.001, 1.0))
        flags = cusum(series, reference_k=0.5, decision_h=5.0)
        post = [f for f in flags if f >= day(61)]
        assert post and (post[0] - day(61)).days <= 3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        series = series_from_ctr(0.02 + rng.normal(0, 0.001, 80))
        assert cusum(series) == cusum(series)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            cusum(series_from_ctr([0.02] * 9))

    def test_bad_decision_interval(self):
        with pytest.raises(InvalidInputError):
            cusum(series_from_ctr([0.02] * 30), decision_h=0.0)

    @pytest.mark.parametrize("param", ["reference_k", "decision_h"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "1", None])
    def test_non_finite_parameter_rejected(self, param, value):
        series = series_from_ctr([0.02] * 15 + [0.01] * 15)
        with pytest.raises(InvalidInputError, match=param):
            cusum(series, **{param: value})

    @pytest.mark.parametrize("param", ["reference_k", "decision_h"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_parameter_rejected(self, param, value):
        series = series_from_ctr([0.02] * 15 + [0.01] * 15)
        with pytest.raises(InvalidInputError, match=param):
            cusum(series, **{param: value})


class TestRollingRegression:
    def test_constant_series_no_flags(self):
        assert rolling_regression(series_from_ctr([0.02] * 40), 7) == []

    def test_noiseless_decline_flags_earliest_full_window(self):
        series = series_from_ctr([0.03 - 0.0002 * t for t in range(40)])
        flags = rolling_regression(series, 7)
        assert flags[0] == day(7)

    def test_sharp_drop_first_flag_near_drop(self):
        series = series_from_ctr(sharp_drop_ctrs())
        flags = rolling_regression(series, 7)
        post = [f for f in flags if f >= day(61)]
        assert post and post[0] <= day(68)
        assert not [f for f in flags if f < day(61)]

    def test_window_minimum(self):
        with pytest.raises(InvalidInputError):
            rolling_regression(series_from_ctr([0.02] * 40), 2)

    @pytest.mark.parametrize("window", [7.5, 7.0, True, "7"])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(InvalidInputError, match="window must be an integer"):
            rolling_regression(series_from_ctr([0.02] * 40), window)

    def test_numpy_integer_window_accepted(self):
        series = series_from_ctr(sharp_drop_ctrs())
        assert rolling_regression(series, np.int64(7)) == rolling_regression(series, 7)

    def test_alpha_must_be_a_real_number(self):
        message = r"^alpha must be a real number in \(0, 1\), got 'x'$"
        with pytest.raises(InvalidInputError, match=message):
            rolling_regression(series_from_ctr([0.02] * 40), 7, alpha="x")

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        series = series_from_ctr(np.clip(0.02 + np.cumsum(rng.normal(0, 0.0005, 60)), 0.001, 1))
        assert rolling_regression(series, 7) == rolling_regression(series, 7)


def loop_rolling_regression(series, window, alpha=0.05):
    """rolling_regression as a loop, one slope test per window: the oracle."""
    values = series.metric_values()
    offsets = series.day_offsets()
    flags = []
    was_significant = False
    for i in range(window - 1, len(series)):
        slope, p = ols_slope_test(
            offsets[i - window + 1 : i + 1], values[i - window + 1 : i + 1]
        )
        significant = p < alpha and slope < 0
        if significant and not was_significant:
            flags.append(i)
        was_significant = significant
    return series.dates[flags].tolist()


PLAIN_KINDS = [k for k in PATTERN_KINDS if k != "non_continuous"]


def oracle_corpus(gapped, seed):
    """Two series per plain kind, or per base kind of a gapped series."""
    if not gapped:
        return generate_batch(PLAIN_KINDS, 2, master_seed=seed)
    return [
        g
        for base in PLAIN_KINDS
        for g in generate_batch(
            "non_continuous", 2, master_seed=seed,
            overrides={"base_kind": base, "gap_fraction": 0.2},
        )
    ]


class TestRollingRegressionAgainstLoop:
    @pytest.mark.parametrize("window", [3, 7, 14])
    @pytest.mark.parametrize("gapped", [False, True], ids=["plain", "gapped"])
    def test_dates_match_per_window_loop(self, gapped, window):
        corpus = oracle_corpus(gapped, window)
        flagged = 0
        for g in corpus:
            for alpha in (0.05, 0.2):
                dates = rolling_regression(g.series, window, alpha)
                assert dates == loop_rolling_regression(g.series, window, alpha)
                flagged += len(dates)
        assert flagged > 0

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_series_shorter_than_window(self, n):
        series = series_from_ctr([0.03 - 0.001 * t for t in range(n)])
        assert rolling_regression(series, 7) == loop_rolling_regression(series, 7)
        assert (rolling_regression(series, 7) == []) == (n < 7)


def loop_ma_crossover(series, short_window=7, long_window=28):
    """ma_crossover as a loop, two trailing fsum means per index: the oracle."""
    values = series.metric_values()
    flags = []
    above = None
    for i in range(long_window - 1, len(series)):
        short = math.fsum(values[i + 1 - short_window : i + 1]) / short_window
        long = math.fsum(values[i + 1 - long_window : i + 1]) / long_window
        if above and short < long:
            flags.append(i)
        above = short >= long
    return series.dates[flags].tolist()


MA_WINDOWS = [(7, 28), (3, 10), (1, 2), (5, 60)]


def cost_series(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return TimeSeries(dates=daily_dates(n), impressions=np.full(n, 100),
                      clicks=np.full(n, 5), cost=values, metric="cost")


class TestMaCrossoverAgainstLoop:
    @pytest.mark.parametrize("gapped", [False, True], ids=["plain", "gapped"])
    def test_dates_match_per_index_loop(self, gapped):
        flagged = 0
        for g in oracle_corpus(gapped, 17):
            for short, long in MA_WINDOWS:
                if len(g.series) > long:
                    dates = ma_crossover(g.series, short, long)
                    assert dates == loop_ma_crossover(g.series, short, long)
                    flagged += len(dates)
        assert flagged > 0

    # running sums of 0.1 or 0.07 round, so only exact window sums keep the
    # means of a flat stretch equal from one day to the next
    @pytest.mark.parametrize("level", [0.1, 0.07])
    def test_flat_stretches_match_per_index_loop(self, level):
        rng = np.random.default_rng(3)
        blocks = [[level * rng.integers(1, 4)] * int(rng.integers(3, 30)) for _ in range(20)]
        stepped = cost_series([v for block in blocks for v in block])
        flat = cost_series([level] * 120)
        for short, long in MA_WINDOWS:
            assert ma_crossover(stepped, short, long) == loop_ma_crossover(stepped, short, long)
            assert ma_crossover(flat, short, long) == loop_ma_crossover(flat, short, long) == []


def test_every_method_runs_at_the_cost_metric_bound():
    # 2,000 noisy costs that peak at the bound and halve at day 1,001: every
    # sum of squares a method takes must stay finite
    rng = np.random.default_rng(0)
    level = np.where(np.arange(2_000) < 1_000, 1.0, 0.5)
    cost = MAX_COST_METRIC * level * rng.uniform(0.9, 1.0, 2_000)
    cost[0] = MAX_COST_METRIC
    series = TimeSeries(dates=daily_dates(2_000), impressions=np.full(2_000, 100),
                        clicks=np.full(2_000, 5), cost=cost, metric="cost")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = detect(series)
        json.dumps(report.to_dict(), allow_nan=False)
        assert report.change_points
        for method in (ma_crossover, cusum, rolling_regression):
            assert method(series)
