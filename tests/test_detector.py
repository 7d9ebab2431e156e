import datetime as dt
import json

import numpy as np
import pytest

from sigfatigue.detector import (
    DetectorConfig,
    classify_trend,
    detect,
    distance_series,
    flag_change_points,
    ols_slope_test,
    segment_series,
)
from sigfatigue import detector, sigcore as sc
from sigfatigue.errors import InsufficientDataError, InvalidInputError
from sigfatigue.windowing import TimeSeries, pair_paths

from conftest import START, daily_dates, series_from_ctr, sharp_drop_ctrs


def day(n):
    return START + dt.timedelta(days=n - 1)


class TestConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert (cfg.window, cfg.depth, cfg.threshold_k, cfg.alpha) == (14, 3, 2.0, 0.05)
        assert cfg.effective_merge_gap == 14
        assert cfg.feature_mode == "full"

    def test_max_depth_accepted(self):
        assert DetectorConfig(depth=detector.MAX_DEPTH).depth == 8

    def test_merge_gap_follows_window(self):
        assert DetectorConfig(window=7).effective_merge_gap == 7
        assert DetectorConfig(window=7, merge_gap=0).effective_merge_gap == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"depth": 0},
            {"depth": detector.MAX_DEPTH + 1},
            {"depth": 2**70},
            {"threshold_k": 0.0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"merge_gap": -1},
            {"feature_mode": "lyndon"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidInputError):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize("k", [float("inf"), float("nan")])
    def test_threshold_k_must_be_finite(self, k):
        with pytest.raises(InvalidInputError, match="threshold_k"):
            DetectorConfig(threshold_k=k)


class TestDistanceSeries:
    def test_constant_series_all_zero(self, constant_series):
        points = distance_series(constant_series, DetectorConfig(window=14))
        assert len(points) == 93
        assert np.all(points["distance"] == 0.0)

    def test_count_equals_pairs(self, sharp_series):
        assert len(distance_series(sharp_series, DetectorConfig(window=14))) == 93

    def test_reflected_ramp_has_positive_distance(self):
        up_down = series_from_ctr([0.01 + 0.001 * t for t in range(10)] + [0.019 - 0.001 * t for t in range(10)])
        points = distance_series(up_down, DetectorConfig(window=10))
        assert points["distance"][0] > 0.0

    def test_too_short_names_requirement(self):
        series = series_from_ctr([0.01] * 20)
        with pytest.raises(InsufficientDataError, match="28"):
            distance_series(series, DetectorConfig(window=14))

    def test_boundary_dates_increase(self, sharp_series):
        points = distance_series(sharp_series, DetectorConfig(window=14))
        dates = points["date"].tolist()
        assert dates == sorted(dates)

    def test_log_mode_runs(self, sharp_series):
        full = distance_series(sharp_series, DetectorConfig(window=14))
        log = distance_series(sharp_series, DetectorConfig(window=14, feature_mode="log"))
        assert len(full) == len(log)
        assert log["distance"].max() > 0


def oracle_distances(series, window, depth, feature_mode):
    """Pair distances from the TensorSeq algebra, one window at a time.

    Each pair is min-max scaled from its points, each window's time axis
    is its elapsed days, and each closed loop is folded segment by segment
    with ``chen_concat``; nothing is shared with the batched kernel.
    """
    dates = series.dates.tolist()
    metric = series.metric_values()
    out = []
    for i in range(len(dates) - 2 * window + 1):
        pair = dates[i : i + 2 * window]
        values = metric[i : i + 2 * window]
        lo, hi = values.min(), values.max()
        y = np.full(len(pair), 0.5) if hi == lo else (values - lo) / (hi - lo)
        sigs = []
        for half in (slice(0, window), slice(window, 2 * window)):
            days = np.array([(d - pair[half][0]).days for d in pair[half]], float)
            loop = np.vstack([[0.0, 0.0], np.column_stack([days / days[-1], y[half]]), [1.0, 0.0]])
            sig = sc.identity(2, depth)
            for a, b in zip(loop[:-1], loop[1:]):
                sig = sc.chen_concat(sig, sc.segment_signature(b - a, depth))
            sigs.append(sc.log_signature(sig) if feature_mode == "log" else sig)
        out.append((pair[window], sc.sig_distance(*sigs)))
    return out


def walk_series(kind, n=40, seed=0):
    """A random-walk CTR series: on consecutive days, with calendar gaps,
    or with a flat stretch whose pairs are constant."""
    rng = np.random.default_rng(seed)
    ctrs = np.clip(0.02 + np.cumsum(rng.normal(0, 0.002, n)), 0.001, 0.2)
    if kind == "flat":
        ctrs[:20] = 0.02
    steps = rng.integers(1, 5, n) if kind == "gapped" else np.ones(n, dtype=int)
    offsets = np.cumsum(steps) - steps[0]
    return series_from_ctr(ctrs, dates=[START + dt.timedelta(days=int(o)) for o in offsets])


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("feature_mode", ["full", "log"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("window", [2, 7, 14])
    @pytest.mark.parametrize("kind", ["plain", "gapped", "flat"])
    def test_distances_match_per_window_oracle(self, kind, window, depth, feature_mode):
        series = walk_series(kind, seed=window * 10 + depth)
        cfg = DetectorConfig(window=window, depth=depth, feature_mode=feature_mode)
        points = distance_series(series, cfg)
        oracle = oracle_distances(series, window, depth, feature_mode)
        assert points["date"].tolist() == [d for d, _ in oracle]
        np.testing.assert_allclose(
            points["distance"], [v for _, v in oracle], rtol=0, atol=1e-12
        )

    def test_constant_pairs_have_zero_distance(self):
        points = distance_series(walk_series("flat"), DetectorConfig(window=7))
        assert np.all(points["distance"][:7] == 0.0)
        assert points["distance"][7] > 0.0

    @pytest.mark.parametrize("feature_mode", ["full", "log"])
    def test_one_pair_when_series_is_two_windows(self, feature_mode):
        series = walk_series("gapped", n=28, seed=3)
        points = distance_series(series, DetectorConfig(window=14, feature_mode=feature_mode))
        (date, dist), = oracle_distances(series, 14, 3, feature_mode)
        assert len(points) == 1 and points["date"].tolist() == [date]
        assert points["distance"][0] == pytest.approx(dist, rel=0, abs=1e-12)

    def test_too_short_message(self):
        with pytest.raises(
            InsufficientDataError,
            match=r"^series has 27 observations but window=14 requires at least 28$",
        ):
            distance_series(walk_series("plain", n=27), DetectorConfig(window=14))

    def test_window_checked_before_length(self):
        with pytest.raises(InvalidInputError, match=r"^window must be >= 2, got 1$"):
            pair_paths(walk_series("plain", n=1), 1)

    def test_builds_no_tensorseq(self, monkeypatch, sharp_series):
        def refuse(self):
            raise AssertionError("a TensorSeq was built")

        monkeypatch.setattr(sc.TensorSeq, "__post_init__", refuse)
        distance_series(sharp_series, DetectorConfig(feature_mode="log"))

    @pytest.mark.parametrize("feature_mode", ["full", "log"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("window", [2, 7, 14, 21])
    @pytest.mark.parametrize("kind", ["plain", "gapped", "flat"])
    def test_distance_is_bit_equal_to_row_norm(
        self, monkeypatch, kind, window, depth, feature_mode
    ):
        features = []

        def recording(paths, depth, log=False):
            features.append(sc.batch_signature(paths, depth, log=log))
            return features[-1]

        monkeypatch.setattr(detector, "batch_signature", recording)
        series = walk_series(kind, n=60, seed=window * 10 + depth)
        points = distance_series(
            series, DetectorConfig(window=window, depth=depth, feature_mode=feature_mode)
        )
        (feats,) = features
        left, right = feats[: len(points)], feats[len(points):]
        assert points["distance"].tolist() == [
            float(np.linalg.norm(a - b)) for a, b in zip(left, right)
        ]


def greedy_merge(dates, values, threshold, merge_gap):
    """Flags over ``threshold``, merged one flag object at a time."""
    flags = [(d, v) for d, v in zip(dates, values) if v > threshold]
    emitted = []
    for d, v in sorted(flags, key=lambda f: (-f[1], f[0])):
        if all(abs((d - e).days) > merge_gap for e, _ in emitted):
            emitted.append((d, v))
    return sorted(emitted)


@pytest.mark.parametrize("seed", range(12))
def test_flag_change_points_matches_greedy_merge(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    dates = [START + dt.timedelta(days=int(d)) for d in np.cumsum(rng.integers(1, 4, n))]
    values = rng.integers(0, 6, n) / 4.0  # coarse values, so ties are common
    distances = np.empty(n, dtype=detector.DISTANCE_DTYPE)
    distances["date"] = dates
    distances["distance"] = values
    cfg = DetectorConfig(threshold_k=0.25, merge_gap=int(rng.integers(0, 8)))
    mean, std, threshold, change_points = flag_change_points(distances, cfg)
    assert (mean, std) == (float(np.mean(values.tolist())), float(np.std(values.tolist())))
    assert [(c.date, c.distance) for c in change_points] == greedy_merge(
        dates, values.tolist(), threshold, cfg.merge_gap
    )
    assert all(c.threshold == threshold for c in change_points)


class TestDetect:
    def test_constant_series_has_no_change_points(self, constant_series):
        report = detect(constant_series, DetectorConfig(window=14, threshold_k=1.5))
        assert report.change_points == ()
        assert report.std_distance == 0.0
        assert len(report.segments) == 1
        assert report.segments[0].trend == "stable"

    def test_noiseless_sharp_drop_single_change_point(self, sharp_series):
        report = detect(sharp_series, DetectorConfig(window=14, threshold_k=1.5))
        assert len(report.change_points) == 1
        assert abs((report.change_points[0].date - day(61)).days) <= 3

    def test_extreme_threshold_clears_flags(self, sharp_series):
        report = detect(sharp_series, DetectorConfig(window=14, threshold_k=99.0))
        assert report.change_points == ()

    def test_raising_k_cannot_add_change_points(self, sharp_series):
        low = detect(sharp_series, DetectorConfig(window=14, threshold_k=1.5))
        high = detect(sharp_series, DetectorConfig(window=14, threshold_k=3.0))
        assert len(high.change_points) <= len(low.change_points)

    def test_threshold_identity(self, sharp_series):
        cfg = DetectorConfig(window=14, threshold_k=1.7)
        report = detect(sharp_series, cfg)
        assert report.threshold == report.mean_distance + cfg.threshold_k * report.std_distance

    def test_flags_exceed_threshold_strictly(self, sharp_series):
        report = detect(sharp_series, DetectorConfig(window=14, threshold_k=1.5, merge_gap=0))
        for cp in report.change_points:
            assert cp.distance > report.threshold

    def test_merged_dates_subset_of_raw_flags(self, sharp_series):
        raw = detect(sharp_series, DetectorConfig(window=14, threshold_k=1.5, merge_gap=0))
        merged = detect(sharp_series, DetectorConfig(window=14, threshold_k=1.5))
        raw_dates = {c.date for c in raw.change_points}
        assert {c.date for c in merged.change_points} <= raw_dates

    def test_merged_count_monotone_in_k(self, sharp_series):
        counts = [
            len(detect(sharp_series, DetectorConfig(window=14, threshold_k=k)).change_points)
            for k in (1.5, 2.0, 2.5)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_deterministic_reports(self, sharp_series):
        cfg = DetectorConfig(window=14, threshold_k=1.5)
        a = detect(sharp_series, cfg).to_dict()
        b = detect(sharp_series, cfg).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_metric_scaling_leaves_flag_dates_unchanged(self):
        rng = np.random.default_rng(4)
        costs = rng.uniform(10, 40, 60)
        costs[30:] *= 0.4
        for factor in (2.0, 0.5, 3.0):
            def build(scale):
                return TimeSeries(
                    dates=daily_dates(len(costs)),
                    impressions=[1000] * len(costs),
                    clicks=[10] * len(costs),
                    cost=costs * scale,
                    metric="cost",
                )

            base = detect(build(1.0), DetectorConfig(window=7, threshold_k=1.5))
            scaled = detect(build(factor), DetectorConfig(window=7, threshold_k=1.5))
            assert [c.date for c in base.change_points] == [c.date for c in scaled.change_points]

    @pytest.mark.parametrize("window", [7, 10, 14])
    def test_argmax_localizes_noiseless_drop(self, sharp_series, window):
        points = distance_series(sharp_series, DetectorConfig(window=window))
        best = points["date"][points["distance"].argmax()].item()
        assert abs((best - day(61)).days) <= 1

    def test_gapped_series_detects(self):
        ctrs = sharp_drop_ctrs()
        keep = [i for i in range(120) if i % 5 != 3]  # drop every fifth day
        series = series_from_ctr([ctrs[i] for i in keep], dates=[day(i + 1) for i in keep])
        report = detect(series, DetectorConfig(window=14, threshold_k=1.5))
        assert len(report.change_points) >= 1
        nearest = min(abs((c.date - day(61)).days) for c in report.change_points)
        assert nearest <= 3


def trend_of(series, alpha=0.05):
    return classify_trend(series.day_offsets(), series.metric_values(), alpha)


class TestClassifyTrend:
    def test_noiseless_improvement(self):
        series = series_from_ctr([0.01 + 0.001 * t for t in range(20)])
        trend, slope, p = trend_of(series)
        assert trend == "improving"
        assert slope == pytest.approx(0.001, rel=1e-6)
        assert p < 1e-6

    def test_constant_is_stable(self):
        series = series_from_ctr([0.02] * 20)
        trend, slope, p = trend_of(series)
        assert trend == "stable"
        assert slope == 0.0
        assert p == 1.0

    def test_noiseless_decline(self):
        series = series_from_ctr([0.03 - 0.0005 * t for t in range(20)])
        trend, slope, _ = trend_of(series)
        assert trend == "declining"
        assert slope < 0

    def test_two_point_segment_is_stable(self):
        series = series_from_ctr([0.01, 0.03])
        trend, _, p = trend_of(series)
        assert trend == "stable"
        assert p == 1.0

    def test_noisy_flat_is_stable(self):
        rng = np.random.default_rng(2)
        series = series_from_ctr(0.02 + rng.normal(0, 0.002, 30))
        trend, _, p = trend_of(series)
        assert trend == "stable"
        assert p >= 0.05

    def test_slope_uses_calendar_days(self):
        dates = [day(1), day(3), day(5), day(9)]
        series = TimeSeries(
            dates=dates,
            impressions=[10_000] * len(dates),
            clicks=[int(10_000 * (0.01 + 0.001 * (d - day(1)).days)) for d in dates],
        )
        _, slope, _ = trend_of(series)
        assert slope == pytest.approx(0.001, rel=1e-6)


class TestOlsSlopeTest:
    def test_p_value_matches_scipy_stats_oracle(self):
        from scipy import stats

        rng = np.random.default_rng(20240)
        for _ in range(500):
            n = int(rng.integers(3, 40))
            x = np.cumsum(rng.integers(1, 4, n)).astype(float)
            y = rng.normal(0.02, 0.005, n) + rng.normal(0, 1e-4) * x
            slope, p = ols_slope_test(x, y)
            xc = x - x.mean()
            sxx = float(xc @ xc)
            resid = y - (y.mean() + slope * xc)
            se = np.sqrt(float(resid @ resid) / (n - 2) / sxx)
            assert slope == float(xc @ (y - y.mean()) / sxx)
            assert p == float(2.0 * stats.t.sf(abs(slope) / se, n - 2))

    @pytest.mark.parametrize("x, y", [([], []), ([3.0], [0.5])])
    def test_fewer_than_two_points(self, x, y):
        assert ols_slope_test(x, y) == (0.0, 1.0)

    def test_two_points_have_slope_but_no_test(self):
        assert ols_slope_test([0.0, 2.0], [1.0, 5.0]) == (2.0, 1.0)

    def test_zero_residual_zero_slope(self):
        assert ols_slope_test([0.0, 1.0, 2.0, 3.0], [0.02] * 4) == (0.0, 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_residual_nonzero_slope(self, sign):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [sign * (3.0 * v + 1.0) for v in x]
        assert ols_slope_test(x, y) == (sign * 3.0, 0.0)


def per_day_segments(series, change_dates, alpha):
    """Segments from a per-day walk: each day tested against each span."""
    days = series.dates.tolist()
    values = series.metric_values().tolist()
    starts = [series.start_date] + sorted(set(change_dates))
    ends = [d - dt.timedelta(days=1) for d in starts[1:]] + [series.end_date]
    out = []
    for start, end in zip(starts, ends):
        rows = [(d, v) for d, v in zip(days, values) if start <= d <= end]
        x = [(d - rows[0][0]).days for d, _ in rows]
        y = [v for _, v in rows]
        slope, p = ols_slope_test(x, y)
        trend = "stable"
        if p < alpha and slope != 0:
            trend = "improving" if slope > 0 else "declining"
        mean = float(np.mean(y)) if y else 0.0
        out.append((start, end, trend, slope, p, mean, len(rows)))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_segments_match_per_day_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 120))
    dates = [START + dt.timedelta(days=int(d)) for d in np.cumsum(rng.integers(1, 4, n))]
    series = series_from_ctr(np.clip(0.02 + np.cumsum(rng.normal(0, 0.001, n)), 0.001, 0.1), dates=dates)
    # change dates may fall in calendar gaps, so some segments are short or empty
    span = (dates[-1] - dates[0]).days
    change_dates = [dates[0] + dt.timedelta(days=int(d)) for d in rng.integers(1, span, 4)]
    segments = segment_series(series, change_dates, alpha=0.2)
    assert [
        (s.start_date, s.end_date, s.trend, s.slope, s.p_value, s.mean_metric, s.n_points)
        for s in segments
    ] == per_day_segments(series, change_dates, 0.2)


class TestSegmentSeries:
    def test_no_change_points_single_span(self, constant_series):
        segments = segment_series(constant_series, [])
        assert len(segments) == 1
        assert segments[0].start_date == day(1)
        assert segments[0].end_date == day(120)

    def test_single_change_point_splits_at_date(self, sharp_series):
        segments = segment_series(sharp_series, [day(61)])
        assert [(s.start_date, s.end_date) for s in segments] == [
            (day(1), day(60)),
            (day(61), day(120)),
        ]

    def test_two_change_points_partition(self, sharp_series):
        segments = segment_series(sharp_series, [day(40), day(80)])
        assert len(segments) == 3
        for left, right in zip(segments[:-1], segments[1:]):
            assert right.start_date == left.end_date + dt.timedelta(days=1)
        assert segments[0].start_date == day(1)
        assert segments[-1].end_date == day(120)

    def test_out_of_span_rejected(self, sharp_series):
        with pytest.raises(InvalidInputError):
            segment_series(sharp_series, [day(500)])

    def test_mean_metric_per_segment(self, sharp_series):
        segments = segment_series(sharp_series, [day(61)])
        assert segments[0].mean_metric == pytest.approx(0.02, rel=1e-9)
        assert segments[1].mean_metric == pytest.approx(0.008, rel=1e-9)


def test_report_serialization_shape(sharp_series):
    report = detect(sharp_series, DetectorConfig(window=14, threshold_k=1.5))
    data = report.to_dict()
    assert data["schema_version"] == 1
    assert data["threshold"] == data["mean_distance"] + 1.5 * data["std_distance"]
    assert len(data["distances"]) == 93
    assert data["segments"][0]["trend"] in ("improving", "declining", "stable")
    json.dumps(data)  # serializable
