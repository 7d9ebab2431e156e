import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from sigfatigue.detector import Segment
from sigfatigue.errors import ConfigurationError, InvalidInputError
from sigfatigue.wastage import compute_wastage, select_benchmark

from conftest import START, series_from_ctr
from oracle_utils import lost_clicks


def seg(start, end, trend, mean):
    return Segment(
        start_date=START + dt.timedelta(days=start - 1),
        end_date=START + dt.timedelta(days=end - 1),
        trend=trend,
        slope=0.0,
        p_value=1.0,
        mean_metric=mean,
        n_points=end - start + 1,
    )


class TestSelectBenchmark:
    def test_best_healthy_segment_wins(self):
        segments = [
            seg(1, 30, "improving", 0.02),
            seg(31, 60, "stable", 0.015),
            seg(61, 90, "declining", 0.01),
        ]
        best, fallback = select_benchmark(segments)
        assert best.mean_metric == 0.02
        assert fallback is False

    def test_all_declining_falls_back_to_best(self):
        segments = [seg(1, 30, "declining", 0.02), seg(31, 60, "declining", 0.01)]
        best, fallback = select_benchmark(segments)
        assert best.mean_metric == 0.02
        assert fallback is True

    def test_single_stable_segment(self):
        segments = [seg(1, 120, "stable", 0.018)]
        best, fallback = select_benchmark(segments)
        assert best is segments[0]
        assert fallback is False

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            select_benchmark([])


class TestLostClicks:
    def test_shortfall(self):
        assert lost_clicks(0.02, 0.015, 10_000) == pytest.approx(50.0)

    def test_overperformance_clamps_to_zero(self):
        assert lost_clicks(0.02, 0.025, 10_000) == 0.0

    def test_equal_rates(self):
        assert lost_clicks(0.02, 0.02, 10_000) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            lost_clicks(-0.01, 0.01, 100)

    def test_rejects_rates_above_one(self):
        with pytest.raises(InvalidInputError):
            lost_clicks(1.5, 0.01, 100)


def test_daily_rows_equal_per_day_lost_clicks():
    rng = np.random.default_rng(3)
    series = series_from_ctr(rng.uniform(0.005, 0.03, 60), impressions=40_000, cost_per_click=0.8)
    segments = [seg(1, 25, "stable", 0.0), seg(26, 60, "declining", 0.0)]
    report = compute_wastage(series, segments)
    ctr = series.clicks / series.impressions
    expected = [
        lost_clicks(report.ctr_benchmark, float(c), int(i))
        for c, i in zip(ctr[25:], series.impressions[25:])
    ]
    assert report.daily["lost_clicks"].tolist() == expected
    assert report.daily["wastage"].tolist() == [n * report.cpc_benchmark for n in expected]
    assert report.cpc_benchmark == sum(series.cost[:25].tolist()) / int(series.clicks[:25].sum())


class TestComputeWastage:
    def build(self, bench_ctr=0.02, post_ctr=0.01, impressions=100_000, cost_per_click=None):
        ctrs = [bench_ctr] * 30 + [post_ctr] * 30
        return series_from_ctr(ctrs, impressions=impressions, cost_per_click=cost_per_click)

    def segments(self):
        return [seg(1, 30, "stable", 0.02), seg(31, 60, "declining", 0.01)]

    def test_documented_daily_arithmetic(self):
        series = self.build()
        report = compute_wastage(series, self.segments(), cpc=1.25)
        assert report.daily["lost_clicks"][0] == pytest.approx(1000.0, rel=1e-12)
        assert report.daily["wastage"][0] == pytest.approx(1250.0, rel=1e-12)
        assert report.total_wastage == pytest.approx(30 * 1250.0, rel=1e-12)

    def test_no_shortfall_means_zero_total(self):
        series = self.build(post_ctr=0.02)
        report = compute_wastage(series, self.segments(), cpc=1.25)
        assert report.total_wastage == 0.0
        assert all(n == 0.0 for n in report.daily["lost_clicks"].tolist())

    def test_sum_of_daily(self):
        series = series_from_ctr([0.02] * 30 + [0.015, 0.017] , impressions=10_000)
        segments = [seg(1, 30, "stable", 0.02), seg(31, 32, "stable", 0.016)]
        report = compute_wastage(series, segments, cpc=2.0)
        assert report.total_wastage == pytest.approx(
            sum(report.daily["wastage"].tolist()), abs=1e-9
        )
        assert report.daily["wastage"][0] == pytest.approx((0.02 - 0.015) * 10_000 * 2.0)

    def test_daily_rows_strictly_after_benchmark(self):
        series = self.build()
        report = compute_wastage(series, self.segments(), cpc=1.0)
        assert len(report.daily) == 30
        assert all(d > report.benchmark.end_date for d in report.daily["date"].tolist())

    def test_cost_column_yields_cpc(self):
        series = self.build(cost_per_click=1.25)
        report = compute_wastage(series, self.segments())
        assert report.cpc_benchmark == pytest.approx(1.25, rel=1e-12)

    def test_segments_of_another_series_rejected(self):
        series = self.build()
        later = replace(series, dates=series.dates + np.timedelta64(365, "D"))
        with pytest.raises(InvalidInputError, match="no observations"):
            compute_wastage(later, self.segments(), cpc=1.0)

    def test_cpc_overrides_cost_column(self):
        series = self.build(cost_per_click=1.1)
        report = compute_wastage(series, self.segments(), cpc=5.0)
        assert report.cpc_benchmark == 5.0
        assert report.total_wastage == pytest.approx(30 * 1000.0 * 5.0, rel=1e-12)

    # (1e305, None): each day's product is finite, and only the 30-day sum overflows
    @pytest.mark.parametrize(
        "cpc, cost_per_click", [(1e306, None), (None, 1e304), (1e305, None)]
    )
    def test_overflowing_wastage_rejected(self, cpc, cost_per_click):
        series = self.build(cost_per_click=cost_per_click)
        with pytest.raises(InvalidInputError, match="overflows"):
            compute_wastage(series, self.segments(), cpc=cpc)

    def test_cpc_must_be_a_nonnegative_real_number(self):
        series = self.build()
        for cpc in ("1", True):
            with pytest.raises(ConfigurationError, match=r"^cpc must be a real number in \[0, inf"):
                compute_wastage(series, self.segments(), cpc=cpc)
        assert compute_wastage(series, self.segments(), cpc=np.float64(0.0)).total_wastage == 0.0

    def test_explicit_cpc_required_without_cost(self):
        series = self.build()
        with pytest.raises(ConfigurationError, match="cpc"):
            compute_wastage(series, self.segments())

    def test_zero_click_benchmark_with_cost_data(self):
        ctrs = [0.0] * 30 + [0.01] * 30
        series = series_from_ctr(ctrs, impressions=1_000, cost_per_click=None)
        series = replace(series, cost=np.full(len(series), 5.0))
        segments = [seg(1, 30, "stable", 0.0), seg(31, 60, "declining", 0.01)]
        with pytest.raises(ConfigurationError, match="zero clicks"):
            compute_wastage(series, segments)
        # an explicit cpc rescues the degenerate benchmark
        report = compute_wastage(series, segments, cpc=2.0)
        assert report.cpc_benchmark == 2.0

    def test_impression_scaling_scales_wastage(self):
        small = compute_wastage(self.build(impressions=50_000), self.segments(), cpc=1.0)
        large = compute_wastage(self.build(impressions=150_000), self.segments(), cpc=1.0)
        assert large.total_wastage == pytest.approx(3 * small.total_wastage, rel=1e-9)

    def test_fallback_flag_propagates(self):
        series = self.build()
        segments = [seg(1, 30, "declining", 0.02), seg(31, 60, "declining", 0.01)]
        report = compute_wastage(series, segments, cpc=1.0)
        assert report.benchmark_is_fallback is True

    def test_recovery_days_clamp_rather_than_offset(self):
        ctrs = [0.02] * 30 + [0.01] * 15 + [0.03] * 15
        series = series_from_ctr(ctrs, impressions=100_000)
        segments = [seg(1, 30, "stable", 0.02), seg(31, 60, "stable", 0.02)]
        report = compute_wastage(series, segments, cpc=1.0)
        assert report.total_wastage == pytest.approx(15 * 0.01 * 100_000, rel=1e-9)

    def test_report_serializes(self):
        report = compute_wastage(self.build(), self.segments(), cpc=1.25)
        data = report.to_dict()
        assert data["total_wastage"] == report.total_wastage
        assert len(data["daily"]) == 30
