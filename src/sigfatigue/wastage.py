"""Financial opportunity cost of running a fatigued creative.

The benchmark is the creative's own best period: the stable-or-improving
segment with the highest mean click-through rate.  Every day after that
segment, the clicks the creative would have earned at benchmark rate but
did not are priced at the benchmark cost per click.  Currency is opaque
and carried through from the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Segment
from .errors import ConfigurationError, InvalidInputError
from .windowing import SCHEMA_VERSION, TimeSeries, _array_dicts, _record_dict

__all__ = [
    "WastageReport",
    "select_benchmark",
    "lost_clicks",
    "compute_wastage",
]


DAILY_DTYPE = np.dtype(
    [("date", "datetime64[D]"), ("lost_clicks", float), ("wastage", float)]
)


@dataclass(frozen=True, eq=False)
class WastageReport:
    """A wastage result; ``daily`` is a ``DAILY_DTYPE`` array with one
    (date, lost_clicks, wastage) record per day after the benchmark."""

    benchmark: Segment
    benchmark_is_fallback: bool
    ctr_benchmark: float
    cpc_benchmark: float
    daily: np.ndarray
    total_wastage: float

    def to_dict(self) -> dict:
        """The report's fields; ``benchmark`` is summarised by its span,
        trend and mean metric."""
        benchmark = _record_dict(self.benchmark)
        return {
            **_record_dict(self),
            "schema_version": SCHEMA_VERSION,
            "benchmark": {
                key: benchmark[key] for key in ("start_date", "end_date", "trend", "mean_metric")
            },
            "daily": _array_dicts(self.daily),
        }


def select_benchmark(segments) -> tuple:
    """Pick the benchmark segment.

    Returns (segment, is_fallback): the stable-or-improving segment with
    the highest mean metric, or, when every segment declines, the best
    segment overall with the fallback flag set.
    """
    segments = list(segments)
    if not segments:
        raise InvalidInputError("cannot select a benchmark from zero segments")
    eligible = [s for s in segments if s.trend in ("stable", "improving")]
    if eligible:
        return max(eligible, key=lambda s: (s.mean_metric, s.start_date.toordinal() * -1)), False
    return max(segments, key=lambda s: (s.mean_metric, s.start_date.toordinal() * -1)), True


def lost_clicks(ctr_bench: float, ctr_t: float, impressions_t: float) -> float:
    """Clicks forgone on a day relative to benchmark rate; never negative."""
    if ctr_bench < 0 or ctr_t < 0 or impressions_t < 0:
        raise InvalidInputError("lost_clicks inputs must be nonnegative")
    if ctr_bench > 1 or ctr_t > 1:
        raise InvalidInputError("click-through rates cannot exceed 1")
    return max(0.0, ctr_bench - ctr_t) * impressions_t


def _benchmark_cpc(series: TimeSeries, bench: slice, user_cpc: float | None) -> float:
    costed = series.cost is not None
    total_clicks = int(series.clicks[bench].sum())
    if costed and total_clicks > 0:
        # left to right, as a Python sum rounds
        return sum(series.cost[bench].tolist()) / total_clicks
    if user_cpc is not None:
        if not 0 <= user_cpc < math.inf:
            raise ConfigurationError("cpc must be finite and nonnegative")
        return float(user_cpc)
    if costed:
        raise ConfigurationError(
            "benchmark segment has zero clicks, so cost data cannot yield a CPC; "
            "pass an explicit cpc"
        )
    raise ConfigurationError(
        "series has no cost column and no cpc was supplied; pass an explicit cpc"
    )


def compute_wastage(
    series: TimeSeries,
    segments,
    cpc: float | None = None,
) -> WastageReport:
    """Daily and total wastage for every date after the benchmark segment.

    The benchmark rate is the mean daily click-through rate over the
    benchmark segment.  The benchmark cost per click comes from the
    segment's cost data (total cost / total clicks) when present, else
    from the ``cpc`` argument.  Days that beat the benchmark clamp to
    zero rather than offsetting (see ``lost_clicks``).
    """
    benchmark, fallback = select_benchmark(segments)
    lo = int(series.dates.searchsorted(benchmark.start_date))
    hi = int(series.dates.searchsorted(benchmark.end_date, side="right"))
    if hi <= lo:
        raise InvalidInputError(
            "benchmark segment contains no observations of this series"
        )
    ctr = series.metric_values("ctr")
    # fsum keeps the constant-rate case exactly at the shared value, so a
    # day matching the benchmark rate prices to exactly zero
    ctr_bench = math.fsum(ctr[lo:hi].tolist()) / (hi - lo)
    cpc_bench = _benchmark_cpc(series, slice(lo, hi), cpc)

    # lost_clicks for every day after the benchmark at once
    daily = np.empty(len(series) - hi, dtype=DAILY_DTYPE)
    daily["date"] = series.dates[hi:]
    daily["lost_clicks"] = (ctr_bench - ctr[hi:]).clip(min=0.0) * series.impressions[hi:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        daily["wastage"] = daily["lost_clicks"] * cpc_bench
    try:
        total = math.fsum(daily["wastage"].tolist())
    except OverflowError:
        total = math.inf
    if not math.isfinite(cpc_bench + total):
        raise InvalidInputError("wastage overflows the float range; check cost and cpc")
    return WastageReport(
        benchmark=benchmark,
        benchmark_is_fallback=fallback,
        ctr_benchmark=ctr_bench,
        cpc_benchmark=cpc_bench,
        daily=daily,
        total_wastage=total,
    )
