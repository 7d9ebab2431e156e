"""Signature-distance change point detection and trend segmentation.

The detector slides a pair of adjacent, non-overlapping windows across
the series and compares them as paths.  ``windowing.pair_paths`` owns
that geometry: each window becomes a loop of normalized time against
the metric, scaled over the pair and closed through the baseline, and
its docstring says why.  The Euclidean distance between the truncated
signatures of the two loops is the test statistic; a boundary is
flagged when its distance exceeds mean + k * std of all distances.
Flag runs are merged, the series is partitioned at the surviving change
points, and each segment gets a trend label from an ordinary least
squares slope test.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_number, number_error
from .sigcore import _block_paths, batch_signature
from .windowing import TimeSeries, _pool_paths, _record_dict

__all__ = [
    "DetectorConfig",
    "ChangePoint",
    "Segment",
    "ChangePointReport",
    "distance_series",
    "flag_change_points",
    "detect",
    "ols_slope_test",
    "classify_trend",
    "segment_series",
]

FEATURE_MODES = ("full", "log")
# a depth-d signature of a planar path has 2^(d+1) - 2 terms, so each
# level roughly doubles the kernel's work
MAX_DEPTH = 8
DISTANCE_DTYPE = np.dtype([("date", "datetime64[D]"), ("distance", float)])


@dataclass(frozen=True)
class DetectorConfig:
    """Detection parameters.

    ``window`` is counted in observations and ``depth`` runs from 2 to
    ``MAX_DEPTH``.  ``threshold_k`` scales the flagging threshold
    mean + k * std.  ``merge_gap`` is the maximum day spacing at which
    exceedance flags are absorbed into a single change point; 0 disables
    merging, and ``None`` stores ``window``, so the field always holds
    the gap that is applied.
    ``feature_mode`` selects the full signature vector or its tensor
    logarithm as the feature fed to the distance.
    """

    window: int = 14
    depth: int = 3
    threshold_k: float = 2.0
    alpha: float = 0.05
    merge_gap: int | None = None
    feature_mode: str = "full"

    def __post_init__(self):
        check_number("window", self.window, 2, math.inf, integer=True)
        reason = number_error("depth", self.depth, 2, MAX_DEPTH, integer=True)
        if reason:  # a depth-1 distance is rounding residue
            raise InvalidInputError(f"{reason}: level 1 of every window's closed loop is (1, 0)")
        check_number("threshold_k", self.threshold_k, 0, math.inf, open_lo=True)
        check_number("alpha", self.alpha, 0, 1, open_lo=True, open_hi=True)
        if self.merge_gap is None:
            object.__setattr__(self, "merge_gap", self.window)
        check_number("merge_gap", self.merge_gap, 0, math.inf, integer=True)
        if self.feature_mode not in FEATURE_MODES:
            raise InvalidInputError(
                f"feature_mode must be one of {FEATURE_MODES}, got {self.feature_mode!r}"
            )


@dataclass(frozen=True)
class ChangePoint:
    date: dt.date
    distance: float
    threshold: float


@dataclass(frozen=True)
class Segment:
    start_date: dt.date
    end_date: dt.date
    trend: str
    slope: float
    p_value: float
    mean_metric: float
    n_points: int


@dataclass(frozen=True, eq=False)
class ChangePointReport:
    """A detection result; ``distances`` is the array ``distance_series``
    returns, one (date, distance) record per window pair."""

    config: DetectorConfig
    metric: str
    distances: np.ndarray
    mean_distance: float
    std_distance: float
    threshold: float
    change_points: tuple
    segments: tuple

    def to_dict(self) -> dict:
        return _record_dict(self)


def distance_series(series: TimeSeries, cfg: DetectorConfig) -> np.ndarray:
    """Signature distance at every window-pair boundary, in date order.

    Returns a structured array with one record per pair: ``date``
    (``datetime64[D]``, the first date of the right window) and
    ``distance`` (float).
    """
    return _pooled_distances([series], cfg)[0]


def _pooled_distances(series_list, cfg: DetectorConfig) -> list:
    """``distance_series(s, cfg)`` for each series s of ``series_list``.

    Runs of whole series whose loops fit one kernel block, or a single
    series that does not, share one ``batch_signature`` call over their
    loops, stacked along the pair axis.  Kernel rows do not depend on the
    split, so each array equals the one-series call bit for bit.
    """
    block = _block_paths(cfg.window + 2, 2, cfg.depth)
    pools, size = [], 0
    for series in series_list:
        n_loops = 2 * (len(series) - 2 * cfg.window + 1)
        if not pools or size + n_loops > block:
            pools.append([])
            size = 0
        pools[-1].append(series)
        size += n_loops
    out = []
    for pool in pools:
        dates, loops = _pool_paths(pool, cfg.window)  # (side, pair, vertex, coordinate)
        features = batch_signature(
            loops.reshape(-1, cfg.window + 2, 2), cfg.depth, log=cfg.feature_mode == "log"
        )
        left, right = features.reshape(2, loops.shape[1], -1)
        diff = left - right
        points = np.empty(len(diff), dtype=DISTANCE_DTYPE)
        points["date"] = dates
        # vecdot rounds each row as row @ row does; test_distance_is_bit_equal_to_row_norm is the guard
        points["distance"] = np.sqrt(np.vecdot(diff, diff))
        n_pairs = [len(series) - 2 * cfg.window + 1 for series in pool[:-1]]
        out.extend(np.split(points, np.cumsum(n_pairs)))
    return out


def _merge_flags(days, values, flagged, merge_gap: int) -> list:
    """Absorb flags into their strongest neighbour within ``merge_gap`` days.

    Flags (indices into ``days`` and ``values``) are visited in
    decreasing distance order (ties: earlier date); a flag within
    merge_gap days of an already emitted change point is absorbed by it.
    Raising the threshold only truncates the visit order, so the emitted
    set at a higher threshold is always a subset of the emitted set at a
    lower one.  Returns the emitted indices in date order.
    """
    emitted = []
    for i in flagged[np.argsort(-values[flagged], kind="stable")].tolist():
        if all(abs(days[i] - days[e]) > merge_gap for e in emitted):
            emitted.append(i)
    return sorted(emitted)


def _moments(distances) -> tuple:
    """(values, mean, std) of a distance series: the distances as one
    contiguous array, and the mean and std every threshold is taken from."""
    # a contiguous copy reduces exactly as the array of a fresh list did
    values = np.ascontiguousarray(distances["distance"])
    return values, float(values.mean()), float(values.std())  # population std: n = 1 gives 0


def _kept_flags(distances, moments, threshold_k: float, merge_gap: int) -> tuple:
    """(threshold, kept): the threshold mean + threshold_k * std of a
    distance series with ``moments = _moments(distances)``, and the
    indices, in date order, of the flags over it that survive merging
    within ``merge_gap`` days."""
    values, mean, std = moments
    threshold = mean + threshold_k * std
    flagged = np.flatnonzero(values > threshold)
    if merge_gap == 0:  # dates strictly increase, so no two flags are 0 days apart
        return threshold, flagged.tolist()
    days = distances["date"].view(np.int64).tolist()
    return threshold, _merge_flags(days, values, flagged, merge_gap)


def flag_change_points(distances, cfg: DetectorConfig) -> tuple:
    """Threshold a distance series and merge its flags into change points.

    ``distances`` is the array ``distance_series`` returns.  A boundary
    is flagged when its distance exceeds mean + k * std of all
    distances; flags are merged within ``cfg.merge_gap`` days.
    Returns (mean, std, threshold, change points).
    """
    moments = _moments(distances)
    values, mean, std = moments
    threshold, kept = _kept_flags(distances, moments, cfg.threshold_k, cfg.merge_gap)
    dates = distances["date"]
    change_points = tuple(
        ChangePoint(date=dates[i].item(), distance=float(values[i]), threshold=threshold)
        for i in kept
    )
    return mean, std, threshold, change_points


def ols_slope_test(x, y) -> tuple:
    """OLS slope of ``y`` on ``x`` plus its two-sided t-test p-value.

    ``x`` and ``y`` are one sample of ``n`` points or a stack of them,
    shape ``(..., n)``.  Returns (slope, p_value): two floats for one
    sample, else two arrays of the stack's shape, each row equal to the
    one-sample call on that row.  Fewer than 2 points give (0, 1);
    exactly 2 points fit a slope with no residual degrees of freedom, so
    p = 1.  A zero standard error gives p = 1 for a zero slope, else 0.
    """
    # imported here, not with the module: only the trend test needs scipy (~370 ms)
    from scipy import special

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[-1]
    # the np.where branches below replace what too few points or a zero
    # standard error make of the formula (0/0, x/0); sum / n is what
    # mean() computes, without its warning on an empty sample
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x - x.sum(axis=-1, keepdims=True) / n
        y_mean = y.sum(axis=-1, keepdims=True) / n
        sxx = np.vecdot(xc, xc)
        slope = np.vecdot(xc, y - y_mean) / sxx
        resid = y - (y_mean + slope[..., None] * xc)
        se = np.sqrt(np.vecdot(resid, resid) / (n - 2) / sxx)
        # the Student t survival function, as scipy.stats.t.sf evaluates it
        p_value = 2.0 * special.stdtr(n - 2, -(np.abs(slope) / se))
    p_value = np.where(se == 0.0, np.where(slope == 0.0, 1.0, 0.0), p_value)
    p_value = np.where(n < 3, 1.0, p_value)
    slope = np.where(n < 2, 0.0, slope)
    if slope.ndim == 0:
        return float(slope), float(p_value)
    return slope, p_value


def classify_trend(days, values, alpha: float = 0.05) -> tuple:
    """OLS slope of ``values`` on ``days`` plus a two-sided t-test.

    Returns (trend, slope, p_value).  Slopes are in metric units per
    day.  Segments with fewer than 3 points are stable with p = 1.
    """
    check_number("alpha", alpha, 0, 1, open_lo=True, open_hi=True)
    slope, p_value = ols_slope_test(days, values)
    if p_value < alpha and slope > 0:
        return "improving", slope, p_value
    if p_value < alpha and slope < 0:
        return "declining", slope, p_value
    return "stable", slope, p_value


def segment_series(series: TimeSeries, change_dates, alpha: float = 0.05) -> list:
    """Partition the series span at change point dates and label trends.

    n change points produce n + 1 contiguous calendar segments; each
    change point date starts a new segment, so it must fall after the
    series' first date and no later than its last.
    """
    change_dates = sorted(set(change_dates))
    for d in change_dates:
        if not (series.start_date < d <= series.end_date):
            raise InvalidInputError(
                f"change point {d} outside series span "
                f"({series.start_date}, {series.end_date}]"
            )
    starts = [series.start_date] + change_dates
    ends = [d - dt.timedelta(days=1) for d in change_dates] + [series.end_date]
    # segment i holds the observations dated from starts[i] up to the next start
    cuts = series.dates.searchsorted(starts).tolist()
    cuts.append(len(series))
    offsets = series.day_offsets()
    values = series.metric_values()
    segments = []
    for start, end, lo, hi in zip(starts, ends, cuts[:-1], cuts[1:]):
        # offsets from the segment's first observation, as the trend is fitted
        trend, slope, p_value = classify_trend(
            offsets[lo:hi] - offsets[lo : lo + 1], values[lo:hi], alpha
        )
        segments.append(
            Segment(
                start_date=start,
                end_date=end,
                trend=trend,
                slope=slope,
                p_value=p_value,
                mean_metric=float(np.mean(values[lo:hi])) if hi > lo else 0.0,
                n_points=hi - lo,
            )
        )
    return segments


def detect(series: TimeSeries, cfg: DetectorConfig | None = None) -> ChangePointReport:
    """Full detection pipeline: distances, threshold, merge, segment."""
    cfg = cfg or DetectorConfig()
    distances = distance_series(series, cfg)
    mean, std, threshold, change_points = flag_change_points(distances, cfg)
    segments = tuple(segment_series(series, [c.date for c in change_points], cfg.alpha))
    return ChangePointReport(
        config=cfg,
        metric=series.metric,
        distances=distances,
        mean_distance=mean,
        std_distance=std,
        threshold=threshold,
        change_points=change_points,
        segments=segments,
    )
