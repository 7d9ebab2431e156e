"""Signature-distance change point detection and trend segmentation.

The detector slides a pair of adjacent, non-overlapping windows across
the series.  Each window becomes a 2-D polyline (normalized time vs.
min-max scaled metric, scale shared across the pair), closed into a
loop through the origin: the path starts at (0, 0), rises to the first
observation, traverses the window and drops back to baseline at (1, 0).
Signatures are translation invariant, so without the closure two
windows sitting at different levels would be indistinguishable; with it
the enclosed-area terms encode each window's level while higher terms
keep their sensitivity to trend and volatility shape.  The Euclidean
distance between the truncated signatures of the two loops is the test
statistic; a boundary is flagged when its distance exceeds
mean + k * std of all distances.  Flag runs are merged, the series is
partitioned at the surviving change points, and each segment gets a
trend label from an ordinary least squares slope test.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidInputError
from .sigcore import batch_signature
from .windowing import SCHEMA_VERSION, TimeSeries, _array_dicts, _record_dict, pair_paths

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

    ``window`` is counted in observations and ``depth`` is at most
    ``MAX_DEPTH``.  ``threshold_k`` scales the flagging threshold
    mean + k * std.  ``merge_gap`` is the maximum day spacing at which
    exceedance flags are absorbed into a single change point; ``None``
    means "same as window", 0 disables merging.
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
        if self.window < 2:
            raise InvalidInputError(f"window must be >= 2, got {self.window}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise InvalidInputError(f"depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        if not 0 < self.threshold_k < np.inf:
            raise InvalidInputError(f"threshold_k must be finite and > 0, got {self.threshold_k}")
        if not 0 < self.alpha < 1:
            raise InvalidInputError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.merge_gap is not None and self.merge_gap < 0:
            raise InvalidInputError(f"merge_gap must be >= 0, got {self.merge_gap}")
        if self.feature_mode not in FEATURE_MODES:
            raise InvalidInputError(
                f"feature_mode must be one of {FEATURE_MODES}, got {self.feature_mode!r}"
            )

    @property
    def effective_merge_gap(self) -> int:
        return self.window if self.merge_gap is None else self.merge_gap

    def to_dict(self) -> dict:
        return {**_record_dict(self), "merge_gap": self.effective_merge_gap}


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
        return {
            **_record_dict(self),
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "distances": _array_dicts(self.distances),
            "change_points": [_record_dict(c) for c in self.change_points],
            "segments": [_record_dict(s) for s in self.segments],
        }


def distance_series(series: TimeSeries, cfg: DetectorConfig) -> np.ndarray:
    """Signature distance at every window-pair boundary, in date order.

    Returns a structured array with one record per pair: ``date``
    (``datetime64[D]``, the first date of the right window) and
    ``distance`` (float).
    """
    dates, left, right = pair_paths(series, cfg.window)
    n_pairs, window, _ = left.shape
    # close each window path into a loop (0, 0) -> path -> (1, 0) so that
    # window level survives the signature's translation invariance
    loops = np.zeros((2 * n_pairs, window + 2, 2))
    loops[:n_pairs, 1:-1] = left
    loops[n_pairs:, 1:-1] = right
    loops[:, -1, 0] = 1.0
    del left, right  # the loops hold a copy; keep peak memory to one of them
    features = batch_signature(loops, cfg.depth, log=cfg.feature_mode == "log")
    diff = features[:n_pairs] - features[n_pairs:]
    out = np.empty(n_pairs, dtype=DISTANCE_DTYPE)
    out["date"] = dates
    # one dot product per row is what np.linalg.norm computes for a real
    # vector, so each distance rounds exactly as sig_distance does; a
    # batched sum of squares would round differently
    out["distance"] = np.sqrt([row @ row for row in diff])
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


def flag_change_points(distances, cfg: DetectorConfig) -> tuple:
    """Threshold a distance series and merge its flags into change points.

    ``distances`` is the array ``distance_series`` returns.  A boundary
    is flagged when its distance exceeds mean + k * std of all
    distances; flags are merged within ``cfg.effective_merge_gap`` days.
    Returns (mean, std, threshold, change points).
    """
    # a contiguous copy reduces exactly as the array of a fresh list did
    values = np.ascontiguousarray(distances["distance"])
    mean = float(values.mean())
    std = float(values.std())  # population form: deterministic for n = 1
    threshold = mean + cfg.threshold_k * std
    dates = distances["date"]
    flagged = np.flatnonzero(values > threshold)
    change_points = tuple(
        ChangePoint(date=dates[i].item(), distance=float(values[i]), threshold=threshold)
        for i in _merge_flags(
            dates.view(np.int64).tolist(), values, flagged, cfg.effective_merge_gap
        )
    )
    return mean, std, threshold, change_points


def ols_slope_test(x, y) -> tuple:
    """OLS slope of ``y`` on ``x`` plus its two-sided t-test p-value.

    Returns (slope, p_value).  Fewer than 2 points give (0, 1); exactly
    2 points fit a slope with no residual degrees of freedom, so p = 1.
    A zero standard error gives p = 1 for a zero slope, else p = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 2:
        return 0.0, 1.0
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean()) / sxx)
    if n < 3:
        return slope, 1.0
    resid = y - (y.mean() + slope * xc)
    ssr = float(resid @ resid)
    se = np.sqrt(ssr / (n - 2) / sxx)
    if se == 0.0:
        return slope, 1.0 if slope == 0.0 else 0.0
    # the Student t survival function, as scipy.stats.t.sf evaluates it
    return slope, float(2.0 * special.stdtr(n - 2, -(abs(slope) / se)))


def classify_trend(days, values, alpha: float = 0.05) -> tuple:
    """OLS slope of ``values`` on ``days`` plus a two-sided t-test.

    Returns (trend, slope, p_value).  Slopes are in metric units per
    day.  Segments with fewer than 3 points are stable with p = 1.
    """
    slope, p_value = ols_slope_test(days, values)
    if p_value < alpha and slope > 0:
        return "improving", slope, p_value
    if p_value < alpha and slope < 0:
        return "declining", slope, p_value
    return "stable", slope, p_value


def segment_series(series: TimeSeries, change_dates, alpha: float = 0.05) -> list:
    """Partition the series span at change point dates and label trends.

    n change points produce n + 1 contiguous calendar segments; each
    change point date starts a new segment.
    """
    change_dates = sorted(set(change_dates))
    for d in change_dates:
        if not (series.start_date <= d <= series.end_date):
            raise InvalidInputError(
                f"change point {d} outside series span "
                f"[{series.start_date}, {series.end_date}]"
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
    segments = tuple(
        segment_series(series, [c.date for c in change_points], cfg.alpha)
    )
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
