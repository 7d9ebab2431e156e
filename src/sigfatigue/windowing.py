"""Time-series model, window extraction and unit-square normalization.

Daily observations carry impressions, clicks and optional spend; the
click-through rate is derived, never stored.  Windows are counted in
observations (not calendar days) so gapped series still form full
windows, while real calendar spacing is preserved inside the normalized
time coordinate.

Input CSV contract: header ``date,impressions,clicks`` with an optional
trailing ``cost`` column, ISO-8601 dates, one row per day.  Days with
zero impressions have no defined click-through rate and are dropped at
ingestion with a warning.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvFormatError,
    InsufficientDataError,
    InvalidInputError,
)

__all__ = [
    "SeriesPoint",
    "TimeSeries",
    "NormalizedPath",
    "WindowPair",
    "window_pairs",
    "normalize_window",
    "normalize_window_pair",
    "read_series_csv",
    "write_series_csv",
]

METRICS = ("ctr", "clicks", "impressions", "cost")


@dataclass(frozen=True)
class SeriesPoint:
    """One day of campaign performance."""

    date: dt.date
    impressions: int
    clicks: int
    cost: float | None = None

    def __post_init__(self):
        if self.impressions <= 0:
            raise InvalidInputError(
                f"{self.date}: impressions must be positive (zero-impression days "
                "are excluded at ingestion)"
            )
        if self.clicks < 0 or self.clicks > self.impressions:
            raise InvalidInputError(
                f"{self.date}: clicks must satisfy 0 <= clicks <= impressions"
            )
        if self.cost is not None and not 0 <= self.cost < math.inf:
            raise InvalidInputError(f"{self.date}: cost must be finite and nonnegative")

    @property
    def ctr(self) -> float:
        return self.clicks / self.impressions

    def metric(self, name: str) -> float:
        if name == "ctr":
            return self.ctr
        if name == "clicks":
            return float(self.clicks)
        if name == "impressions":
            return float(self.impressions)
        if name == "cost":
            if self.cost is None:
                raise InvalidInputError(f"{self.date}: no cost recorded")
            return self.cost
        raise InvalidInputError(f"unknown metric {name!r}, expected one of {METRICS}")


@dataclass(frozen=True)
class TimeSeries:
    """Date-ordered daily observations plus the metric under analysis."""

    points: tuple = ()
    metric: str = "ctr"

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 1:
            raise InvalidInputError("series must contain at least one point")
        for prev, cur in zip(pts[:-1], pts[1:]):
            if cur.date <= prev.date:
                raise InvalidInputError(
                    f"dates must be strictly increasing, got {prev.date} then {cur.date}"
                )
        if self.metric not in METRICS:
            raise InvalidInputError(
                f"unknown metric {self.metric!r}, expected one of {METRICS}"
            )

    def __len__(self):
        return len(self.points)

    @property
    def start_date(self) -> dt.date:
        return self.points[0].date

    @property
    def end_date(self) -> dt.date:
        return self.points[-1].date

    @property
    def has_cost_data(self) -> bool:
        return all(p.cost is not None for p in self.points)

    def dates(self) -> list:
        return [p.date for p in self.points]

    def day_offsets(self) -> np.ndarray:
        """Days elapsed since the first observation, one entry per point."""
        d0 = self.start_date
        return np.array([(p.date - d0).days for p in self.points], dtype=float)

    def metric_values(self, name: str | None = None) -> np.ndarray:
        name = self.metric if name is None else name
        return np.array([p.metric(name) for p in self.points], dtype=float)

    def between(self, start: dt.date, end: dt.date) -> tuple:
        """Points with start <= date <= end."""
        return tuple(p for p in self.points if start <= p.date <= end)


@dataclass(frozen=True)
class NormalizedPath:
    """Polyline in the unit square: column 0 is time, column 1 the metric."""

    points: np.ndarray = field(default=None)

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise InvalidInputError("normalized path must be an (n>=2, 2) array")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("normalized path must be finite")
        if np.any(np.diff(arr[:, 0]) <= 0):
            raise InvalidInputError("normalized time must be strictly increasing")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidInputError("normalized coordinates must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)


@dataclass(frozen=True)
class WindowPair:
    """Two adjacent non-overlapping windows and their boundary date."""

    left: tuple
    right: tuple
    boundary_date: dt.date


def window_pairs(series: TimeSeries, window: int) -> list:
    """All adjacent window pairs of ``window`` observations, stride 1.

    The boundary date of a pair is the date of the first observation of
    the right window.  A series of T points yields T - 2*window + 1
    pairs.
    """
    if window < 2:
        raise InvalidInputError(f"window must be >= 2, got {window}")
    n = len(series)
    if n < 2 * window:
        raise InsufficientDataError(
            f"series has {n} observations but window={window} requires at least {2 * window}"
        )
    pts = series.points
    out = []
    for i in range(n - 2 * window + 1):
        left = pts[i : i + window]
        right = pts[i + window : i + 2 * window]
        out.append(WindowPair(left=left, right=right, boundary_date=right[0].date))
    return out


def _normalize_time(points) -> np.ndarray:
    d0 = points[0].date
    offsets = np.array([(p.date - d0).days for p in points], dtype=float)
    return offsets / offsets[-1]


def _minmax(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi == lo:
        # any constant window is geometrically a flat line; keep it
        # interior to the unit square
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def normalize_window(points, metric: str = "ctr") -> NormalizedPath:
    """Scale a window to the unit square.

    Time maps to [0, 1] by elapsed days, so calendar gaps survive as
    non-uniform spacing; the metric is min-max scaled over the window,
    with constant windows pinned to 0.5.
    """
    points = tuple(points)
    if len(points) < 2:
        raise InsufficientDataError(
            f"window needs at least 2 points, got {len(points)}"
        )
    values = np.array([p.metric(metric) for p in points], dtype=float)
    t = _normalize_time(points)
    y = _minmax(values, values.min(), values.max())
    return NormalizedPath(points=np.column_stack([t, y]))


def normalize_window_pair(left, right, metric: str = "ctr") -> tuple:
    """Normalize two adjacent windows with a shared metric scale.

    Each window keeps its own [0, 1] time axis, but the min-max scaling
    of the metric runs over the union of both windows.  The shared scale
    is what lets the downstream signature comparison see level shifts
    between the windows, which per-window scaling would erase.
    """
    left, right = tuple(left), tuple(right)
    if len(left) < 2 or len(right) < 2:
        raise InsufficientDataError("each window needs at least 2 points")
    values = np.array([p.metric(metric) for p in left + right], dtype=float)
    lo, hi = values.min(), values.max()
    y = _minmax(values, lo, hi)
    t_left, t_right = _normalize_time(left), _normalize_time(right)
    return (
        NormalizedPath(points=np.column_stack([t_left, y[: len(left)]])),
        NormalizedPath(points=np.column_stack([t_right, y[len(left) :]])),
    )


def read_series_csv(path, metric: str = "ctr") -> TimeSeries:
    """Load a series from the standard input CSV.

    Malformed rows raise :class:`CsvFormatError` naming the line number.
    Zero-impression rows are skipped with a warning.
    """
    points = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file", 1) from None
        header = [h.strip().lower() for h in header]
        if header[:3] != ["date", "impressions", "clicks"] or (
            len(header) == 4 and header[3] != "cost"
        ) or len(header) > 4:
            raise CsvFormatError(
                "header must be 'date,impressions,clicks[,cost]'", 1
            )
        has_cost = len(header) == 4
        prev_date = None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"expected {len(header)} fields, got {len(row)}", line_no
                )
            try:
                date = dt.date.fromisoformat(row[0].strip())
                impressions = int(row[1])
                clicks = int(row[2])
                cost = None
                if has_cost and row[3].strip() != "":
                    cost = float(row[3])
            except ValueError as exc:
                raise CsvFormatError(str(exc), line_no) from None
            if impressions == 0:
                warnings.warn(
                    f"{path}: dropping {date} (zero impressions, CTR undefined)",
                    stacklevel=2,
                )
                continue
            if prev_date is not None and date <= prev_date:
                raise CsvFormatError(
                    f"dates must be strictly increasing, got {date} after {prev_date}",
                    line_no,
                )
            prev_date = date
            try:
                points.append(
                    SeriesPoint(date=date, impressions=impressions, clicks=clicks, cost=cost)
                )
            except InvalidInputError as exc:
                raise CsvFormatError(str(exc), line_no) from None
    if not points:
        raise CsvFormatError("no usable observations", 1)
    return TimeSeries(points=tuple(points), metric=metric)


def write_series_csv(series: TimeSeries, path) -> None:
    """Write a series in the standard input CSV format."""
    with_cost = any(p.cost is not None for p in series.points)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["date", "impressions", "clicks", "cost"] if with_cost
            else ["date", "impressions", "clicks"]
        )
        for p in series.points:
            row = [p.date.isoformat(), p.impressions, p.clicks]
            if with_cost:
                row.append("" if p.cost is None else repr(p.cost))
            writer.writerow(row)
