"""Time-series model, CSV ingestion and window-pair normalization.

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
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CsvFormatError,
    InsufficientDataError,
    InvalidInputError,
)

__all__ = [
    "SeriesPoint",
    "TimeSeries",
    "pair_paths",
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


def pair_paths(series: TimeSeries, window: int) -> tuple:
    """Unit-square paths of every adjacent window pair, stride 1.

    A series of T observations has P = T - 2*window + 1 pairs; pair i is
    observations i .. i + window - 1 (left) and the next ``window``
    (right), and its boundary date is the date of the first observation
    of the right window.  Returns (boundary dates, left, right), with
    left and right (P, window, 2) arrays of paths.  Column 0 is time,
    mapped to [0, 1] over each window by elapsed days so calendar gaps
    survive as non-uniform spacing.  Column 1 is the metric, min-max
    scaled over the union of the pair's two windows, with constant
    pairs pinned to 0.5.  The shared scale is what lets the downstream
    signature comparison see level shifts between the windows, which
    per-window scaling would erase.
    """
    if window < 2:
        raise InvalidInputError(f"window must be >= 2, got {window}")
    n = len(series)
    if n < 2 * window:
        raise InsufficientDataError(
            f"series has {n} observations but window={window} requires at least {2 * window}"
        )
    n_pairs = n - 2 * window + 1
    pairs = sliding_window_view(series.metric_values(), 2 * window)  # (P, 2W) view
    lo = pairs.min(axis=1, keepdims=True)
    span = pairs.max(axis=1, keepdims=True) - lo
    paths = np.empty((n_pairs, 2 * window, 2))
    with np.errstate(invalid="ignore"):
        np.divide(pairs - lo, span, out=paths[..., 1])
    # a constant pair is geometrically a flat line; keep it interior to
    # the unit square
    paths[span[:, 0] == 0, :, 1] = 0.5
    # every window is the left of one pair and the right of another, so
    # each window's time axis is computed once
    days = sliding_window_view(series.day_offsets(), window)  # (T - W + 1, W) view
    elapsed = days - days[:, :1]
    t = elapsed / elapsed[:, -1:]
    paths[:, :window, 0] = t[:n_pairs]
    paths[:, window:, 0] = t[window:]
    return series.dates()[window : window + n_pairs], paths[:, :window], paths[:, window:]


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
