"""Time-series model, CSV ingestion and window-pair normalization.

Daily observations carry impressions, clicks and optional spend; the
click-through rate is derived, never stored.  Windows are counted in
observations (not calendar days) so gapped series still form full
windows, while real calendar spacing is preserved inside the normalized
time coordinate.

A series is held as columns (dates, impressions, clicks, optional
cost), so every stage reads array views instead of per-day objects.

Input CSV contract: header ``date,impressions,clicks`` with an optional
trailing ``cost`` column filled on every row, ISO-8601 dates, one row
per day.  Days with zero impressions have no defined click-through rate
and are dropped at ingestion with a warning.

Every module imports this one, so it also holds the reports' schema
version and the two walks every report's ``to_dict`` is built from.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CsvFormatError,
    InsufficientDataError,
    InvalidInputError,
)

__all__ = [
    "TimeSeries",
    "pair_paths",
    "read_series_csv",
    "write_series_csv",
]

METRICS = ("ctr", "clicks", "impressions", "cost")
SCHEMA_VERSION = 1  # of every JSON report and manifest
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


def _record_dict(record) -> dict:
    """A dataclass record's fields in declaration order, dates as ISO strings.

    The walk is shallow: other values, nested containers included, are
    passed through as they are.
    """
    out = {}
    for field in fields(record):
        value = getattr(record, field.name)
        out[field.name] = value.isoformat() if isinstance(value, dt.date) else value
    return out


def _array_dicts(array) -> list:
    """One dict per record of a structured array, in column order, with
    ``datetime64`` columns as ISO strings."""
    names = array.dtype.names
    columns = [
        np.datetime_as_string(array[name]).tolist()
        if array.dtype[name].kind == "M"
        else array[name].tolist()
        for name in names
    ]
    return [dict(zip(names, row)) for row in zip(*columns)]


def _invalid_row(dates, impressions, clicks, cost):
    """(index, message) of the first row that breaks a column rule, or None.

    Row values are checked first, in row order, then date order.
    """
    rules = [
        (impressions <= 0, "impressions must be positive (zero-impression days "
         "are excluded at ingestion)"),
        ((clicks < 0) | (clicks > impressions), "clicks must satisfy 0 <= clicks <= impressions"),
    ]
    if cost is not None:
        rules.append((~((cost >= 0) & (cost < math.inf)), "cost must be finite and nonnegative"))
    broken = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(rules) if mask.any()]
    if broken:
        i, k = min(broken)
        return i, f"{dates[i]}: {rules[k][1]}"
    unordered = np.flatnonzero(dates[1:] <= dates[:-1])
    if unordered.size:
        i = int(unordered[0]) + 1
        return i, f"dates must be strictly increasing, got {dates[i - 1]} then {dates[i]}"
    return None


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Date-ordered daily observations, one column each, plus the metric
    under analysis.

    ``dates`` is ``datetime64[D]``, ``impressions`` and ``clicks`` are
    integers, and ``cost`` is float or None when no spend was recorded.
    The columns are copied, validated once and made read-only.
    """

    dates: np.ndarray
    impressions: np.ndarray
    clicks: np.ndarray
    cost: np.ndarray | None = None
    metric: str = "ctr"

    def __post_init__(self):
        columns = {
            "dates": np.array(self.dates, dtype="datetime64[D]"),
            "impressions": np.array(self.impressions, dtype=np.int64),
            "clicks": np.array(self.clicks, dtype=np.int64),
        }
        if self.cost is not None:
            columns["cost"] = np.array(self.cost, dtype=float)
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        shapes = {column.shape for column in columns.values()}
        if len(shapes) != 1 or self.dates.ndim != 1:
            raise InvalidInputError(
                "columns must be one-dimensional and of equal length, got shapes "
                + ", ".join(f"{name} {column.shape}" for name, column in columns.items())
            )
        if len(self.dates) < 1:
            raise InvalidInputError("series must contain at least one point")
        bad = _invalid_row(self.dates, self.impressions, self.clicks, self.cost)
        if bad is not None:
            raise InvalidInputError(bad[1])
        if self.metric not in METRICS:
            raise InvalidInputError(
                f"unknown metric {self.metric!r}, expected one of {METRICS}"
            )

    def __len__(self):
        return len(self.dates)

    @property
    def start_date(self) -> dt.date:
        return self.dates[0].item()

    @property
    def end_date(self) -> dt.date:
        return self.dates[-1].item()

    def day_offsets(self) -> np.ndarray:
        """Days elapsed since the first observation, one entry per point."""
        return (self.dates - self.dates[0]).astype(float)

    def metric_values(self, name: str | None = None) -> np.ndarray:
        name = self.metric if name is None else name
        if name == "ctr":
            return self.clicks / self.impressions
        if name == "clicks":
            return self.clicks.astype(float)
        if name == "impressions":
            return self.impressions.astype(float)
        if name == "cost":
            if self.cost is None:
                raise InvalidInputError("series has no cost recorded")
            return self.cost
        raise InvalidInputError(f"unknown metric {name!r}, expected one of {METRICS}")


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
    return series.dates[window : window + n_pairs], paths[:, :window], paths[:, window:]


def read_series_csv(path, metric: str = "ctr") -> TimeSeries:
    """Load a series from the standard input CSV.

    Malformed rows raise :class:`CsvFormatError` naming the line number.
    Zero-impression rows are skipped with a warning.
    """
    lines, ordinals, impressions, clicks, costs = [], [], [], [], []
    # a byte that is not UTF-8 decodes to a lone surrogate, which neither
    # the header check nor any cell parser accepts, so it is reported as a
    # CsvFormatError naming its line
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
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
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"expected {len(header)} fields, got {len(row)}", line_no
                )
            try:
                date = dt.date.fromisoformat(row[0].strip())
                n_impressions = int(row[1])
                n_clicks = int(row[2])
                cost = float(row[3]) if has_cost else 0.0
            except ValueError as exc:
                raise CsvFormatError(str(exc), line_no) from None
            if n_impressions == 0:
                warnings.warn(
                    f"{path}: dropping {date} (zero impressions, CTR undefined)",
                    stacklevel=2,
                )
                continue
            if not max(abs(n_impressions), abs(n_clicks)) < 2**63:
                raise CsvFormatError("counts must fit in 64-bit integers", line_no)
            lines.append(line_no)
            ordinals.append(date.toordinal())
            impressions.append(n_impressions)
            clicks.append(n_clicks)
            costs.append(cost)
    if not lines:
        raise CsvFormatError("no usable observations", 1)
    columns = (
        (np.array(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).view("datetime64[D]"),
        np.array(impressions, dtype=np.int64),
        np.array(clicks, dtype=np.int64),
        np.array(costs) if has_cost else None,
    )
    bad = _invalid_row(*columns)
    if bad is not None:
        raise CsvFormatError(bad[1], lines[bad[0]])
    return TimeSeries(*columns, metric=metric)


def write_series_csv(series: TimeSeries, path) -> None:
    """Write a series in the standard input CSV format."""
    columns = [
        np.datetime_as_string(series.dates).tolist(),
        series.impressions.tolist(),
        series.clicks.tolist(),
    ]
    header = ["date", "impressions", "clicks"]
    if series.cost is not None:
        # tolist gives Python floats, whose repr is the shortest round trip
        columns.append([repr(c) for c in series.cost.tolist()])
        header.append("cost")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))
