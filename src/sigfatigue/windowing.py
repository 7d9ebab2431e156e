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
version and the walk every report's ``to_dict`` is built from.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CsvFormatError, InsufficientDataError, InvalidInputError, check_number

__all__ = [
    "TimeSeries",
    "pair_paths",
    "read_series_csv",
    "write_series_csv",
]

METRICS = ("ctr", "clicks", "impressions", "cost")
HEADER = ("date", "impressions", "clicks", "cost")  # of the CSV; cost is optional
# squared and summed over the ~3.65e6 days a date column can hold, a cost
# analysed as the metric stays finite up to this bound
MAX_COST_METRIC = 1e150
SCHEMA_VERSION = 1  # of every JSON report and manifest
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


def _record_dict(record) -> dict:
    """A dataclass record's fields in declaration order, as JSON values.

    A date is written as its ISO string, a tuple as a list, a nested
    record as its dict and a structured array as ``_array_dicts(array)``;
    any other value is passed through as it is.
    """
    return {field.name: _json_value(getattr(record, field.name)) for field in fields(record)}


def _json_value(value):
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return _array_dicts(value)
    return _record_dict(value) if is_dataclass(value) else value


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


def _invalid_row(dates, impressions, clicks, cost, metric):
    """(index, message) of the first row that breaks a column rule, or None.

    Row values are checked first, in row order, then date order.  Only a
    series that analyses ``cost`` holds its cost to ``MAX_COST_METRIC``.
    """
    rules = [
        (impressions <= 0, "impressions must be positive (zero-impression days "
         "are excluded at ingestion)"),
        ((clicks < 0) | (clicks > impressions), "clicks must satisfy 0 <= clicks <= impressions"),
    ]
    if cost is not None:
        rules.append((~((cost >= 0) & (cost < math.inf)), "cost must be finite and nonnegative"))
    if cost is not None and metric == "cost":
        rules.append((cost > MAX_COST_METRIC, f"cost must be <= {MAX_COST_METRIC:g} as the metric"))
    broken = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(rules) if mask.any()]
    if broken:
        i, k = min(broken)
        return i, f"{dates[i]}: {rules[k][1]}"
    unordered = np.flatnonzero(dates[1:] <= dates[:-1])
    if unordered.size:
        i = int(unordered[0]) + 1
        return i, f"dates must be strictly increasing, got {dates[i - 1]} then {dates[i]}"
    return None


def _number_column(name, values, integer) -> np.ndarray:
    """A copy of ``values`` as an int64 column with ``integer``, else a float
    one.  Counts must be integers that fit int64 and a cost an integer or
    real number; a bool, string or other value raises.  An empty column
    passes, to be refused for its length."""
    column = np.array(values)
    kind = column.dtype.kind
    if column.size and (
        kind not in ("iu" if integer else "iuf")
        or integer and kind == "u" and column.max() > np.iinfo(np.int64).max
    ):
        kinds = "integers that fit int64" if integer else "integers or real numbers"
        raise InvalidInputError(f"{name} must hold {kinds}, got {column.dtype} values")
    return column.astype(np.int64 if integer else float, copy=False)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Date-ordered daily observations, one column each, plus the metric
    under analysis.

    ``dates`` is ``datetime64[D]``, ``impressions`` and ``clicks`` are
    integers that fit int64, and ``cost`` is float, given as integers or
    real numbers, or None when no spend was recorded.  The columns are
    copied, validated once and made read-only.
    """

    dates: np.ndarray
    impressions: np.ndarray
    clicks: np.ndarray
    cost: np.ndarray | None = None
    metric: str = "ctr"

    def __post_init__(self):
        columns = {
            "dates": np.array(self.dates, dtype="datetime64[D]"),
            "impressions": _number_column("impressions", self.impressions, integer=True),
            "clicks": _number_column("clicks", self.clicks, integer=True),
        }
        if self.cost is not None:
            columns["cost"] = _number_column("cost", self.cost, integer=False)
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
        bad = _invalid_row(self.dates, self.impressions, self.clicks, self.cost, self.metric)
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
    """Closed loops of every adjacent window pair, stride 1: the kernel input.

    A series of T observations has P = T - 2*window + 1 pairs; pair i is
    observations i .. i + window - 1 (left) and the next ``window``
    (right), and its boundary date is the date of the first observation
    of the right window.  Returns (boundary dates, loops), with loops a
    (2P, window + 2, 2) array: the P left loops, then the P right ones.
    Each runs from (0, 0) through its window's points to (1, 0): time,
    mapped to [0, 1] over the window by elapsed days so calendar gaps
    survive, against the metric, min-max scaled over the pair's two
    windows (constant pairs pinned to 0.5).  The shared scale lets the
    signature comparison see level shifts between the windows.  The
    closure keeps each window's level, which the signature's translation
    invariance would drop, in the enclosed-area terms.
    """
    check_number("window", window, 2, math.inf, integer=True)
    n = len(series)
    if n < 2 * window:
        raise InsufficientDataError(
            f"series has {n} observations but window={window} requires at least {2 * window}"
        )
    n_pairs = n - 2 * window + 1
    pairs = sliding_window_view(series.metric_values(), 2 * window)  # (P, 2W) view
    lo = pairs.min(axis=1, keepdims=True)
    span = pairs.max(axis=1, keepdims=True) - lo
    # (side, pair, vertex, coordinate); the zeros are the (0, 0) start vertices
    loops = np.zeros((2, n_pairs, window + 2, 2))
    points = loops[:, :, 1:-1]
    with np.errstate(invalid="ignore"):
        np.divide(pairs.reshape(-1, 2, window).swapaxes(0, 1) - lo, span, out=points[..., 1])
    # a constant pair is a flat line, kept inside the unit square
    points[:, span[:, 0] == 0, :, 1] = 0.5
    # each window is the left of one pair and the right of another: one time axis each
    days = sliding_window_view(series.day_offsets(), window)  # (T - W + 1, W) view
    elapsed = days - days[:, :1]
    t = elapsed / elapsed[:, -1:]
    points[0, ..., 0] = t[:n_pairs]
    points[1, ..., 0] = t[window:]
    loops[:, :, -1, 0] = 1.0  # the (1, 0) end vertices
    return series.dates[window : window + n_pairs], loops.reshape(-1, window + 2, 2)


def read_series_csv(path, metric: str = "ctr") -> TimeSeries:
    """Load a series from the standard input CSV.

    Malformed rows raise :class:`CsvFormatError` naming the line number.
    Zero-impression rows are skipped with a warning.
    """
    lines, ordinals, impressions, clicks, costs = [], [], [], [], []
    # utf-8-sig drops the byte-order mark of an Excel "CSV UTF-8" export; a
    # byte that is not UTF-8 decodes to a lone surrogate, which neither the
    # header check nor any cell parser accepts, so it is reported as a
    # CsvFormatError naming its line
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file", 1) from None
        header = tuple(h.strip().lower() for h in header)
        if header not in (HEADER[:3], HEADER):
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
    bad = _invalid_row(*columns, metric)
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
    if series.cost is not None:
        # tolist gives Python floats, whose repr is the shortest round trip
        columns.append([repr(c) for c in series.cost.tolist()])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER[: len(columns)])
        writer.writerows(zip(*columns))
