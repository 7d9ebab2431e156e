"""A report's JSON is its records' fields, each field named once.

``to_dict`` is one walk over a dataclass's fields in declaration order:
dates become ISO strings, tuples and lists lists, dicts dicts, nested
records their dicts and structured arrays one dict per record, columns
in order.  A field's ``metadata["written"]`` leaves it out: ``"if set"``
when it is None, False always.  ``WastageReport``'s benchmark summary is
the one reshape written by hand.
"""

import dataclasses
import datetime as dt
from dataclasses import dataclass, field, replace

import numpy as np

from sigfatigue.detector import (
    DISTANCE_DTYPE,
    ChangePoint,
    ChangePointReport,
    DetectorConfig,
    Segment,
    detect,
)
from sigfatigue.evaluation import EvalMetrics, score
from sigfatigue.synth import PatternSpec
from sigfatigue.wastage import DAILY_DTYPE, WastageReport, compute_wastage
from sigfatigue.windowing import _array_dicts, _record_dict

from conftest import daily_dates


def names(cls) -> list:
    return [field.name for field in dataclasses.fields(cls)]


@dataclass(frozen=True, eq=False)
class Holder:
    day: dt.date
    counts: tuple
    point: ChangePoint
    points: tuple
    array: np.ndarray
    table: dict
    days: list
    mixed: dict
    unset: str | None = field(default=None, metadata={"written": "if set"})
    given: str | None = field(default="yes", metadata={"written": "if set"})
    hidden: tuple = field(default=(1,), metadata={"written": False})


def test_walk_writes_each_kind_of_value():
    point = ChangePoint(date=dt.date(2024, 1, 2), distance=0.5, threshold=0.25)
    array = np.zeros(1, dtype=DISTANCE_DTYPE)
    table = {"nested": {"lo": 1.0}}
    days = [dt.date(2024, 1, 3), (4, 5)]
    mixed = {"day": dt.date(2024, 1, 4), "point": point}
    holder = Holder(dt.date(2024, 1, 1), (1, 2), point, (point, point), array, table, days, mixed)
    out = _record_dict(holder)
    assert list(out) == [n for n in names(Holder) if n not in ("unset", "hidden")]
    assert out["day"] == "2024-01-01"
    assert out["counts"] == [1, 2]
    entry = {"date": "2024-01-02", "distance": 0.5, "threshold": 0.25}
    assert out["point"] == entry
    assert out["points"] == [entry, entry]
    assert out["array"] == [{"date": "1970-01-01", "distance": 0.0}]
    assert out["table"] == table
    assert out["days"] == ["2024-01-03", [4, 5]]
    assert out["mixed"] == {"day": "2024-01-04", "point": entry}
    assert out["given"] == "yes"


def test_detector_config_writes_effective_merge_gap():
    out = _record_dict(DetectorConfig(window=7))
    assert list(out) == names(DetectorConfig)
    assert out["merge_gap"] == 7


def test_eval_metrics_leave_out_delays_and_unset_ci():
    metrics = score(daily_dates(1), daily_dates(1))
    assert metrics.delay_sum == 0
    assert list(metrics.to_dict()) == [
        n for n in names(EvalMetrics) if n not in ("delay_sum", "ci")
    ]
    ci = {"precision": {"lo": 0.5, "hi": 1.0}}
    out = replace(metrics, ci=ci).to_dict()
    assert list(out) == [n for n in names(EvalMetrics) if n != "delay_sum"]
    assert out["ci"] == ci


def test_pattern_spec_writes_change_days_as_list():
    out = PatternSpec(kind="sharp_drop", change_days=(30,)).to_dict()
    assert list(out) == names(PatternSpec)
    assert out["change_days"] == [30]
    assert out["start_date"] == "2024-01-01"
    assert PatternSpec(kind="sharp_drop").to_dict()["change_days"] is None


def test_detection_report_entries_are_record_fields(sharp_series):
    report = detect(sharp_series)
    out = report.to_dict()
    assert list(out) == names(ChangePointReport)
    assert out["change_points"]
    for change_point, entry in zip(report.change_points, out["change_points"]):
        assert list(entry) == names(ChangePoint)
        assert entry["date"] == change_point.date.isoformat()
    for segment, entry in zip(report.segments, out["segments"]):
        assert list(entry) == names(Segment)
        assert entry["end_date"] == segment.end_date.isoformat()


def test_wastage_report_summarises_benchmark(sharp_series):
    report = compute_wastage(sharp_series, detect(sharp_series).segments, cpc=1.0)
    out = report.to_dict()
    assert list(out) == names(WastageReport)
    assert list(out["benchmark"]) == ["start_date", "end_date", "trend", "mean_metric"]


def test_array_dicts_follow_column_order():
    for dtype in (DISTANCE_DTYPE, DAILY_DTYPE):
        array = np.zeros(2, dtype=dtype)
        array["date"] = np.array(daily_dates(2), dtype="datetime64[D]")
        rows = _array_dicts(array)
        assert [list(row) for row in rows] == [list(dtype.names)] * 2
        assert [row["date"] for row in rows] == ["2024-01-01", "2024-01-02"]
        assert all(type(value) is float for row in rows for value in list(row.values())[1:])
