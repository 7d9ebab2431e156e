"""A report's JSON is its records' fields, each field named once.

``to_dict`` walks a dataclass's fields in declaration order and a
structured array's columns in order, writing dates as ISO strings; only
the named exceptions are written by hand.
"""

import dataclasses
from dataclasses import replace

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
from sigfatigue.windowing import _array_dicts

from conftest import daily_dates


def names(cls) -> list:
    return [field.name for field in dataclasses.fields(cls)]


def test_detector_config_writes_effective_merge_gap():
    out = DetectorConfig(window=7).to_dict()
    assert list(out) == names(DetectorConfig)
    assert out["merge_gap"] == 7


def test_eval_metrics_leave_out_delays_and_unset_ci():
    metrics = score(daily_dates(1), daily_dates(1))
    assert metrics.delays == (0,)
    assert list(metrics.to_dict()) == [n for n in names(EvalMetrics) if n not in ("delays", "ci")]
    ci = {"precision": {"lo": 0.5, "hi": 1.0}}
    out = replace(metrics, ci=ci).to_dict()
    assert list(out) == [n for n in names(EvalMetrics) if n != "delays"]
    # the walk is shallow: a nested value is the record's own object
    assert out["ci"] is ci


def test_pattern_spec_writes_change_days_as_list():
    out = PatternSpec(kind="sharp_drop", change_days=(30,)).to_dict()
    assert list(out) == names(PatternSpec)
    assert out["change_days"] == [30]
    assert out["start_date"] == "2024-01-01"
    assert PatternSpec(kind="sharp_drop").to_dict()["change_days"] is None


def test_detection_report_entries_are_record_fields(sharp_series):
    report = detect(sharp_series)
    out = report.to_dict()
    assert set(out) == {"schema_version", *names(ChangePointReport)}
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
    assert set(out) == {"schema_version", *names(WastageReport)}
    assert list(out["benchmark"]) == ["start_date", "end_date", "trend", "mean_metric"]


def test_array_dicts_follow_column_order():
    for dtype in (DISTANCE_DTYPE, DAILY_DTYPE):
        array = np.zeros(2, dtype=dtype)
        array["date"] = np.array(daily_dates(2), dtype="datetime64[D]")
        rows = _array_dicts(array)
        assert [list(row) for row in rows] == [list(dtype.names)] * 2
        assert [row["date"] for row in rows] == ["2024-01-01", "2024-01-02"]
        assert all(type(value) is float for row in rows for value in list(row.values())[1:])
