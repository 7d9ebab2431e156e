"""The benchmark's per-layer metrics must keep naming live package functions.

``perfbench/tracing.py`` wraps the functions in each module's ``__all__``
and reports span times and counts by name; a renamed or unexported
function would make its metric read 0 without any error.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import sigfatigue
from sigfatigue import evaluation
from sigfatigue.detector import DetectorConfig, distance_series
from sigfatigue.synth import generate_batch

from conftest import series_from_ctr, sharp_drop_ctrs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# metrics whose functions left the package: the per-pair windowing ones
# when the batched kernel came in, the sigcore ones when the TensorSeq
# algebra moved to the test oracles (they read 0 before that, off the hot path)
KNOWN_DEAD = {
    "windowing.window_pairs_ms",
    "windowing.normalize_window_pair_ms",
    "windowing.normalize_window_pair.calls",
    "sigcore.path_signature_ms",
    "sigcore.path_signature.calls",
    "sigcore.log_signature_ms",
    "sigcore.log_signature.calls",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_name(metric: str) -> str:
    if metric in ("detector.pairs", "detector.distance_series.distinct_ratio"):
        return "detector.distance_series"
    for suffix in ("_self_ms", "_ms", ".calls"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    raise AssertionError(f"unknown metric form {metric!r}")


def is_traced(span: str) -> bool:
    """Whether the tracer wraps ``span``, by the rule ``Tracer.install`` uses."""
    layer, attr = span.split(".")
    module = importlib.import_module(f"sigfatigue.{layer}")
    public = list(getattr(module, "__all__", ())) + (["main"] if layer == "cli" else [])
    fn = getattr(module, attr, None)
    return attr in public and inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_every_span_metric_names_a_traced_function(tracing):
    metrics = [m for m in tracing.PER_LAYER if m not in tracing.MEASURED_BY_RUNNER]
    dead = {m for m in metrics if not is_traced(span_name(m))}
    assert dead == KNOWN_DEAD


def test_after_hooks_name_traced_functions(tracing):
    assert all(is_traced(span) for span in tracing._AFTER)


def test_pair_count_is_len_of_distance_series():
    series = series_from_ctr(sharp_drop_ctrs())
    cfg = DetectorConfig(window=9)
    assert len(distance_series(series, cfg)) == len(series) - 2 * cfg.window + 1


def test_traced_detect_records_every_stage(tracing):
    series = series_from_ctr(sharp_drop_ctrs(), cost_per_click=1.1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = sigfatigue.detect(series)
        sigfatigue.compute_wastage(series, report.segments)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert tracer.counts["detector.pairs"] == len(series) - 2 * 14 + 1
    assert totals["detector.classify_trend"]["calls"] == len(report.segments)
    for span in ("detector.segment_series", "detector.distance_series", "wastage.compute_wastage"):
        assert totals[span]["calls"] == 1


def traced_totals(tracing, run) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.totals()


@pytest.fixture(scope="module")
def corpus():
    return generate_batch("sharp_drop", 3, master_seed=5, overrides={"duration_days": 120})


@pytest.mark.parametrize("method", sorted(evaluation.METHODS))
def test_traced_evaluation_attributes_each_method(tracing, corpus, method):
    # make_method looks each baseline up when it runs, so a wrapped one is seen;
    # the signature method pools the corpus's 3 series into one kernel call
    totals = traced_totals(tracing, lambda: evaluation.evaluate_corpus(corpus, method, n_boot=0))
    if method == "signature":
        assert totals["sigcore.batch_signature"]["calls"] == 1
    else:
        assert totals[f"baselines.{method}"]["calls"] == len(corpus)


def test_traced_sweep_computes_one_distance_series_per_window(tracing, corpus):
    # the series of each window share one pooled kernel call
    totals = traced_totals(tracing, lambda: evaluation.sensitivity_report(corpus, n_boot=0))
    assert totals["sigcore.batch_signature"]["calls"] == 3
    # each of the 9 cells matches each of the 3 series once
    assert totals["evaluation.match_detections"]["calls"] == 27
