"""Span tracing installed from outside the package.

The tracer wraps each layer's public functions (the names in a module's
``__all__``, plus ``cli.main``) and every alias another module made of
them with ``from .x import y``, so ``detector.path_signature`` and
``evaluation.detect`` record the same spans as ``sigcore.path_signature``
and ``detector.detect``.  Spans (name, start, end, parent, op) are kept in
memory and written out once, at the end of a run.  Nothing in the
package is edited; uninstalling restores the original functions.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "sigfatigue"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records nested spans and a few counts for one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.counts = defaultdict(float)
        self.op = "setup"
        self._stack = []
        self._op_inputs = set()
        self._installed = []  # (module, attribute, original)

    # -- ops -------------------------------------------------------------
    def begin_op(self, op) -> None:
        """Start attributing spans to ``op``; inputs seen so far are closed."""
        self.counts["detector.distance_series.distinct"] += len(self._op_inputs)
        self._op_inputs = set()
        self.op = op

    def finish(self) -> None:
        self.begin_op(None)

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded package module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for module in modules:
            public = list(getattr(module, "__all__", ()))
            if module.__name__ == f"{PACKAGE}.cli":
                public.append("main")
            for attr in public:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{_layer(module.__name__)}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans and counts as JSON (used by the CLI launcher)."""
        self.finish()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

    def merge(self, path, op) -> None:
        """Append the spans and counts another process dumped, as op ``op``."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, base + parent if parent >= 0 else -1, op))
        for key, value in data["counts"].items():
            self.counts[key] += value

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op,name,start,end,parent\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{op},{name},{start!r},{end!r},{parent}\n")

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return dict(out)


def _after_distance_series(tracer, args, kwargs, result):
    series = args[0] if args else kwargs["series"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.counts["detector.pairs"] += len(result)
    # series objects live for the whole op, so id() names the input
    tracer._op_inputs.add((id(series), cfg.window, cfg.depth, cfg.feature_mode))


_AFTER = {"detector.distance_series": _after_distance_series}


# Per-layer metrics of a traced run and their units.  A name ending in
# ``_ms`` is the inclusive time of the span it names, ``_self_ms`` that
# time minus the span's children, ``.calls`` its call count; all three are
# per traced op.  The rest are special: the cli import probes and the
# tracing overhead are measured by run.py.
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.main_self_ms": "ms",
    "windowing.read_series_csv_ms": "ms",
    "windowing.write_series_csv_ms": "ms",
    "plots.report_svg_ms": "ms",
    "windowing.window_pairs_ms": "ms",
    "windowing.normalize_window_pair_ms": "ms",
    "windowing.normalize_window_pair.calls": "count",
    "sigcore.path_signature_ms": "ms",
    "sigcore.path_signature.calls": "count",
    "sigcore.log_signature_ms": "ms",
    "sigcore.log_signature.calls": "count",
    "detector.distance_series_self_ms": "ms",
    "detector.distance_series.calls": "count",
    "detector.distance_series.distinct_ratio": "ratio",
    "detector.pairs": "count",
    "detector.detect_self_ms": "ms",
    "detector.segment_series_ms": "ms",
    "detector.classify_trend.calls": "count",
    "wastage.compute_wastage_ms": "ms",
    "synth.generate_ms": "ms",
    "synth.generate.calls": "count",
    "baselines.rolling_regression_ms": "ms",
    "baselines.cusum_ms": "ms",
    "baselines.ma_crossover_ms": "ms",
    "evaluation.score_ms": "ms",
    "evaluation.bootstrap_ci_ms": "ms",
    "evaluation.sensitivity_report_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
MEASURED_BY_RUNNER = ("cli.import_ms", "cli.import_scipy_ms", "trace.overhead_ratio")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Values of the span-based PER_LAYER metrics, per traced op.

    Work a workload does once in set-up (reading its CSV files, building
    its corpus) is traced too and spread over the traced ops.
    """
    totals = tracer.totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for metric in PER_LAYER:
        if metric in MEASURED_BY_RUNNER:
            continue
        if metric == "detector.pairs":
            value = tracer.counts["detector.pairs"]
        elif metric == "detector.distance_series.distinct_ratio":
            calls = totals.get("detector.distance_series", empty)["calls"]
            distinct = tracer.counts["detector.distance_series.distinct"]
            out[metric] = distinct / calls if calls else 0.0
            continue
        elif metric.endswith("_self_ms"):
            value = totals.get(metric[: -len("_self_ms")], empty)["self_s"] * 1000
        elif metric.endswith("_ms"):
            value = totals.get(metric[: -len("_ms")], empty)["total_s"] * 1000
        else:
            value = totals.get(metric[: -len(".calls")], empty)["calls"]
        out[metric] = value / n_ops
    return out
