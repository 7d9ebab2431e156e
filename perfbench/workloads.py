"""The benchmark's workloads: their inputs, one operation each, and the
observations an operation's output is checked on.

All load comes from one client in a closed loop: each operation starts
when the previous one has finished.  An operation's observation is a dict
with three parts, compared against the recorded reference by
``reference.compare``:

* ``exact``     -- dates, segment bounds, trend labels, counts, hashes;
* ``distances`` -- signature distance vectors, equal within 1e-12;
* ``approx``    -- wastage totals, precision/recall/F1, CI bounds, equal
  within 1e-9 relative.

Inputs depend on ``--seed`` only through ``variant = seed % N_VARIANTS``:
the reference outputs were recorded for those variants, so every seed
maps to inputs whose correct outputs are known.

Why each workload exists
------------------------
``cli_oneshot``
    The analyst's path: each operation is one fresh
    ``python -m sigfatigue.cli`` process, run one at a time, cycling
    through ``generate`` (synth + CSV write), ``detect --plot`` and
    ``wastage --cpc`` (CSV read, ~90 window pairs, SVG/JSON write) on a
    120-day CSV written during set-up.  Import dominates it --
    ``sigfatigue.cli`` pulls in ``scipy.stats`` through ``detector`` --
    and the signature kernel does little work.  Import changes should
    show here; kernel changes should not.

``long_history``
    Each operation is an in-process, warm ``detect`` plus
    ``compute_wastage`` with the default config on one multi-year daily
    series with cost, cycling over four random-walk CTR series of 1,200
    observations: two on consecutive days, two spread over 1,500 days
    with 20% of the days missing.  Nearly all the time is spent in
    ``distance_series`` (normalize + ``path_signature`` per pair) and it
    grows linearly with the number of observations; the gaps exercise
    non-uniform time.  All four series have the same number of
    observations, so every operation does the same amount of work and
    the latency distribution has one mode.  Kernel changes should show
    here; import changes only in ``setup_s``.

``corpus_sweep``
    Each operation is one research pass over a ``generate_batch`` corpus
    of one series per pattern kind (all seven) at ``duration_days=120``:
    ``evaluate_corpus`` for the four registered methods with 100
    bootstrap resamples, the signature method again with
    ``feature_mode="log"``, and ``sensitivity_report`` on its default 3x3
    grid.  It is the only workload in which ``synth``, ``baselines``,
    ``evaluation`` and ``log_signature`` do real work, and in which the
    sweep recomputes the same distance vector for every ``threshold_k``.
    Its many short series make per-call overhead weigh more than in
    ``long_history``, so a kernel tuned for long series that costs more
    per call shows up here.

Known behaviour this benchmark discloses and does not fix: with
durations drawn from ``synth.DURATION_RANGE`` (30-180 days),
``sensitivity_report`` (window 21 needs 42 observations) and
``evaluate_corpus(..., "ma_crossover")`` (needs 29) abort the whole
corpus with ``InsufficientDataError`` on its first short series.  At
this benchmark's introduction, ``generate_batch(PATTERN_KINDS, 1, 7)``
holds a 36-day ``non_continuous`` series with 28 observations that
aborts ``ma_crossover``, and ``generate_batch(PATTERN_KINDS, 1, 3)`` a
36-day ``volatile_decline`` series that aborts ``sensitivity_report``.
``corpus_sweep`` pins 120 days because that is the ``PatternSpec``
default and the documented usage, not to hide the abort.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
N_VARIANTS = 4
START = dt.date(2021, 1, 4)
CLI_TIMEOUT_S = 60


class OpFailed(Exception):
    """An operation exited non-zero or left no output to check."""


def walk_rows(rng, n_obs: int, span_days: int, with_cost: bool) -> list:
    """Daily rows of a random-walk CTR series with one level drop.

    ``span_days > n_obs`` removes ``span_days - n_obs`` random calendar
    days (never the first), which gives the series gaps.
    """
    if span_days > n_obs:
        kept = np.sort(rng.choice(np.arange(1, span_days), n_obs - 1, replace=False))
        offsets = np.concatenate(([0], kept))
    else:
        offsets = np.arange(n_obs)
    log_ctr = np.log(0.02) + np.cumsum(rng.normal(0.0, 0.02, n_obs))
    drop_at = int(rng.integers(n_obs // 3, 2 * n_obs // 3))
    log_ctr[drop_at:] += np.log(rng.uniform(0.5, 0.7))
    ctr = np.clip(np.exp(log_ctr), 1e-3, 0.2)
    impressions = rng.integers(20_000, 80_000, n_obs)
    clicks = rng.binomial(impressions, ctr)
    cpc = rng.uniform(0.9, 1.5, n_obs)
    rows = []
    for off, imp, clk, price in zip(offsets, impressions, clicks, cpc):
        row = [(START + dt.timedelta(days=int(off))).isoformat(), int(imp), int(clk)]
        if with_cost:
            row.append(round(float(clk * price), 2))
        rows.append(row)
    return rows


def write_csv(path: Path, rows: list, with_cost: bool) -> None:
    header = "date,impressions,clicks" + (",cost" if with_cost else "")
    lines = [header] + [",".join(repr(c) if isinstance(c, float) else str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _segments(segments) -> list:
    return [[s["start_date"], s["end_date"], s["trend"]] for s in segments]


def _report_obs(report: dict) -> dict:
    """Observation of a detection report in its ``to_dict`` form."""
    return {
        "exact": {
            "change_points": [c["date"] for c in report["change_points"]],
            "segments": _segments(report["segments"]),
        },
        "distances": {"distances": [d["distance"] for d in report["distances"]]},
        "approx": {},
    }


def _wastage_obs(obs: dict, wastage: dict) -> dict:
    bench = wastage["benchmark"]
    obs["exact"]["benchmark"] = [bench["start_date"], bench["end_date"]]
    obs["approx"]["total_wastage"] = wastage["total_wastage"]
    return obs


class CliOneshot:
    name = "cli_oneshot"
    cycle = ("generate", "detect", "wastage")
    in_process = False
    # one pattern kind per variant for the generate op
    GENERATE_KINDS = ("sharp_drop", "classic_wear_out", "fatigue_recovery", "multi_stage_decline")

    def load(self) -> None:
        """Nothing to import: every operation is its own process."""

    def setup(self, variant: int, workdir: Path) -> dict:
        rng = np.random.default_rng([1, variant])
        source = workdir / "input.csv"
        write_csv(source, walk_rows(rng, 120, 120, with_cost=False), with_cost=False)
        return {"variant": variant, "dir": workdir, "input": source}

    def _argv(self, state: dict, op: str) -> list:
        d, source = state["dir"], str(state["input"])
        if op == "generate":
            kind = self.GENERATE_KINDS[state["variant"]]
            return ["generate", "--pattern", kind, "--seed", str(1000 + state["variant"]),
                    "--duration", "120", "--out", str(d / "gen")]
        if op == "detect":
            return ["detect", source, "--plot", str(d / "report.svg"), "--out", str(d / "report.json")]
        return ["wastage", source, "--cpc", "1.25", "--out", str(d / "wastage.json")]

    def _outputs(self, state: dict, op: str) -> list:
        d = state["dir"]
        if op == "generate":
            stem = d / "gen" / f"{self.GENERATE_KINDS[state['variant']]}_0000"
            return [stem.with_suffix(".csv"), stem.with_suffix(".manifest.json")]
        if op == "detect":
            return [d / "report.json", d / "report.svg"]
        return [d / "wastage.json"]

    def run(self, state: dict, i: int, trace_path: Path | None = None):
        op = self.cycle[i % len(self.cycle)]
        for stale in self._outputs(state, op):
            stale.unlink(missing_ok=True)
        if trace_path is None:
            cmd = [sys.executable, "-m", "sigfatigue.cli"]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(trace_path)]
        proc = subprocess.run(
            cmd + self._argv(state, op), cwd=state["dir"], capture_output=True,
            text=True, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise OpFailed(f"{op} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return op

    def observe(self, state: dict, i: int, op: str) -> dict:
        outputs = self._outputs(state, op)
        if op == "generate":
            with open(outputs[0], newline="", encoding="utf-8") as handle:
                rows = "\n".join(",".join(c.strip() for c in row) for row in csv.reader(handle))
            manifest = json.loads(outputs[1].read_text(encoding="utf-8"))
            exact = {
                "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
                "truth_dates": manifest["ground_truth"]["change_dates"],
            }
            return {"exact": exact, "distances": {}, "approx": {}}
        report = json.loads(outputs[0].read_text(encoding="utf-8"))
        if op == "detect":
            obs = _report_obs(report)
            obs["exact"]["svg_root"] = ET.parse(outputs[1]).getroot().tag
            return obs
        return _wastage_obs({"exact": {}, "distances": {}, "approx": {}}, report)


class LongHistory:
    name = "long_history"
    N_OBS = 1200
    cycle = ("plain", "plain", "gapped", "gapped")
    in_process = True

    def load(self) -> None:
        import sigfatigue

        self.sf = sigfatigue

    def setup(self, variant: int, workdir: Path) -> dict:
        rng = np.random.default_rng([2, variant])
        series = []
        for j, shape in enumerate(self.cycle):
            span = self.N_OBS if shape == "plain" else self.N_OBS * 5 // 4
            path = workdir / f"series{j}.csv"
            write_csv(path, walk_rows(rng, self.N_OBS, span, with_cost=True), with_cost=True)
            series.append(self.sf.read_series_csv(path))
        return {"variant": variant, "series": series}

    def run(self, state: dict, i: int, trace_path: Path | None = None):
        series = state["series"][i % len(self.cycle)]
        report = self.sf.detect(series)
        return report, self.sf.compute_wastage(series, report.segments)

    def observe(self, state: dict, i: int, result) -> dict:
        report, wastage = result
        return _wastage_obs(_report_obs(report.to_dict()), wastage.to_dict())


def _metrics_obs(prefix: str, metrics: dict, obs: dict) -> None:
    """Pooled counts exactly; rates, delays and CI bounds approximately."""
    obs["exact"][f"{prefix}.counts"] = [metrics[k] for k in ("n_detected", "n_true", "n_matched")]
    values = {k: metrics[k] for k in ("precision", "recall", "f1", "mean_delay_days")}
    for name, bounds in sorted((metrics.get("ci") or {}).items()):
        values[f"ci.{name}.lo"] = None if bounds is None else bounds["lo"]
        values[f"ci.{name}.hi"] = None if bounds is None else bounds["hi"]
    for name, value in values.items():
        part = "exact" if value is None else "approx"
        obs[part][f"{prefix}.{name}"] = value


class CorpusSweep:
    name = "corpus_sweep"
    cycle = ("pass",)
    in_process = True
    METHODS = ("signature", "ma_crossover", "cusum", "rolling_regression")
    N_BOOT = 100

    def load(self) -> None:
        import sigfatigue
        import sigfatigue.evaluation

        self.sf, self.evaluation = sigfatigue, sigfatigue.evaluation

    def setup(self, variant: int, workdir: Path) -> dict:
        corpus = self.sf.generate_batch(
            list(self.sf.PATTERN_KINDS), 1, 3000 + variant, overrides={"duration_days": 120}
        )
        return {"variant": variant, "corpus": corpus}

    def run(self, state: dict, i: int, trace_path: Path | None = None):
        corpus = state["corpus"]
        pooled = {}
        for method in self.METHODS:
            _, pooled[method] = self.evaluation.evaluate_corpus(corpus, method, n_boot=self.N_BOOT, seed=0)
        log_method = self.evaluation.make_method("signature", feature_mode="log")
        _, pooled["signature_log"] = self.evaluation.evaluate_corpus(
            corpus, log_method, n_boot=self.N_BOOT, seed=0
        )
        return pooled, self.evaluation.sensitivity_report(corpus, n_boot=self.N_BOOT, seed=0)

    def observe(self, state: dict, i: int, result) -> dict:
        pooled, rows = result
        obs = {"exact": {}, "distances": {}, "approx": {}}
        for name, metrics in pooled.items():
            _metrics_obs(name, metrics.to_dict(), obs)
        for row in rows:
            _metrics_obs(f"sweep.w{row['window']}.k{row['threshold_k']}.d{row['depth']}", row, obs)
        return obs


WORKLOADS = {w.name: w for w in (CliOneshot(), LongHistory(), CorpusSweep())}
