"""Answer ledger: a sha256 digest of every answer over a fixed matrix.

The package must keep giving the same answers as it is made faster or
smaller.  This test recomputes them over a fixed matrix and compares
each one's digest with the copy kept in ``tests/answers.json`` (beside this
file, as ``tests/golden/`` holds the CLI's output files and nothing else):

- ``sensitivity_report`` rows, and ``evaluate_corpus`` pooled metrics for
  every name in ``METHODS`` and for the signature method in log mode, on
  seeded 7-series corpora drawn with the default random durations, at
  ``n_boot`` 0, 1 and 100;
- ``distance_series`` bytes for windows 2, 7, 14 and 21, depths 2, 3, 4
  and 8, full and log mode, on a plain, a gapped and a constant-pair
  series;
- ``detect`` and ``compute_wastage`` ``to_dict()`` JSON on long and
  gapped series.

An answer that raises a package error is recorded as its exception type
and message, so a corpus that aborts shows in the ledger.  Digests pin
this machine's floating-point paths, as the c12 bytes do, and the golden
records the numpy version it was made with.  A mismatch names the
entries that changed.  Re-record only when answers change on purpose,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_answers.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from sigfatigue.detector import DetectorConfig, detect, distance_series
from sigfatigue.errors import SigFatigueError
from sigfatigue.evaluation import METHODS, evaluate_corpus, make_method, sensitivity_report
from sigfatigue.synth import PATTERN_KINDS, PatternSpec, generate, generate_batch
from sigfatigue.wastage import compute_wastage
from sigfatigue.windowing import TimeSeries

GOLDEN = Path(__file__).resolve().parent / "answers.json"
CORPUS_SEEDS = range(10)
N_BOOTS = (0, 1, 100)
WINDOWS = (2, 7, 14, 21)
DEPTHS = (2, 3, 4, 8)


def _digest(value) -> str:
    """sha256 of an array's bytes, or of a value's sorted strict JSON."""
    if isinstance(value, np.ndarray):
        data = value.tobytes()
    else:
        data = json.dumps(value, sort_keys=True, allow_nan=False).encode()
    return hashlib.sha256(data).hexdigest()


def _answer(compute) -> str:
    try:
        return _digest(compute())
    except SigFatigueError as exc:
        return f"raises {type(exc).__name__}: {exc}"


def _constant_pair_series() -> TimeSeries:
    """A noisy series with a flat stretch, whose inner pairs are constant."""
    rng = np.random.default_rng(17)
    ctrs = 0.02 * rng.lognormal(0.0, 0.2, 150)
    ctrs[50:100] = 0.015
    impressions = np.full(150, 50_000)
    return TimeSeries(
        dates=np.datetime64("2024-01-01") + np.arange(150),
        impressions=impressions,
        clicks=np.rint(impressions * ctrs).astype(np.int64),
    )


def _long_series(gapped: bool) -> TimeSeries:
    """1,200 costed observations in four levels, daily or with gaps."""
    rng = np.random.default_rng(23 + gapped)
    n = 1_200
    rates = np.repeat([0.02, 0.012, 0.016, 0.009], n // 4) * rng.lognormal(0.0, 0.15, n)
    impressions = rng.integers(20_000, 80_000, n)
    clicks = rng.binomial(impressions, rates)
    offsets = np.sort(rng.choice(n * 3 // 2, n, replace=False)) if gapped else np.arange(n)
    return TimeSeries(
        dates=np.datetime64("2024-01-01") + offsets,
        impressions=impressions,
        clicks=clicks,
        cost=clicks * rng.uniform(0.8, 1.2, n),
    )


def corpus_answers() -> dict:
    methods = {name: make_method(name) for name in METHODS}
    methods["signature-log"] = make_method("signature", feature_mode="log")
    out = {}
    for seed in CORPUS_SEEDS:
        corpus = generate_batch(PATTERN_KINDS, 1, seed)
        for n_boot in N_BOOTS:
            key = f"seed={seed}/n_boot={n_boot}"
            out[f"sweep/{key}"] = _answer(
                lambda: sensitivity_report(corpus, n_boot=n_boot, seed=seed)
            )
            for name, method in methods.items():
                out[f"evaluate/{key}/{name}"] = _answer(
                    lambda: evaluate_corpus(corpus, method, n_boot=n_boot, seed=seed)[1].to_dict()
                )
    return out


def distance_answers() -> dict:
    plain, _ = generate(PatternSpec(kind="classic_wear_out", seed=5, duration_days=150))
    gapped, _ = generate(PatternSpec(kind="non_continuous", seed=6, duration_days=150))
    out = {}
    for label, series in [("plain", plain), ("gapped", gapped),
                          ("constant_pair", _constant_pair_series())]:
        for window in WINDOWS:
            for depth in DEPTHS:
                for mode in ("full", "log"):
                    cfg = DetectorConfig(window=window, depth=depth, feature_mode=mode)
                    key = f"distances/{label}/window={window}/depth={depth}/{mode}"
                    out[key] = _answer(lambda: distance_series(series, cfg))
    return out


def report_answers() -> dict:
    out = {}
    for label, series in [("long", _long_series(False)), ("long_gapped", _long_series(True))]:
        for cfg in (DetectorConfig(), DetectorConfig(window=7, feature_mode="log")):
            key = f"{label}/window={cfg.window}/{cfg.feature_mode}"
            report = detect(series, cfg)
            out[f"detect/{key}"] = _answer(report.to_dict)
            out[f"wastage/{key}"] = _answer(
                lambda: compute_wastage(series, report.segments).to_dict()
            )
    return out


def answers() -> dict:
    return {**corpus_answers(), **distance_answers(), **report_answers()}


def test_answers_match_the_ledger():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = answers()
    changed = sorted(k for k in golden["answers"].keys() & now.keys()
                     if golden["answers"][k] != now[k])
    missing = sorted(golden["answers"].keys() - now.keys())
    added = sorted(now.keys() - golden["answers"].keys())
    assert not (changed or missing or added), (
        f"answers differ from the ledger (recorded with numpy {golden['numpy']}, "
        f"running {np.__version__}): changed {changed}, missing {missing}, new {added}"
    )


if __name__ == "__main__":
    record = {"numpy": np.__version__, "answers": answers()}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['answers'])} answers to {GOLDEN}", file=sys.stderr)
