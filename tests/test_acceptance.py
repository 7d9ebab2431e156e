"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the
lines).  Criterion 6's gradual-decline half is known-red: with the
documented noise range (10-30% CV on the rate) and decay range (2-8%
weekly), the first three days of a gradual ramp move the rate by well
under one noise standard deviation, so no detector can localize the
onset to +-3 days with certainty; the check is asserted as stated and
fails honestly.
"""

import datetime as dt
import time

import numpy as np
import pytest

from sigfatigue.cli import main as cli_main
from sigfatigue.detector import DetectorConfig, detect, distance_series
from sigfatigue.evaluation import MatchPolicy, evaluate_corpus, make_method
from sigfatigue.sigcore import flat_length
from sigfatigue.synth import PatternSpec, generate
from sigfatigue.wastage import compute_wastage
from sigfatigue.windowing import TimeSeries

from conftest import START, daily_dates, series_from_ctr, sharp_drop_ctrs
from oracle_utils import (
    chen_concat,
    flatten,
    log_signature,
    lost_clicks,
    path_signature,
    riemann_signature_levels,
    tensor_exp,
)

RAW_FLAGS = dict(window=14, depth=3, threshold_k=1.5, merge_gap=0)


def day(n):
    return START + dt.timedelta(days=n - 1)


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_c01_signature_matches_riemann_oracle():
    rng = np.random.default_rng(20260808)
    started = time.perf_counter()
    for _ in range(100):
        pts = rng.random((20, 2))
        sig = path_signature(pts, 3)
        oracle = riemann_signature_levels(pts, 3, substeps=10_000)
        for k in (1, 2, 3):
            # atol floor is the oracle's own quadrature resolution at
            # 1e4 substeps (measured ~3e-10 absolute)
            np.testing.assert_allclose(
                sig.level(k), oracle[k - 1], rtol=1e-6, atol=1e-9
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(f"c01 signature-oracle-equivalence ({elapsed:.1f}s)")


def test_c02_chen_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        pts = rng.random((int(rng.integers(4, 40)), 2))
        cut = int(rng.integers(1, len(pts) - 1))
        whole = path_signature(pts, 3)
        joined = chen_concat(
            path_signature(pts[: cut + 1], 3), path_signature(pts[cut:], 3)
        )
        np.testing.assert_allclose(
            flatten(joined), flatten(whole), rtol=0, atol=1e-12
        )
    ok("c02 chen-identity")


def test_c03_flattened_dimension():
    assert flat_length(2, 3) == 14
    assert flatten(path_signature([(0, 0), (1, 1)], 3)).shape == (14,)
    ok("c03 flattened-dimension-14")


def test_c04_log_signature_checks():
    rng = np.random.default_rng(19)
    for _ in range(50):
        sig = path_signature(rng.random((15, 2)), 3)
        lsig = log_signature(sig)
        np.testing.assert_allclose(
            flatten(tensor_exp(lsig)), flatten(sig), rtol=0, atol=1e-12
        )
        lvl2 = lsig.level(2).reshape(2, 2)
        np.testing.assert_allclose(lvl2, -lvl2.T, rtol=0, atol=1e-12)
    l_path = log_signature(path_signature([(0, 0), (1, 0), (1, 1)], 2))
    assert l_path.level(2)[1] == 0.5
    assert l_path.level(2)[2] == -0.5
    ok("c04 log-signature-roundtrip-antisymmetry-levy")


def test_c05_sharp_drop_detection(lownoise_sharp_corpus):
    series = series_from_ctr(sharp_drop_ctrs(drop_day=61, low=0.01))
    report = detect(series, DetectorConfig(window=14, depth=3, threshold_k=1.5))
    assert len(report.change_points) == 1
    delta = (report.change_points[0].date - day(61)).days
    assert abs(delta) <= 3

    _, pooled = evaluate_corpus(
        lownoise_sharp_corpus,
        make_method("signature", **RAW_FLAGS),
        MatchPolicy(3),
        n_boot=0,
    )
    assert pooled.recall == 1.0
    assert pooled.mean_delay_days is not None
    assert -3.0 <= pooled.mean_delay_days <= 0.0
    ok(
        f"c05 sharp-drop-detection (merged at {delta:+d}d, "
        f"corpus delay {pooled.mean_delay_days:+.2f}d)"
    )


def test_c06a_recall_sharp_corpus(sharp_corpus):
    _, at_15 = evaluate_corpus(
        sharp_corpus, make_method("signature", **RAW_FLAGS), MatchPolicy(3), n_boot=0
    )
    assert at_15.recall == 1.0
    assert at_15.precision > 0
    _, at_25 = evaluate_corpus(
        sharp_corpus,
        make_method("signature", **{**RAW_FLAGS, "threshold_k": 2.5}),
        MatchPolicy(3),
        n_boot=0,
    )
    assert at_25.precision >= at_15.precision
    ok(
        f"c06a sharp-corpus-recall (R={at_15.recall:.2f}, "
        f"P {at_15.precision:.2f}->{at_25.precision:.2f} as k rises)"
    )


def test_c06b_recall_gradual_corpus(gradual_corpus):
    _, at_15 = evaluate_corpus(
        gradual_corpus, make_method("signature", **RAW_FLAGS), MatchPolicy(3), n_boot=0
    )
    assert at_15.recall == 1.0, (
        f"gradual-corpus recall is {at_15.recall:.2f}, not 1.00: a 2-8% weekly "
        "decay moves the rate by well under one 10-30% noise standard deviation "
        "within the 3-day match window, so onset-day localization at this "
        "tolerance is statistically impossible for any detector"
    )
    assert at_15.precision > 0
    ok("c06b gradual-corpus-recall")


def test_c07_merged_count_monotone_in_k(sharp_corpus, gradual_corpus):
    for item in list(sharp_corpus) + list(gradual_corpus):
        counts = [
            len(detect(item.series, DetectorConfig(window=14, threshold_k=k)).change_points)
            for k in (1.5, 2.0, 2.5)
        ]
        assert counts[0] >= counts[1] >= counts[2], (item.spec.kind, item.spec.seed, counts)
    ok("c07 merged-count-monotone-in-k (100 series)")


def test_c08_wastage_exactness():
    assert lost_clicks(0.02, 0.01, 100_000) * 1.25 == pytest.approx(1250.0, rel=1e-12)
    series = series_from_ctr([0.02] * 30 + [0.01] * 30, impressions=100_000)
    from sigfatigue.detector import segment_series

    report = compute_wastage(series, segment_series(series, [day(31)]), cpc=1.25)
    assert report.daily["wastage"][0] == pytest.approx(1250.0, rel=1e-12)
    ok("c08 wastage-daily-1250")


def test_c09_gap_robustness():
    spec = PatternSpec(
        kind="non_continuous", base_kind="sharp_drop", gap_fraction=0.3,
        duration_days=120, change_days=(61,), seed=42,
    )
    series, truth = generate(spec)
    assert len(series) < 120
    report = detect(series, DetectorConfig(**RAW_FLAGS))
    flags = [c.date for c in report.change_points]
    from sigfatigue.evaluation import score

    result = score(flags, truth.change_dates(spec.start_date), MatchPolicy(5))
    assert result.recall == 1.0
    ok(f"c09 gap-robustness ({len(series)}/120 observations kept)")


def _walk_series(total_days, seed):
    rng = np.random.default_rng(seed)
    rates = np.clip(0.02 * np.exp(0.1 * np.cumsum(rng.normal(0, 0.05, total_days))), 0.001, 0.2)
    return TimeSeries(
        dates=daily_dates(total_days, dt.date(2010, 1, 1)),
        impressions=np.full(total_days, 50_000),
        clicks=[int(50_000 * r) for r in rates],
    )


def test_c10_linear_scaling():
    cfg = DetectorConfig(window=14, depth=3)
    series_2k = _walk_series(2000, 31)
    series_4k = _walk_series(4000, 32)

    def runtime(series):
        started = time.perf_counter()
        distance_series(series, cfg)
        return time.perf_counter() - started

    # the sizes alternate run by run, so a change in host load between
    # runs reaches both medians alike
    runs = np.array([(runtime(series_2k), runtime(series_4k)) for _ in range(5)])
    t2, t4 = np.median(runs, axis=0).tolist()
    assert t4 <= 2.6 * t2, (t2, t4)

    year = _walk_series(365, 33)
    started = time.perf_counter()
    detect(year, cfg)
    year_runtime = time.perf_counter() - started
    assert year_runtime < 1.0
    ok(f"c10 linear-scaling (4k/2k ratio {t4 / t2:.2f}, 365d in {year_runtime * 1000:.0f}ms)")


def test_c11_constant_series_null(constant_series):
    report = detect(constant_series, DetectorConfig(window=14, threshold_k=1.5))
    assert report.change_points == ()
    wastage = compute_wastage(constant_series, report.segments, cpc=1.0)
    assert wastage.total_wastage == 0.0
    ok("c11 constant-series-null")


def test_c12_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        gen_dir = tmp_path / f"gen_{tag}"
        cli_main([
            "generate", "--pattern", "sharp_drop", "--n", "3", "--seed", "42",
            "--duration", "120", "--out", str(gen_dir),
        ])
        detect_out = tmp_path / f"detect_{tag}.json"
        cli_main([
            "detect", str(gen_dir / "sharp_drop_0000.csv"), "--k", "1.5",
            "--out", str(detect_out),
        ])
        eval_out = tmp_path / f"eval_{tag}.json"
        cli_main([
            "evaluate", "--corpus", str(gen_dir),
            "--method", "signature", "--k", "1.5", "--out", str(eval_out),
        ])
        blob = b"".join(
            p.read_bytes() for p in sorted(gen_dir.iterdir())
        ) + detect_out.read_bytes() + eval_out.read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    ok("c12 cli-determinism")
