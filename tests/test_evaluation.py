import datetime as dt
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfatigue import detector, evaluation
from sigfatigue.detector import DetectorConfig, detect
from sigfatigue.errors import InvalidInputError
from sigfatigue.evaluation import (
    MatchPolicy,
    bootstrap_ci,
    evaluate_corpus,
    grid_search,
    make_method,
    match_detections,
    parity_split,
    pool_scores,
    score,
    sensitivity_report,
)
from sigfatigue.synth import PATTERN_KINDS, generate_batch


D = dt.date


def days(*nums):
    return [D(2024, 1, 1) + dt.timedelta(days=n) for n in nums]


class TestMatching:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidInputError, match="tolerance_days"):
            MatchPolicy(tolerance_days=-1)

    def test_single_pair_within_tolerance(self):
        pairs = match_detections(days(59), days(60), MatchPolicy(3))
        assert pairs == [(days(59)[0], days(60)[0])]

    def test_extra_detection_is_unmatched(self):
        pairs = match_detections(days(9, 59), days(60), MatchPolicy(3))
        assert len(pairs) == 1
        assert pairs[0][0] == days(59)[0]

    def test_no_detections(self):
        assert match_detections([], days(60), MatchPolicy(3)) == []

    def test_each_side_used_once(self):
        pairs = match_detections(days(10, 11), days(10, 11), MatchPolicy(3))
        assert len(pairs) == 2
        assert pairs == [(days(10)[0], days(10)[0]), (days(11)[0], days(11)[0])]

    def test_outside_tolerance_never_matches(self):
        assert match_detections(days(50), days(60), MatchPolicy(3)) == []

    def test_ties_prefer_earlier_detection(self):
        pairs = match_detections(days(59, 61), days(60), MatchPolicy(3))
        assert pairs[0][0] == days(59)[0]


class TestScore:
    def test_exact_match(self):
        s = score(days(60), days(60))
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
        assert s.mean_delay_days == 0.0

    def test_early_warning_sign(self):
        s = score(days(59), days(60))
        assert s.mean_delay_days == -1.0

    def test_seven_detections_one_truth(self):
        s = score(days(*range(50, 57)), days(53))
        assert s.precision == pytest.approx(1 / 7)
        assert s.recall == 1.0

    def test_no_detections(self):
        s = score([], days(60))
        assert s.precision == 0.0 and s.recall == 0.0
        assert s.mean_delay_days is None

    def test_empty_truth(self):
        s = score([], [])
        assert s.precision == 0.0 and s.recall == 1.0 and s.f1 == 0.0

    def test_f1_formula(self):
        s = score(days(10, 60), days(60, 90))
        assert s.f1 == pytest.approx(2 * s.precision * s.recall / (s.precision + s.recall))

    def test_shift_symmetry(self):
        base = score(days(10, 60), days(12, 70))
        shifted = score(days(110, 160), days(112, 170))
        assert (base.precision, base.recall, base.mean_delay_days) == (
            shifted.precision,
            shifted.recall,
            shifted.mean_delay_days,
        )

    @pytest.mark.parametrize("tol_small,tol_large", [(0, 1), (1, 3), (2, 5)])
    def test_metrics_monotone_in_tolerance(self, tol_small, tol_large):
        detected, truth = days(10, 20, 33), days(12, 21, 40)
        small = score(detected, truth, MatchPolicy(tol_small))
        large = score(detected, truth, MatchPolicy(tol_large))
        assert small.precision <= large.precision
        assert small.recall <= large.recall


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 200), max_size=8),
    st.lists(st.integers(0, 200), max_size=4),
    st.integers(-500, 500),
)
def test_score_shift_invariance_property(detected, truth, shift):
    base = score(days(*detected), days(*truth))
    moved = score(days(*(d + shift for d in detected)), days(*(t + shift for t in truth)))
    assert base.precision == moved.precision
    assert base.recall == moved.recall
    assert base.n_matched == moved.n_matched


def loop_bootstrap_ci(scores, n_boot, level, seed):
    """The bootstrap as one draw and one ``pool_scores`` call per resample."""
    rng = np.random.default_rng(seed)
    samples = {"precision": [], "recall": [], "f1": [], "mean_delay_days": []}
    for _ in range(n_boot):
        idx = rng.integers(0, len(scores), size=len(scores))
        pooled = pool_scores([scores[i] for i in idx])
        samples["precision"].append(pooled.precision)
        samples["recall"].append(pooled.recall)
        samples["f1"].append(pooled.f1)
        samples["mean_delay_days"].append(
            np.nan if pooled.mean_delay_days is None else pooled.mean_delay_days
        )
    lo_q, hi_q = 100 * (1 - level) / 2, 100 * (1 + level) / 2
    out = {}
    for name, vals in samples.items():
        arr = np.asarray(vals, dtype=float)
        arr = arr[~np.isnan(arr)]
        out[name] = None if arr.size == 0 else {
            "lo": float(np.percentile(arr, lo_q)),
            "hi": float(np.percentile(arr, hi_q)),
        }
    return out


def _random_scores(seed, n):
    rng = np.random.default_rng(seed)
    return [
        score(
            days(*(int(v) for v in rng.integers(0, 60, size=rng.integers(0, 6)))),
            days(*(int(v) for v in rng.integers(0, 60, size=rng.integers(0, 3)))),
            MatchPolicy(int(rng.integers(0, 8))),
        )
        for _ in range(n)
    ]


BOOTSTRAP_CASES = {
    # no detections anywhere: precision 0, no delays
    "no_detections": [score([], days(10)), score([], days(20, 30))],
    # no truth anywhere: recall 1, no delays
    "no_truth": [score(days(5), []), score(days(6, 9), [])],
    # detections and truth that never match: mean delay None in every resample
    "no_delays": [score(days(10), days(60)), score(days(1, 2), days(40))],
    # delays in some series only, so some resamples have none
    "mixed": [
        score(days(59), days(60)),
        score([], days(20)),
        score(days(5), []),
        score(days(31, 33), days(30, 34)),
    ],
    "random_small": _random_scores(1, 3),
    "random_large": _random_scores(2, 37),
}


class TestPoolAndBootstrap:
    def test_pooling_counts(self):
        scores = [score(days(60), days(60)), score(days(10, 60), days(60))]
        pooled = pool_scores(scores)
        assert pooled.n_detected == 3 and pooled.n_true == 2 and pooled.n_matched == 2
        assert pooled.precision == pytest.approx(2 / 3)

    def test_identical_scores_zero_width_interval(self):
        scores = [score(days(60), days(60)) for _ in range(10)]
        ci = bootstrap_ci(scores, n_boot=100, seed=1)
        assert ci["precision"] == {"lo": 1.0, "hi": 1.0}
        assert ci["recall"] == {"lo": 1.0, "hi": 1.0}

    def test_reproducible_with_seed(self):
        rng = np.random.default_rng(0)
        scores = [
            score(
                days(*(int(v) for v in rng.integers(0, 100, size=3))),
                days(int(rng.integers(0, 100))),
            )
            for _ in range(20)
        ]
        assert bootstrap_ci(scores, seed=7) == bootstrap_ci(scores, seed=7)

    def test_requires_two_series(self):
        with pytest.raises(InvalidInputError):
            bootstrap_ci([score(days(1), days(1))])

    def test_pool_of_nothing_rejected(self):
        with pytest.raises(InvalidInputError, match="zero scores"):
            pool_scores([])

    def test_level_one_rejected(self):
        with pytest.raises(InvalidInputError, match="level"):
            bootstrap_ci([score(days(1), days(1))] * 2, level=1.0)

    @pytest.mark.parametrize("n_boot", [-1, evaluation.MAX_BOOTSTRAP + 1])
    def test_n_boot_bounded(self, n_boot):
        scores = [score(days(1), days(1))] * 2
        with pytest.raises(InvalidInputError, match="n_boot"):
            bootstrap_ci(scores, n_boot=n_boot)

    @pytest.mark.parametrize("n_boot", [0, 1, 2, 100])
    @pytest.mark.parametrize("level", [0.9, 0.95])
    @pytest.mark.parametrize("case", sorted(BOOTSTRAP_CASES))
    def test_bit_equal_to_pool_scores_loop(self, case, level, n_boot):
        scores = BOOTSTRAP_CASES[case]
        for seed in (0, 7):
            expected = loop_bootstrap_ci(scores, n_boot, level, seed)
            assert bootstrap_ci(scores, n_boot=n_boot, level=level, seed=seed) == expected


class TestHarness:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            make_method("prophet")

    def test_signature_method_scores_sharp_corpus(self):
        corpus = generate_batch(
            "sharp_drop", 8, master_seed=77, overrides={"duration_days": 120}
        )
        _, pooled = evaluate_corpus(
            corpus,
            make_method("signature", window=14, threshold_k=1.5, depth=3),
            MatchPolicy(3),
            n_boot=20,
        )
        assert pooled.recall == 1.0
        assert pooled.precision > 0
        assert pooled.ci["recall"]["lo"] == 1.0

    def test_baseline_methods_run(self):
        corpus = generate_batch(
            "sharp_drop", 4, master_seed=78, overrides={"duration_days": 120}
        )
        for name, params in (
            ("ma_crossover", {"short_window": 7, "long_window": 28}),
            ("rolling_regression", {"window": 7}),
            ("cusum", {}),
        ):
            _, pooled = evaluate_corpus(corpus, make_method(name, **params), n_boot=0)
            assert pooled.n_true == 4

    def test_signature_method_never_segments(self, monkeypatch):
        corpus = generate_batch(
            list(PATTERN_KINDS), 1, master_seed=3000, overrides={"duration_days": 120}
        )
        for cfg in (DetectorConfig(merge_gap=0), DetectorConfig(merge_gap=0, feature_mode="log")):
            expected = evaluate_corpus(
                corpus, lambda s, cfg=cfg: [c.date for c in detect(s, cfg).change_points], n_boot=20
            )
            calls = []
            monkeypatch.setattr(detector, "segment_series", lambda *a, **k: calls.append(a))
            method = make_method("signature", feature_mode=cfg.feature_mode)
            assert evaluate_corpus(corpus, method, n_boot=20) == expected
            monkeypatch.undo()
            assert calls == []

    def test_parity_split(self):
        corpus = list(range(9))
        train, val = parity_split(corpus)
        assert train == [0, 2, 4, 6, 8]
        assert val == [1, 3, 5, 7]


@pytest.fixture(scope="module")
def small_sharp_corpus():
    return generate_batch(
        "sharp_drop", 6, master_seed=55, overrides={"duration_days": 120}
    )


class TestGridSearch:
    @pytest.fixture
    def corpus(self, small_sharp_corpus):
        return small_sharp_corpus

    def test_single_cell_returned(self, corpus):
        best, metrics, rows = grid_search(
            "signature", {"window": [14], "threshold_k": [1.5]}, corpus
        )
        assert best == {"window": 14, "threshold_k": 1.5}
        assert len(rows) == 1

    def test_empty_grid_rejected(self, corpus):
        with pytest.raises(InvalidInputError):
            grid_search("signature", {}, corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError, match="corpus must be non-empty"):
            grid_search("signature", {"window": [14]}, [])

    def test_cells_enumerate_in_sorted_name_order(self):
        from sigfatigue.evaluation import _grid_cells

        assert _grid_cells({"b": [2, 1], "a": [0]}) == [
            {"a": 0, "b": 2},
            {"a": 0, "b": 1},
        ]

    def test_tie_break_prefers_earlier_delay(self, corpus):
        # every cell detects everything; the earlier-firing cell must win
        truths = {id(item): item.truth_dates() for item in corpus}

        def fake_method(shift=0, **_):
            def run(series):
                for item in corpus:
                    if item.series is series:
                        return [d + dt.timedelta(days=shift) for d in truths[id(item)]]
                raise AssertionError("unknown series")

            return run

        from sigfatigue import evaluation

        original = evaluation.METHODS.get("shifty")
        evaluation.METHODS["shifty"] = fake_method
        try:
            best, metrics, _ = grid_search("shifty", {"shift": [2, -1, 1]}, corpus)
        finally:
            if original is None:
                evaluation.METHODS.pop("shifty")
            else:
                evaluation.METHODS["shifty"] = original
        assert best == {"shift": -1}
        assert metrics.mean_delay_days == -1.0

    def test_grid_shape_three_by_three(self, corpus):
        _, _, rows = grid_search(
            "signature",
            {"window": [7, 14, 21], "threshold_k": [1.5, 2.0, 2.5]},
            corpus,
        )
        assert len(rows) == 9


class TestDistanceReuse:
    GRID = {
        "window": [7, 14],
        "threshold_k": [1.5, 2.5],
        "depth": [2, 3],
        "feature_mode": ["full", "log"],
        "merge_gap": [0, 7],
    }

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_batch(
            list(PATTERN_KINDS), 1, master_seed=4100, overrides={"duration_days": 120}
        )

    def _cells(self, grid):
        names = sorted(grid)
        return [dict(zip(names, vals)) for vals in itertools.product(*(grid[n] for n in names))]

    def test_default_sweep_computes_each_distance_series_once(self, monkeypatch, corpus):
        calls = []

        def counting(series, cfg):
            calls.append((id(series), cfg.window, cfg.depth, cfg.feature_mode))
            return detector.distance_series(series, cfg)

        monkeypatch.setattr(evaluation, "distance_series", counting)
        assert len(corpus) == 7
        sensitivity_report(corpus, n_boot=10)
        assert len(calls) == 21 and len(set(calls)) == 21

    def test_sensitivity_rows_equal_per_cell_evaluation(self, corpus):
        rows = sensitivity_report(corpus, grid=self.GRID, n_boot=20, seed=5)
        expected = []
        for cell in self._cells(self.GRID):
            _, pooled = evaluate_corpus(
                corpus, make_method("signature", **cell), MatchPolicy(), n_boot=20, seed=5
            )
            row = {k: cell[k] for k in ("window", "threshold_k", "depth")}
            expected.append({**row, **pooled.to_dict()})
        assert rows == expected

    def test_grid_search_rows_equal_per_cell_evaluation(self, corpus):
        grid = {**self.GRID, "alpha": [0.05, 0.1]}
        policy = MatchPolicy(2)
        _, _, rows = grid_search("signature", grid, corpus, policy)
        assert rows == [
            (cell, evaluate_corpus(corpus, make_method("signature", **cell), policy, n_boot=0)[1])
            for cell in self._cells(grid)
        ]


class TestSensitivity:
    def test_default_grid_rows(self):
        corpus = generate_batch(
            "sharp_drop", 5, master_seed=91, overrides={"duration_days": 120}
        )
        rows = sensitivity_report(corpus, n_boot=10)
        assert len(rows) == 9
        assert {(r["window"], r["threshold_k"]) for r in rows} == {
            (w, k) for w in (7, 14, 21) for k in (1.5, 2.0, 2.5)
        }
        for row in rows:
            assert "ci" in row and 0.0 <= row["precision"] <= 1.0

    def test_empty_grid_rejected(self):
        corpus = generate_batch("sharp_drop", 2, master_seed=91, overrides={"duration_days": 120})
        with pytest.raises(InvalidInputError):
            sensitivity_report(corpus, grid={"window": []})

    @pytest.mark.parametrize("n_boot", [-1, evaluation.MAX_BOOTSTRAP + 1])
    def test_n_boot_checked_before_any_distance(self, monkeypatch, n_boot):
        corpus = generate_batch("sharp_drop", 2, master_seed=91, overrides={"duration_days": 120})
        monkeypatch.setattr(evaluation, "distance_series", None)
        with pytest.raises(InvalidInputError, match="n_boot"):
            sensitivity_report(corpus, n_boot=n_boot)
        with pytest.raises(InvalidInputError, match="n_boot"):
            evaluate_corpus(corpus, "signature", n_boot=n_boot)

    def test_noiseless_corpus_exact_tolerance(self):
        corpus = generate_batch(
            "sharp_drop", 10, master_seed=61,
            overrides={"duration_days": 120, "noise_cv": 0.0},
        )
        run = make_method("signature", window=14, threshold_k=1.5, depth=3)
        exact = evaluate_corpus(corpus, run, MatchPolicy(0), n_boot=0)[1]
        loose = evaluate_corpus(corpus, run, MatchPolicy(3), n_boot=0)[1]
        assert exact.recall == 1.0  # a flag lands exactly on the truth day
        assert loose.recall == 1.0

    def test_grid_search_tunes_baselines(self):
        corpus = generate_batch(
            "sharp_drop", 4, master_seed=23, overrides={"duration_days": 120}
        )
        best, metrics, rows = grid_search(
            "ma_crossover",
            {"short_window": [5, 7], "long_window": [21, 28]},
            corpus,
        )
        assert len(rows) == 4
        assert set(best) == {"short_window", "long_window"}
        assert 0.0 <= metrics.f1 <= 1.0

    def test_precision_trend_in_k(self, sharp_corpus):
        rows = sensitivity_report(
            sharp_corpus,
            grid={"window": [7, 14, 21], "threshold_k": [1.5, 2.5], "depth": [3]},
            n_boot=0,
        )
        for w in (7, 14, 21):
            by_k = {r["threshold_k"]: r["precision"] for r in rows if r["window"] == w}
            assert by_k[2.5] >= by_k[1.5]
