import datetime as dt
import functools
import itertools
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfatigue import baselines, detector, evaluation, sigcore as sc
from sigfatigue.detector import DetectorConfig, detect
from sigfatigue.errors import InsufficientDataError, InvalidInputError
from sigfatigue.evaluation import (
    METHODS,
    EvalMetrics,
    MatchPolicy,
    bootstrap_ci,
    evaluate_corpus,
    make_method,
    match_detections,
    method_params,
    pool_scores,
    score,
    sensitivity_report,
)
from sigfatigue.synth import PATTERN_KINDS, generate_batch
from sigfatigue.windowing import _pool_paths


D = dt.date
# seeds the one number rule refuses: None would draw fresh OS entropy
BAD_SEEDS = (-1, 2.5, True, None, "x")


def draw_cases(*n_boots):
    """(n_boot, seed, the parameter refused) cases: each bad n_boot with
    seed 0, then each bad seed with a valid n_boot."""
    return [pytest.param(n, 0, "n_boot", id=str(n)) for n in n_boots] + [
        pytest.param(10, seed, "seed", id=f"seed={seed!r}") for seed in BAD_SEEDS
    ]


def days(*nums):
    return [D(2024, 1, 1) + dt.timedelta(days=n) for n in nums]


class TestMatching:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidInputError, match="tolerance_days"):
            MatchPolicy(tolerance_days=-1)

    @pytest.mark.parametrize("tolerance", [float("nan"), 1.5, 3.0, True, False])
    def test_tolerance_must_be_an_integer(self, tolerance):
        with pytest.raises(InvalidInputError, match="tolerance_days must be an integer"):
            MatchPolicy(tolerance_days=tolerance)

    def test_numpy_integer_tolerance_accepted(self):
        assert match_detections(days(59), days(60), MatchPolicy(np.int64(1)))

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 60), max_size=8),
    st.lists(st.integers(0, 60), max_size=4),
    st.integers(0, 5),
)
def test_score_equals_conditional_formula(detected, truth, tolerance):
    policy = MatchPolicy(tolerance)
    s = score(days(*detected), days(*truth), policy)
    precision = s.n_matched / s.n_detected if s.n_detected else 0.0
    recall = s.n_matched / s.n_true if s.n_true else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    delays = [(d - t).days for d, t in match_detections(days(*detected), days(*truth), policy)]
    delay = float(np.mean(delays)) if delays else None
    assert (s.precision, s.recall, s.f1, s.mean_delay_days) == (precision, recall, f1, delay)


def pooled_by_formula(detected, truth, policy):
    """The conditional formula on Python-summed counts of per-series
    detections and truths, with delays from the ``match_detections`` pairs."""
    n_detected, n_true = sum(map(len, detected)), sum(map(len, truth))
    delays = [
        (d - t).days for ds, ts in zip(detected, truth) for d, t in match_detections(ds, ts, policy)
    ]
    n_matched = len(delays)
    precision = n_matched / n_detected if n_detected else 0.0
    recall = n_matched / n_true if n_true else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "precision": precision, "recall": recall, "f1": f1,
        "mean_delay_days": sum(delays) / n_matched if delays else None,
        "n_detected": n_detected, "n_true": n_true, "n_matched": n_matched,
    }


def assert_metrics(metrics, expected):
    assert {name: getattr(metrics, name) for name in expected} == expected
    for f in fields(EvalMetrics):  # Python numbers, never numpy scalars
        assert type(getattr(metrics, f.name)) in (int, float, type(None))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(0, 60), max_size=6), st.lists(st.integers(0, 60), max_size=3)),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 5),
)
def test_pooled_metrics_equal_conditional_formula(series, tolerance):
    policy = MatchPolicy(tolerance)
    detected = [days(*d) for d, _ in series]
    truth = [days(*t) for _, t in series]
    pooled = pool_scores(score(d, t, policy) for d, t in zip(detected, truth))
    assert_metrics(pooled, pooled_by_formula(detected, truth, policy))
    corpus = [SimpleNamespace(series=i, truth_dates=lambda t=t: t) for i, t in enumerate(truth)]
    per_series, evaluated = evaluate_corpus(
        corpus, lambda indices: [detected[i] for i in indices], policy, n_boot=0
    )
    assert evaluated == pooled
    for metrics, d, t in zip(per_series, detected, truth):
        assert_metrics(metrics, pooled_by_formula([d], [t], policy))


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

    @pytest.mark.parametrize(
        "n_boot,seed,name", draw_cases(-1, evaluation.MAX_BOOTSTRAP + 1, 2.5, True)
    )
    def test_n_boot_bounded(self, n_boot, seed, name):
        scores = [score(days(1), days(1))] * 2
        with pytest.raises(InvalidInputError, match=name):
            bootstrap_ci(scores, n_boot=n_boot, seed=seed)

    @pytest.mark.parametrize("n_boot,seed,name", draw_cases(2.5, True))
    def test_evaluate_corpus_checks_n_boot(self, n_boot, seed, name):
        corpus = generate_batch(["sharp_drop"], 2, master_seed=1, overrides={"duration_days": 60})
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            evaluate_corpus(corpus, "cusum", n_boot=n_boot, seed=seed)

    def test_numpy_seed_accepted(self):
        scores = [score(days(1), days(1)), score(days(1), days(9))]
        assert bootstrap_ci(scores, seed=np.int64(7)) == bootstrap_ci(scores, seed=7)

    @pytest.mark.parametrize("n_boot", [0, 1, 2, 100])
    @pytest.mark.parametrize("level", [0.9, 0.95])
    @pytest.mark.parametrize("case", sorted(BOOTSTRAP_CASES))
    def test_bit_equal_to_pool_scores_loop(self, monkeypatch, case, level, n_boot):
        # the level is a module constant; 0.9 checks that the quantiles follow it
        monkeypatch.setattr(evaluation, "CI_LEVEL", level)
        scores = BOOTSTRAP_CASES[case]
        for seed in (0, 7):
            expected = loop_bootstrap_ci(scores, n_boot, level, seed)
            assert bootstrap_ci(scores, n_boot=n_boot, seed=seed) == expected


    @pytest.mark.parametrize("n_boot", [0, 1, 2, 100])
    @pytest.mark.parametrize("level", [0.9, 0.95])
    def test_stacked_cells_equal_pool_scores_loop(self, monkeypatch, level, n_boot):
        monkeypatch.setattr(evaluation, "CI_LEVEL", level)
        two = [BOOTSTRAP_CASES[c] for c in ("no_detections", "no_truth", "no_delays")]
        four = [BOOTSTRAP_CASES["mixed"], *(_random_scores(seed, 4) for seed in range(10, 14))]
        for cells in (two + [_random_scores(3, 2)], four):
            for seed in (0, 7):
                table = np.concatenate([evaluation._table(scores) for scores in cells])
                stacked = evaluation._bootstrap_cis(table, n_boot, seed)
                assert stacked == [loop_bootstrap_ci(c, n_boot, level, seed) for c in cells]


def detect_oracle(cfg):
    """A corpus callable that runs ``detect`` on each series alone."""
    return lambda series_list: [[c.date for c in detect(s, cfg).change_points] for s in series_list]


class TestHarness:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            make_method("prophet")

    @pytest.mark.parametrize(
        "name,params,unread,reads",
        [
            (
                "signature", {"windw": 7}, "windw",
                "window, depth, threshold_k, merge_gap, feature_mode",
            ),
            # scoring never segments, so the trend tests' alpha would change nothing
            ("signature", {"window": 7, "alpha": 0.2}, "alpha", "window, depth"),
            ("cusum", {"foo": 1}, "foo", "reference_k, decision_h"),
            ("ma_crossover", {"window": 7}, "window", "short_window, long_window"),
        ],
    )
    def test_unread_parameter_rejected(self, name, params, unread, reads):
        message = f"{name} does not read '{unread}'; it reads {reads}"
        with pytest.raises(InvalidInputError, match=message):
            make_method(name, **params)

    def test_method_params_are_the_defaults_each_method_runs(self):
        # scoring uses raw flags, so the signature method merges nothing by default
        assert method_params("signature")["merge_gap"] == 0
        corpus = generate_batch(
            list(PATTERN_KINDS), 1, master_seed=41, overrides={"duration_days": 120}
        )
        series = [item.series for item in corpus]
        for name in METHODS:
            assert make_method(name, **method_params(name))(series) == make_method(name)(series)

    def test_wrapped_baseline_reads_its_own_signature(self, monkeypatch):
        original = baselines.cusum
        wrapped = functools.wraps(original)(lambda *args, **kwargs: original(*args, **kwargs))
        monkeypatch.setattr(baselines, "cusum", wrapped)
        make_method("cusum", reference_k=1.0, decision_h=4.0)
        with pytest.raises(InvalidInputError, match="cusum does not read 'window'"):
            make_method("cusum", window=7)

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
            expected = evaluate_corpus(corpus, detect_oracle(cfg), n_boot=20)
            calls = []
            monkeypatch.setattr(detector, "segment_series", lambda *a, **k: calls.append(a))
            method = make_method("signature", feature_mode=cfg.feature_mode)
            assert evaluate_corpus(corpus, method, n_boot=20) == expected
            monkeypatch.undo()
            assert calls == []


class TestPooledEvaluate:
    """``evaluate_corpus`` hands the whole corpus to the method in one call."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_batch(
            list(PATTERN_KINDS), 1, master_seed=3100, overrides={"duration_days": 120}
        )

    @pytest.mark.parametrize("feature_mode", ["full", "log"])
    def test_signature_equals_per_series_detect(self, monkeypatch, corpus, feature_mode):
        cfg = DetectorConfig(merge_gap=0, feature_mode=feature_mode)
        expected = evaluate_corpus(corpus, detect_oracle(cfg), n_boot=20)
        assert expected[0] == [
            score([c.date for c in detect(item.series, cfg).change_points], item.truth_dates())
            for item in corpus
        ]
        # a 200-loop block holds one 120-day series' 186 loops but not two
        monkeypatch.setattr(sc, "BLOCK_BYTES", 8 * (2**3 + 2 * 15) * 200)
        calls = []

        def kernel(paths, depth, log=False):
            calls.append(len(paths))
            return sc.batch_signature(paths, depth, log=log)

        monkeypatch.setattr(detector, "batch_signature", kernel)
        method = "signature" if feature_mode == "full" else make_method("signature", feature_mode="log")
        assert evaluate_corpus(corpus, method, n_boot=20) == expected
        assert 1 < len(calls) <= len(corpus)

    def test_first_short_series_raises_as_alone(self, corpus):
        short = generate_batch("sharp_drop", 1, master_seed=5, overrides={"duration_days": 30})
        cfg = DetectorConfig(window=21)
        with pytest.raises(InsufficientDataError) as alone:
            detect(short[0].series, cfg)
        with pytest.raises(InsufficientDataError) as pooled:
            evaluate_corpus(short + list(corpus), make_method("signature", window=21), n_boot=0)
        assert str(pooled.value) == str(alone.value)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_number_of_detection_lists_rejected(self, corpus, extra):
        n = len(corpus)
        with pytest.raises(
            InvalidInputError, match=f"returned {n + extra} detection lists for {n} series"
        ):
            evaluate_corpus(corpus, lambda series_list: [[]] * (len(series_list) + extra))

    @pytest.mark.parametrize("method", [*sorted(METHODS), "callable"])
    def test_empty_corpus_rejected_before_the_method_runs(self, method):
        calls = []
        if method == "callable":
            method = lambda series_list: calls.append(series_list) or []
        with pytest.raises(InvalidInputError, match="^corpus must be non-empty$"):
            evaluate_corpus([], method)
        assert calls == []

    def test_corpus_is_read_once(self, corpus):
        _, pooled = evaluate_corpus(iter(corpus), "cusum", n_boot=10)
        assert pooled == evaluate_corpus(corpus, "cusum", n_boot=10)[1]


@pytest.fixture(scope="module")
def small_sharp_corpus():
    return generate_batch(
        "sharp_drop", 6, master_seed=55, overrides={"duration_days": 120}
    )


class TestGridSearch:
    """``sensitivity_report`` scores every cell of the parameter grid."""

    @pytest.fixture
    def corpus(self, small_sharp_corpus):
        return small_sharp_corpus

    def test_single_cell_returned(self, corpus):
        rows = sensitivity_report(corpus, {"window": [14], "threshold_k": [1.5]}, n_boot=0)
        assert [(r["window"], r["threshold_k"], r["depth"]) for r in rows] == [(14, 1.5, 3)]

    def test_rows_name_the_parameters_applied(self, corpus):
        # merge_gap None merges at the window, and the row says so
        rows = sensitivity_report(corpus, {"merge_gap": [None, 3]}, n_boot=0)
        assert [(r["window"], r["merge_gap"]) for r in rows] == [(14, 14), (14, 3)]
        _, pooled = evaluate_corpus(corpus, make_method("signature", merge_gap=14), n_boot=0)
        assert {k: v for k, v in rows[0].items() if k in pooled.to_dict()} == pooled.to_dict()

    def test_empty_grid_rejected(self, corpus):
        with pytest.raises(InvalidInputError, match="parameter grid"):
            sensitivity_report(corpus, {})

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError, match="corpus must be non-empty"):
            sensitivity_report([], {"window": [14]})

    def test_cells_enumerate_in_sorted_name_order(self, corpus):
        rows = sensitivity_report(corpus, {"window": [21, 14], "depth": [2, 3]}, n_boot=0)
        assert [(r["depth"], r["window"]) for r in rows] == [(2, 21), (2, 14), (3, 21), (3, 14)]

    def test_grid_shape_three_by_three(self, corpus):
        rows = sensitivity_report(
            corpus, {"window": [7, 14, 21], "threshold_k": [1.5, 2.0, 2.5]}, n_boot=0
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
        pooled, kernel_rows = [], []

        def pooling(series_list, window):
            pooled.extend((id(series), window) for series in series_list)
            return _pool_paths(series_list, window)

        def kernel(paths, depth, log=False):
            kernel_rows.append(len(paths))
            return sc.batch_signature(paths, depth, log=log)

        monkeypatch.setattr(detector, "_pool_paths", pooling)
        monkeypatch.setattr(detector, "batch_signature", kernel)
        assert len(corpus) == 7
        sensitivity_report(corpus, n_boot=10)
        # each series in exactly one pool per window, in one pooled kernel call per window
        assert len(pooled) == 21 and set(pooled) == {
            (id(item.series), w) for item in corpus for w in (7, 14, 21)
        }
        assert kernel_rows == [
            sum(2 * (len(item.series) - 2 * w + 1) for item in corpus) for w in (7, 14, 21)
        ]

    def test_research_pass_makes_five_kernel_calls(self, monkeypatch, corpus):
        calls = []

        def kernel(paths, depth, log=False):
            calls.append(log)
            return sc.batch_signature(paths, depth, log=log)

        monkeypatch.setattr(detector, "batch_signature", kernel)
        for method in sorted(evaluation.METHODS):
            evaluate_corpus(corpus, method, n_boot=10)
        evaluate_corpus(corpus, make_method("signature", feature_mode="log"), n_boot=10)
        sensitivity_report(corpus, n_boot=10)
        # full and log evaluation, then one call per window of the sweep
        assert calls == [False, True, False, False, False]

    def test_sensitivity_rows_equal_per_cell_evaluation(self, corpus):
        rows = sensitivity_report(corpus, grid=self.GRID, n_boot=20, seed=5)
        keys = ("window", "threshold_k", "depth", "feature_mode", "merge_gap")
        expected = []
        for cell in self._cells(self.GRID):
            _, pooled = evaluate_corpus(
                corpus, make_method("signature", **cell), MatchPolicy(), n_boot=20, seed=5
            )
            expected.append({**{k: cell[k] for k in keys}, **pooled.to_dict()})
        assert rows == expected
        assert all(tuple(row)[: len(keys)] == keys for row in rows)

    @pytest.mark.parametrize("master_seed", range(5000, 5010))
    def test_rows_equal_per_cell_evaluation_on_seeded_corpora(self, master_seed):
        corpus = generate_batch(
            list(PATTERN_KINDS), 1, master_seed=master_seed, overrides={"duration_days": 120}
        )
        grid = {
            "window": [7, 14], "threshold_k": [1.5, 2.5],
            "merge_gap": [0, 5], "feature_mode": ["full", "log"],
        }
        seed = master_seed % 7
        rows = sensitivity_report(corpus, grid, n_boot=20, seed=seed)
        assert len(rows) == len(self._cells(grid))
        for row, cell in zip(rows, self._cells(grid)):
            per_series, pooled = evaluate_corpus(
                corpus, make_method("signature", **cell), n_boot=20, seed=seed
            )
            assert row == {**cell, "depth": 3, **pooled.to_dict()}
            assert row["ci"] == loop_bootstrap_ci(per_series, 20, evaluation.CI_LEVEL, seed)

    def test_one_series_corpus_rows_carry_no_ci(self, corpus):
        rows = sensitivity_report(corpus[:1], self.GRID, n_boot=20)
        expected = [
            evaluate_corpus(corpus[:1], make_method("signature", **cell), n_boot=20)[1].to_dict()
            for cell in self._cells(self.GRID)
        ]
        assert [{k: v for k, v in row.items() if k not in self.GRID} for row in rows] == expected
        assert all("ci" not in row for row in rows)

    def test_grid_search_rows_equal_per_cell_evaluation(self, corpus):
        grid, policy = self.GRID, MatchPolicy(2)
        rows = sensitivity_report(corpus, grid, policy, n_boot=0)
        keys = ("window", "threshold_k", "depth", "feature_mode", "merge_gap")
        expected = []
        for cell in self._cells(grid):
            _, pooled = evaluate_corpus(
                corpus, make_method("signature", **cell), policy, n_boot=0
            )
            expected.append({**{k: cell[k] for k in keys}, **pooled.to_dict()})
        assert rows == expected
        assert all(tuple(row)[: len(keys)] == keys for row in rows)


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

    @pytest.mark.parametrize("n_boot,seed,name", draw_cases(-1, evaluation.MAX_BOOTSTRAP + 1))
    def test_n_boot_checked_before_any_distance(self, monkeypatch, n_boot, seed, name):
        corpus = generate_batch("sharp_drop", 2, master_seed=91, overrides={"duration_days": 120})
        monkeypatch.setattr(evaluation, "_pooled_distances", None)
        with pytest.raises(InvalidInputError, match=name):
            sensitivity_report(corpus, n_boot=n_boot, seed=seed)
        with pytest.raises(InvalidInputError, match=name):
            evaluate_corpus(corpus, "signature", n_boot=n_boot, seed=seed)

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"windw": [7]}, "signature does not read 'windw'"),
            ({"window": [7], "alpha": [0.05, 0.1]}, "signature does not read 'alpha'"),
            ({"window": 7}, "non-empty list per parameter"),
            ([7], "non-empty list per parameter"),
        ],
    )
    def test_grid_checked_before_any_distance(self, monkeypatch, grid, message):
        corpus = generate_batch("sharp_drop", 2, master_seed=91, overrides={"duration_days": 120})
        monkeypatch.setattr(evaluation, "_pooled_distances", None)
        with pytest.raises(InvalidInputError, match=message):
            sensitivity_report(corpus, grid, n_boot=0)

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

    def test_precision_trend_in_k(self, sharp_corpus):
        rows = sensitivity_report(
            sharp_corpus,
            grid={"window": [7, 14, 21], "threshold_k": [1.5, 2.5], "depth": [3]},
            n_boot=0,
        )
        for w in (7, 14, 21):
            by_k = {r["threshold_k"]: r["precision"] for r in rows if r["window"] == w}
            assert by_k[2.5] >= by_k[1.5]
