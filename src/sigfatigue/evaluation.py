"""Scoring detections against ground truth, bootstrap intervals, sweeps.

Detections are matched to true change days greedily in order of
increasing absolute day gap (ties prefer the earlier detected date, then
the earlier true date); each side is used at most once and a pair only
counts within the policy tolerance.  Delay is detected minus true, so
negative values are early warnings.

Corpus scores are pooled counts (micro averages); confidence intervals
come from a seeded percentile bootstrap over series.  Benchmarking runs
detectors through a small registry so the signature method and the
reference baselines share one harness.  Following the published
protocol, the signature method is scored on its raw exceedance flags
(merging disabled); merged change points are an analyst-facing report
feature.

A signature-method sweep or grid search computes each series' distances
once per (window, depth, feature_mode) and thresholds them for every
threshold_k and merge_gap of the grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import baselines
from .detector import DetectorConfig, distance_series, flag_change_points
from .errors import InvalidInputError
from .windowing import _record_dict

__all__ = [
    "MatchPolicy",
    "EvalMetrics",
    "match_detections",
    "score",
    "pool_scores",
    "bootstrap_ci",
    "METHODS",
    "make_method",
    "evaluate_corpus",
    "parity_split",
    "grid_search",
    "sensitivity_report",
]

# bootstrap_ci draws an (n_boot, n_series) index array in one call
MAX_BOOTSTRAP = 10_000


def _check_n_boot(n_boot: int) -> None:
    if not 0 <= n_boot <= MAX_BOOTSTRAP:
        raise InvalidInputError(f"n_boot must be in [0, {MAX_BOOTSTRAP}], got {n_boot}")


@dataclass(frozen=True)
class MatchPolicy:
    """How close (in days) a detection must land to count as a match."""

    tolerance_days: int = 3

    def __post_init__(self):
        if self.tolerance_days < 0:
            raise InvalidInputError(
                f"tolerance_days must be >= 0, got {self.tolerance_days}"
            )


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    f1: float
    mean_delay_days: float | None
    n_detected: int
    n_true: int
    n_matched: int
    delays: tuple = ()
    ci: dict | None = None

    def to_dict(self) -> dict:
        """The metrics without ``delays``, and without ``ci`` when unset."""
        out = _record_dict(self)
        del out["delays"]
        if self.ci is None:
            del out["ci"]
        return out


def match_detections(detected, truth, policy: MatchPolicy = MatchPolicy()) -> list:
    """Greedy one-to-one matching of detected dates to true dates."""
    detected = sorted(detected)
    truth = sorted(truth)
    candidates = []
    for d in detected:
        for t in truth:
            gap = (d - t).days
            if abs(gap) <= policy.tolerance_days:
                candidates.append((abs(gap), d, t))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    used_d, used_t, pairs = set(), set(), []
    for _, d, t in candidates:
        if d in used_d or t in used_t:
            continue
        used_d.add(d)
        used_t.add(t)
        pairs.append((d, t))
    pairs.sort(key=lambda p: p[1])
    return pairs


def _metrics_from_counts(n_detected, n_true, n_matched, delays) -> EvalMetrics:
    precision = n_matched / n_detected if n_detected else 0.0
    recall = n_matched / n_true if n_true else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    mean_delay = float(np.mean(delays)) if delays else None
    return EvalMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        mean_delay_days=mean_delay,
        n_detected=n_detected,
        n_true=n_true,
        n_matched=n_matched,
        delays=tuple(delays),
    )


def score(detected, truth, policy: MatchPolicy = MatchPolicy()) -> EvalMetrics:
    """Precision, recall, F1 and matched-pair delays for one series."""
    detected = list(detected)
    truth = list(truth)
    pairs = match_detections(detected, truth, policy)
    delays = [(d - t).days for d, t in pairs]
    return _metrics_from_counts(len(detected), len(truth), len(pairs), delays)


def pool_scores(scores) -> EvalMetrics:
    """Micro-averaged metrics over per-series scores."""
    scores = list(scores)
    if not scores:
        raise InvalidInputError("cannot pool zero scores")
    delays = [d for s in scores for d in s.delays]
    return _metrics_from_counts(
        sum(s.n_detected for s in scores),
        sum(s.n_true for s in scores),
        sum(s.n_matched for s in scores),
        delays,
    )


def bootstrap_ci(scores, n_boot: int = 100, level: float = 0.95, seed: int = 0) -> dict:
    """Percentile bootstrap over series for each pooled metric.

    ``n_boot`` is from 0 to ``MAX_BOOTSTRAP``.  All resamples are drawn
    in one call, which yields the same index stream as one draw per
    resample, and each is pooled from per-series counts exactly as
    ``pool_scores`` pools it: delays are whole days, so their sums are
    exact integers.
    """
    scores = list(scores)
    if len(scores) < 2:
        raise InvalidInputError("bootstrap needs at least 2 series")
    if not 0 < level < 1:
        raise InvalidInputError(f"level must be in (0, 1), got {level}")
    _check_n_boot(n_boot)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(scores), size=(n_boot, len(scores)))
    counts = np.array(
        [[s.n_detected, s.n_true, s.n_matched, len(s.delays), sum(s.delays)] for s in scores]
    )
    detected, true, matched, n_delays, delay_sum = counts[idx].sum(axis=1).T
    # the same float operations, in the same order, as _metrics_from_counts
    precision = np.divide(matched, detected, out=np.zeros(len(idx)), where=detected > 0)
    recall = np.divide(matched, true, out=np.ones(len(idx)), where=true > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(len(idx)), where=both > 0)
    mean_delay = np.divide(
        delay_sum, n_delays, out=np.full(len(idx), np.nan), where=n_delays > 0
    )
    lo_q, hi_q = 100 * (1 - level) / 2, 100 * (1 + level) / 2
    rates = ("precision", "recall", "f1")
    out = dict.fromkeys((*rates, "mean_delay_days"))
    if len(idx):
        bounds = np.percentile(np.stack([precision, recall, f1]), [lo_q, hi_q], axis=1)
        for name, (lo, hi) in zip(rates, bounds.T.tolist()):
            out[name] = {"lo": lo, "hi": hi}
    delays = mean_delay[~np.isnan(mean_delay)]
    if delays.size:
        lo, hi = np.percentile(delays, [lo_q, hi_q]).tolist()
        out["mean_delay_days"] = {"lo": lo, "hi": hi}
    return out


def _signature_config(params: dict) -> DetectorConfig:
    params = dict(params)
    return DetectorConfig(merge_gap=params.pop("merge_gap", 0), **params)


def _flag_dates(distances, cfg: DetectorConfig) -> list:
    _, _, _, change_points = flag_change_points(distances, cfg)
    return [c.date for c in change_points]


def _signature_method(**params):
    cfg = _signature_config(params)
    return lambda series: _flag_dates(distance_series(series, cfg), cfg)


def _ma_method(**params):
    return lambda series: baselines.ma_crossover(series, **params)


def _cusum_method(**params):
    return lambda series: baselines.cusum(series, **params)


def _rolling_method(**params):
    return lambda series: baselines.rolling_regression(series, **params)


METHODS = {
    "signature": _signature_method,
    "ma_crossover": _ma_method,
    "cusum": _cusum_method,
    "rolling_regression": _rolling_method,
}


def make_method(name: str, **params):
    """Detector callable (series -> list of dates) from the registry."""
    if name not in METHODS:
        raise InvalidInputError(
            f"unknown method {name!r}, expected one of {sorted(METHODS)}"
        )
    return METHODS[name](**params)


def evaluate_corpus(
    corpus,
    method,
    policy: MatchPolicy = MatchPolicy(),
    n_boot: int = 100,
    seed: int = 0,
) -> tuple:
    """Score a method over a corpus.

    ``method`` is a registry name or a callable.  Returns
    (per-series scores, pooled EvalMetrics with bootstrap intervals).
    """
    _check_n_boot(n_boot)
    run = make_method(method) if isinstance(method, str) else method
    per_series = []
    for item in corpus:
        detected = run(item.series)
        per_series.append(score(detected, item.truth_dates(), policy))
    pooled = pool_scores(per_series)
    ci = (
        bootstrap_ci(per_series, n_boot=n_boot, seed=seed)
        if n_boot >= 1 and len(per_series) >= 2
        else None
    )
    return per_series, replace(pooled, ci=ci)


def parity_split(corpus) -> tuple:
    """50/50 train/validation split by series index parity."""
    corpus = list(corpus)
    return corpus[0::2], corpus[1::2]


def _grid_cells(grid: dict) -> list:
    names = sorted(grid)
    cells = []
    for values in itertools.product(*(grid[n] for n in names)):
        cells.append(dict(zip(names, values)))
    return cells


def _grid_rows(method: str, grid: dict, corpus, policy, n_boot: int, seed: int) -> list:
    """(params, pooled metrics) for every grid cell, in lexicographic order."""
    if not grid or not any(len(v) for v in grid.values()):
        raise InvalidInputError("parameter grid must be non-empty")
    _check_n_boot(n_boot)
    corpus = list(corpus)
    if not corpus:
        raise InvalidInputError("corpus must be non-empty")
    cells = _grid_cells(grid)
    if method == "signature":
        runs = _shared_distance_runs(cells, corpus)
    else:
        runs = ((i, make_method(method, **params)) for i, params in enumerate(cells))
    rows = [None] * len(cells)
    for i, run in runs:
        _, pooled = evaluate_corpus(corpus, run, policy, n_boot=n_boot, seed=seed)
        rows[i] = (cells[i], pooled)
    return rows


def _shared_distance_runs(cells: list, corpus: list):
    """Yield (cell index, method) for signature-method cells, group by group.

    ``distance_series`` reads only window, depth and feature_mode, so the
    cells that differ in nothing else (threshold_k, merge_gap) share one
    distance series per corpus series.  Each group's distances are
    dropped before the next group's are computed.
    """
    configs = [_signature_config(params) for params in cells]
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.window, cfg.depth, cfg.feature_mode), []).append(i)
    for indices in groups.values():
        first = configs[indices[0]]
        distances = {id(item.series): distance_series(item.series, first) for item in corpus}
        # the caller runs each method before it asks for the next one
        for i in indices:
            yield i, lambda series, cfg=configs[i]: _flag_dates(distances[id(series)], cfg)
        del distances


def grid_search(
    method: str,
    grid: dict,
    corpus,
    policy: MatchPolicy = MatchPolicy(),
    objective: str = "f1",
) -> tuple:
    """Exhaustive parameter search; returns (best params, best metrics, rows).

    Ties on the objective break toward the earlier (more negative) mean
    delay, then the earlier grid cell in lexicographic parameter order.
    """
    rows = _grid_rows(method, grid, corpus, policy, n_boot=0, seed=0)
    best_params, best_metrics = rows[0]
    for params, pooled in rows[1:]:
        cur = getattr(pooled, objective)
        best = getattr(best_metrics, objective)
        if cur > best:
            best_params, best_metrics = params, pooled
        elif cur == best:
            cur_delay = pooled.mean_delay_days
            best_delay = best_metrics.mean_delay_days
            cur_delay = float("inf") if cur_delay is None else cur_delay
            best_delay = float("inf") if best_delay is None else best_delay
            if cur_delay < best_delay:
                best_params, best_metrics = params, pooled
    return best_params, best_metrics, rows


def sensitivity_report(
    corpus,
    grid: dict | None = None,
    policy: MatchPolicy = MatchPolicy(),
    n_boot: int = 100,
    seed: int = 0,
) -> list:
    """One row of signature-method metrics per parameter-grid cell.

    The default grid sweeps window in {7, 14, 21} and threshold_k in
    {1.5, 2.0, 2.5} at depth 3.  Each row carries pooled metrics plus
    bootstrap intervals.
    """
    if grid is None:
        grid = {"window": [7, 14, 21], "threshold_k": [1.5, 2.0, 2.5], "depth": [3]}
    rows = []
    for params, pooled in _grid_rows("signature", grid, corpus, policy, n_boot, seed):
        row = {name: params.get(name) for name in ("window", "threshold_k", "depth")}
        rows.append({**row, **pooled.to_dict()})
    return rows
