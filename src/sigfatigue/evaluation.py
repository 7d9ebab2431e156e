"""Scoring detections against ground truth, bootstrap intervals, sweeps.

Detections are matched to true change days greedily in order of
increasing absolute day gap (ties prefer the earlier detected date, then
the earlier true date); each side is used at most once and a pair only
counts within the policy tolerance.  Delay is detected minus true, so
negative values are early warnings.

Corpus scores are pooled counts (micro averages); confidence intervals
come from a seeded percentile bootstrap over series.  Every interval is
taken on one path: a (cells, series, 5) array of per-series counts, one
(n_boot, series) index draw shared by every cell, each cell's
resamples pooled by ``_rates`` and percentiles along the resample axis.
``bootstrap_ci`` and ``evaluate_corpus`` are its one-cell case.  The signature
method and the reference baselines share one harness: ``METHODS`` names
them, ``method_params`` gives the parameters each reads with their
defaults, and ``make_method`` builds each one's corpus callable, list
of series -> one list of detected dates per series, so the signature
method pools a corpus into few kernel calls.
Following the published protocol, the signature method is scored on its
raw exceedance flags (merging disabled); merged change points are an
analyst-facing report feature.

``sensitivity_report`` sweeps the signature method over a parameter
grid: it computes each series' distances once per (window, depth,
feature_mode), on the same pooled path, takes their mean and std once,
thresholds them for every threshold_k and merge_gap of the grid, and
bootstraps every cell from the one shared draw.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import baselines
from .detector import DetectorConfig, _kept_flags, _moments, _pooled_distances
from .errors import InvalidInputError, check_number
from .windowing import _record_dict

__all__ = [
    "MatchPolicy",
    "EvalMetrics",
    "match_detections",
    "score",
    "pool_scores",
    "bootstrap_ci",
    "METHODS",
    "method_params",
    "make_method",
    "evaluate_corpus",
    "sensitivity_report",
]

# bootstrap_ci draws an (n_boot, n_series) index array in one call
MAX_BOOTSTRAP = 10_000
N_BOOT = 100  # bootstrap resamples by default
CI_LEVEL = 0.95  # of every bootstrap interval
# the parameter grid sensitivity_report sweeps by default
DEFAULT_GRID = {"window": (7, 14, 21), "threshold_k": (1.5, 2.0, 2.5), "depth": (3,)}
METHODS = ("signature", *baselines.__all__)


def _check_bootstrap(n_boot: int, seed: int) -> None:
    check_number("n_boot", n_boot, 0, MAX_BOOTSTRAP, integer=True)
    check_number("seed", seed, 0, math.inf, integer=True)


@dataclass(frozen=True)
class MatchPolicy:
    """How close (in days) a detection must land to count as a match."""

    tolerance_days: int = 3

    def __post_init__(self):
        check_number("tolerance_days", self.tolerance_days, 0, math.inf, integer=True)


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    f1: float
    mean_delay_days: float | None
    n_detected: int
    n_true: int
    n_matched: int
    delays: tuple = field(default=(), metadata={"written": False})
    ci: dict | None = field(default=None, metadata={"written": "if set"})

    def to_dict(self) -> dict:
        return _record_dict(self)


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


def _rates(detected, true, matched, n_delays, delay_sum) -> tuple:
    """Precision, recall, F1 and mean delay from pooled counts, either
    numbers or arrays (elementwise).

    A zero count is divided as 1.  What is divided by it is then 0 too,
    because matches never outnumber detections or truths and delays come
    only from matches: precision and F1 come out 0, recall 1 (the
    ``no_truth`` term) and the mean delay 0, which callers drop where
    ``n_delays`` is 0.  Delays are whole days, so each sum is exact.
    """
    no_truth = true == 0
    precision = matched / (detected + (detected == 0))
    recall = matched / (true + no_truth) + no_truth
    both = precision + recall
    f1 = 2 * precision * recall / (both + (both == 0))
    mean_delay = delay_sum / (n_delays + (n_delays == 0))
    return precision, recall, f1, mean_delay


def _metrics_from_counts(n_detected, n_true, n_matched, delays) -> EvalMetrics:
    precision, recall, f1, mean_delay = _rates(
        n_detected, n_true, n_matched, len(delays), sum(delays)
    )
    return EvalMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        mean_delay_days=mean_delay if delays else None,
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


def bootstrap_ci(scores, n_boot: int = N_BOOT, seed: int = 0) -> dict:
    """Percentile bootstrap over series for each pooled metric, at ``CI_LEVEL``.

    ``n_boot`` is from 0 to ``MAX_BOOTSTRAP`` and ``seed`` a nonnegative
    integer.  All resamples are drawn in one call, which yields the same
    index stream as one draw per resample, and each is pooled from
    per-series counts by ``_rates``, the formula ``pool_scores`` uses.
    """
    scores = list(scores)
    if len(scores) < 2:
        raise InvalidInputError("bootstrap needs at least 2 series")
    _check_bootstrap(n_boot, seed)
    return _bootstrap_cis(_counts([scores]), n_boot, seed)[0]


def _counts(score_lists) -> np.ndarray:
    """The (cells, series, 5) counts of equally long lists of per-series
    scores: detected, true, matched, delays and their sum."""
    return np.array(
        [
            [[s.n_detected, s.n_true, s.n_matched, len(s.delays), sum(s.delays)] for s in scores]
            for scores in score_lists
        ],
        dtype=np.int64,
    )


def _bootstrap_cis(counts, n_boot: int, seed: int) -> list:
    """``bootstrap_ci`` of each cell of a (cells, series, 5) ``_counts``
    array, every cell resampled with the same series indices."""
    n_series = counts.shape[1]
    idx = np.random.default_rng(seed).integers(0, n_series, size=(n_boot, n_series))
    # how often each resample draws each series, so its pooled counts are one product
    draws = np.bincount(
        (idx + n_series * np.arange(n_boot)[:, None]).ravel(), minlength=n_boot * n_series
    ).reshape(n_boot, n_series)
    detected, true, matched, n_delays, delay_sum = np.moveaxis(draws @ counts, -1, 0)
    precision, recall, f1, mean_delay = _rates(detected, true, matched, n_delays, delay_sum)
    lo_q, hi_q = 100 * (1 - CI_LEVEL) / 2, 100 * (1 + CI_LEVEL) / 2
    rates = ("precision", "recall", "f1")
    if n_boot:  # (cell, rate, bound)
        bounds = np.percentile(np.stack([precision, recall, f1], axis=1), [lo_q, hi_q], axis=2)
        bounds = bounds.transpose(1, 2, 0).tolist()
    out = []
    for cell in range(len(counts)):
        ci = dict.fromkeys((*rates, "mean_delay_days"))
        if n_boot:
            for name, (lo, hi) in zip(rates, bounds[cell]):
                ci[name] = {"lo": lo, "hi": hi}
        delays = mean_delay[cell][n_delays[cell] > 0]
        if delays.size:
            lo, hi = np.percentile(delays, [lo_q, hi_q]).tolist()
            ci["mean_delay_days"] = {"lo": lo, "hi": hi}
        out.append(ci)
    return out


def _pooled_cells(score_lists, n_boot: int, seed: int) -> list:
    """``pool_scores`` of each of equally long lists of per-series scores,
    with bootstrap intervals, from one shared draw, when ``n_boot`` is 1
    or more and there are 2 or more series."""
    pooled = [pool_scores(scores) for scores in score_lists]
    if n_boot < 1 or len(score_lists[0]) < 2:
        return pooled
    cis = _bootstrap_cis(_counts(score_lists), n_boot, seed)
    return [replace(metrics, ci=ci) for metrics, ci in zip(pooled, cis)]


def method_params(name: str) -> dict:
    """Each parameter method ``name`` reads, mapped to its default.

    The signature method reads every ``DetectorConfig`` field but the
    trend tests' alpha, since scoring never segments, with merge_gap 0,
    since it scores raw flags.  A baseline reads the keyword parameters
    of its own signature, which ``inspect.signature`` follows through a
    wrapper's ``__wrapped__``.
    """
    if name not in METHODS:
        raise InvalidInputError(f"unknown method {name!r}, expected one of {sorted(METHODS)}")
    if name == "signature":
        defaults = {f.name: f.default for f in fields(DetectorConfig) if f.name != "alpha"}
        return {**defaults, "merge_gap": 0}
    parameters = list(inspect.signature(getattr(baselines, name)).parameters.values())
    return {p.name: p.default for p in parameters[1:]}


def _check_params(name: str, params) -> None:
    """Refuse a parameter that method ``name`` does not read."""
    reads = method_params(name)
    unread = [param for param in params if param not in reads]
    if unread:
        raise InvalidInputError(
            f"{name} does not read {', '.join(map(repr, unread))}; it reads {', '.join(reads)}"
        )


def _signature_config(params: dict) -> DetectorConfig:
    return DetectorConfig(**{**method_params("signature"), **params})


def _flag_dates(distances, moments, cfg: DetectorConfig) -> list:
    """The dates of the change points ``flag_change_points(distances, cfg)``
    returns, from ``moments = _moments(distances)``."""
    _, kept = _kept_flags(distances, moments, cfg.threshold_k, cfg.merge_gap)
    return distances["date"][kept].tolist()


def make_method(name: str, **params):
    """Corpus callable of method ``name``: it takes a list of series and
    returns one list of detected dates per series, in order."""
    _check_params(name, params)
    if name == "signature":
        cfg = _signature_config(params)
        return lambda series_list: [
            _flag_dates(d, _moments(d), cfg) for d in _pooled_distances(series_list, cfg)
        ]
    # looked up on each call, so a wrapped baselines function is the one run
    return lambda series_list: [getattr(baselines, name)(s, **params) for s in series_list]


def evaluate_corpus(
    corpus,
    method,
    policy: MatchPolicy = MatchPolicy(),
    n_boot: int = N_BOOT,
    seed: int = 0,
) -> tuple:
    """Score a method over a corpus.

    ``method`` is a ``METHODS`` name or a corpus callable as ``make_method``
    returns, called once with every series of the corpus.  Returns
    (per-series scores, pooled EvalMetrics with bootstrap intervals).
    """
    _check_bootstrap(n_boot, seed)
    corpus = list(corpus)
    run = make_method(method) if isinstance(method, str) else method
    detections = list(run([item.series for item in corpus]))
    if len(detections) != len(corpus):
        raise InvalidInputError(
            f"method returned {len(detections)} detection lists for {len(corpus)} series"
        )
    per_series = [score(d, item.truth_dates(), policy) for d, item in zip(detections, corpus)]
    return per_series, _pooled_cells([per_series], n_boot, seed)[0]


def sensitivity_report(
    corpus,
    grid: dict | None = None,
    policy: MatchPolicy = MatchPolicy(),
    n_boot: int = N_BOOT,
    seed: int = 0,
) -> list:
    """One row of signature-method metrics per parameter-grid cell.

    ``grid`` maps parameters the signature method reads to non-empty
    lists of values, and defaults to ``DEFAULT_GRID``.  Rows follow the
    cells in lexicographic order of the sorted parameter names.  Each
    row names its cell (the cell's window, threshold_k and depth, then
    any other grid parameter in sorted order) and carries pooled metrics
    plus bootstrap intervals.

    ``distance_series`` reads only window, depth and feature_mode, so
    the cells that differ in nothing else share one distance series per
    corpus series.  A group's distance series come from pooled kernel
    calls, each over as many whole series as fit one kernel block.  Each
    series' mean and std are taken once per group, and each cell applies
    its own mean + threshold_k * std to them; a group's distances are
    dropped before the next group's are computed.  The cells' bootstrap
    intervals come from one index draw, shared by every cell, so each
    row equals the ``evaluate_corpus`` call of its cell.
    """
    grid = DEFAULT_GRID if grid is None else grid
    if not (
        isinstance(grid, dict) and grid
        and all(isinstance(v, (list, tuple)) and v for v in grid.values())
    ):
        raise InvalidInputError(f"parameter grid needs a non-empty list per parameter, got {grid}")
    _check_params("signature", grid)
    _check_bootstrap(n_boot, seed)
    corpus = list(corpus)
    if not corpus:
        raise InvalidInputError("corpus must be non-empty")
    names = sorted(grid)
    cells = [dict(zip(names, values)) for values in itertools.product(*(grid[n] for n in names))]
    configs = [_signature_config(cell) for cell in cells]
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.window, cfg.depth, cfg.feature_mode), []).append(i)
    series = [item.series for item in corpus]
    truths = [item.truth_dates() for item in corpus]
    cell_scores = [None] * len(cells)
    for indices in groups.values():
        distances = _pooled_distances(series, configs[indices[0]])
        moments = [_moments(d) for d in distances]
        for i in indices:
            cell_scores[i] = [
                score(_flag_dates(d, m, configs[i]), truth, policy)
                for d, m, truth in zip(distances, moments, truths)
            ]
        del distances, moments
    rows = []
    for cell, cfg, pooled in zip(cells, configs, _pooled_cells(cell_scores, n_boot, seed)):
        row = {"window": cfg.window, "threshold_k": cfg.threshold_k, "depth": cfg.depth}
        row.update((name, cell[name]) for name in names if name not in row)
        rows.append({**row, **pooled.to_dict()})
    return rows
