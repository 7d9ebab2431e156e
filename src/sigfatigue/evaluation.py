"""Scoring detections against ground truth, bootstrap intervals, sweeps.

Detections are matched to true change days greedily in order of
increasing absolute day gap (ties prefer the earlier detected date, then
the earlier true date); each side is used at most once and a pair only
counts within the policy tolerance.  Delay is detected minus true, so
negative values are early warnings.

Corpus scores are pooled counts (micro averages); confidence intervals
come from a seeded percentile bootstrap over series.  The signature
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
feature_mode), on the same pooled path, and thresholds them for every
threshold_k and merge_gap of the grid.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import baselines
from .detector import DetectorConfig, _pooled_distances, flag_change_points
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
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(scores), size=(n_boot, len(scores)))
    counts = np.array(
        [[s.n_detected, s.n_true, s.n_matched, len(s.delays), sum(s.delays)] for s in scores]
    )
    detected, true, matched, n_delays, delay_sum = counts[idx].sum(axis=1).T
    precision, recall, f1, mean_delay = _rates(detected, true, matched, n_delays, delay_sum)
    lo_q, hi_q = 100 * (1 - CI_LEVEL) / 2, 100 * (1 + CI_LEVEL) / 2
    rates = ("precision", "recall", "f1")
    out = dict.fromkeys((*rates, "mean_delay_days"))
    if len(idx):
        bounds = np.percentile(np.stack([precision, recall, f1]), [lo_q, hi_q], axis=1)
        for name, (lo, hi) in zip(rates, bounds.T.tolist()):
            out[name] = {"lo": lo, "hi": hi}
    delays = mean_delay[n_delays > 0]
    if delays.size:
        lo, hi = np.percentile(delays, [lo_q, hi_q]).tolist()
        out["mean_delay_days"] = {"lo": lo, "hi": hi}
    return out


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


def _flag_dates(distances, cfg: DetectorConfig) -> list:
    _, _, _, change_points = flag_change_points(distances, cfg)
    return [c.date for c in change_points]


def make_method(name: str, **params):
    """Corpus callable of method ``name``: it takes a list of series and
    returns one list of detected dates per series, in order."""
    _check_params(name, params)
    if name == "signature":
        cfg = _signature_config(params)
        return lambda series_list: [
            _flag_dates(d, cfg) for d in _pooled_distances(series_list, cfg)
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
    pooled = pool_scores(per_series)
    with_ci = n_boot >= 1 and len(per_series) >= 2
    ci = bootstrap_ci(per_series, n_boot=n_boot, seed=seed) if with_ci else None
    return per_series, replace(pooled, ci=ci)


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
    calls, each over as many whole series as fit one kernel block, and
    are dropped before the next group's are computed.
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
    rows = [None] * len(cells)
    series = [item.series for item in corpus]
    for indices in groups.values():
        distances = _pooled_distances(series, configs[indices[0]])
        for i in indices:
            cfg = configs[i]
            flags = [_flag_dates(d, cfg) for d in distances]
            _, pooled = evaluate_corpus(corpus, lambda _: flags, policy, n_boot=n_boot, seed=seed)
            row = {"window": cfg.window, "threshold_k": cfg.threshold_k, "depth": cfg.depth}
            row.update((name, cells[i][name]) for name in names if name not in row)
            rows[i] = {**row, **pooled.to_dict()}
        del distances
    return rows
