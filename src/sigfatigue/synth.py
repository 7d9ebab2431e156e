"""Seeded generator for documented creative-fatigue patterns.

Seven pattern kinds are supported, each with an explicit closed form
for the clean (noise-free) click-through rate curve and embedded ground
truth at the days where the generating law changes:

  classic_wear_out      rise to a peak at the wear-in day, then decay:
                        ctr(t) = baseline * (1 + r t) * exp(-b t) with
                        b = weekly_decay/7 and r chosen so the peak
                        falls on the wear-in day; truth = [peak day]
  sharp_drop            step to drop_factor * baseline at the drop day;
                        truth = [drop day]
  fatigue_recovery      linear decline from the first change day, then
                        linear recovery toward 70% of baseline from the
                        second (a trough above that holds); truth = both days
  volatile_decline      gradual_linear_decay with the noise level forced
                        to the top of its documented range (0.30)
  multi_stage_decline   n_stages multiplicative steps of stage_drop at
                        evenly spaced days; truth = step days
  gradual_linear_decay  flat until the onset day, then a linear decline
                        of weekly_decay_rate/7 per day, floored at
                        0.1 * baseline; truth = [onset]
  non_continuous        any base kind with each day independently
                        removed with probability gap_fraction (subject
                        to a minimum observation count)

Observation model: daily impressions are lognormal around
``impressions_mean`` (CV 0.2), a multiplicative lognormal factor with
coefficient of variation ``noise_cv`` perturbs the clean curve, and
clicks are binomial in that perturbed rate.  With ``noise_cv == 0`` the
series is fully deterministic: impressions are pinned to the mean and
clicks to round(impressions * clean), so documented closed forms are
reproduced exactly.  Generation is a pure function of the spec
(including its seed).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PatternSpecError, is_integer, number_error
from .windowing import TimeSeries, _record_dict

__all__ = [
    "PATTERN_KINDS",
    "PatternSpec",
    "GroundTruth",
    "GeneratedSeries",
    "clean_ctr_curve",
    "default_change_days",
    "generate",
    "generate_batch",
]

PATTERN_KINDS = (
    "classic_wear_out",
    "sharp_drop",
    "fatigue_recovery",
    "volatile_decline",
    "multi_stage_decline",
    "gradual_linear_decay",
    "non_continuous",
)

# documented ranges, field -> (lo, hi), in the order generate_batch draws
# them uniformly
RANGES = {
    "baseline_ctr": (0.005, 0.03),
    "weekly_decay_rate": (0.02, 0.08),
    "noise_cv": (0.10, 0.30),
    "duration_days": (30, 180),
    "drop_factor": (0.4, 0.7),
    "n_stages": (2, 3),
    "stage_drop": (0.15, 0.25),
}

VOLATILE_NOISE_CV = RANGES["noise_cv"][1]
RECOVERY_LEVEL = 0.7
DECAY_FLOOR = 0.1
IMPRESSIONS_CV = 0.2
# impressions are drawn as floats, and a float64 holds every integer only
# up to 2**53
MAX_IMPRESSIONS_MEAN = 2**53
# the fields that hold, and are drawn as, whole numbers
WHOLE_FIELDS = {"duration_days", "n_stages", "impressions_mean", "seed", "min_observations"}
# every number field's bounds, field -> (lo, hi, open_hi); noise_cv may be 0,
# for reproducible noiseless fixtures
BOUNDS = {
    **{name: (lo, hi, False) for name, (lo, hi) in RANGES.items()},
    "noise_cv": (0, RANGES["noise_cv"][1], False),
    "impressions_mean": (1, MAX_IMPRESSIONS_MEAN, False),
    "seed": (0, math.inf, False),
    "gap_fraction": (0, 1, True),
    "min_observations": (4, math.inf, False),
}


def _days(values) -> tuple:
    # integers become ints; any other value is kept for validate to name
    return tuple(int(d) if is_integer(d) else d for d in values)


@dataclass(frozen=True)
class PatternSpec:
    """Configuration of one synthetic series."""

    kind: str
    baseline_ctr: float = 0.02
    weekly_decay_rate: float = 0.05
    noise_cv: float = 0.20
    duration_days: int = 120
    impressions_mean: int = 50_000
    seed: int = 0
    gap_fraction: float = 0.3
    change_days: tuple | None = None
    drop_factor: float = 0.5
    n_stages: int = 3
    stage_drop: float = 0.20
    base_kind: str = "sharp_drop"
    min_observations: int = 28
    start_date: dt.date = dt.date(2024, 1, 1)

    def __post_init__(self):
        if self.change_days is not None:
            object.__setattr__(self, "change_days", _days(self.change_days))

    def validate(self) -> list:
        """Return a list of range violations (empty when valid)."""
        v = []
        if self.kind not in PATTERN_KINDS:
            v.append(f"kind must be one of {PATTERN_KINDS}, got {self.kind!r}")
        v += filter(None, (
            number_error(name, getattr(self, name), lo, hi, integer=name in WHOLE_FIELDS, open_hi=o)
            for name, (lo, hi, o) in BOUNDS.items()
        ))
        if not isinstance(self.start_date, dt.date):
            v.append(f"start_date must be a date, got {self.start_date!r}")
        if self.kind == "non_continuous" and (
            self.base_kind == "non_continuous" or self.base_kind not in PATTERN_KINDS
        ):
            v.append(f"base_kind {self.base_kind!r} must be a non-gapped pattern kind")
        # the rules below relate fields to one another, so they wait for every field
        if v:
            return v
        if (dt.date.max - self.start_date).days < self.duration_days - 1:
            v.append(f"start_date {self.start_date} leaves fewer than {self.duration_days} days")
        if self.kind == "non_continuous" and self.min_observations > self.duration_days:
            v.append(f"min_observations {self.min_observations} exceeds {self.duration_days} days")
        if self.change_days is not None and not v:
            expected = len(default_change_days(replace(self, change_days=None)))
            days = self.change_days
            if self.kind != "multi_stage_decline" and len(days) != expected:
                v.append(
                    f"{self.kind} takes {expected} change day(s), got {len(days)}"
                )
            whole = all(map(is_integer, days))
            if not (whole and all(1 <= d <= self.duration_days for d in days)):
                v.append(f"change_days {days} must be integers in [1, {self.duration_days}]")
            if whole and list(days) != sorted(set(days)):
                v.append(f"change_days {days} must be strictly increasing")
        return v

    def to_dict(self) -> dict:
        return _record_dict(self)


@dataclass(frozen=True)
class GroundTruth:
    """Day indices (1-based) at which the generating law changes."""

    change_days: tuple

    def __post_init__(self):
        object.__setattr__(self, "change_days", _days(self.change_days))

    def change_dates(self, start_date: dt.date) -> list:
        return [start_date + dt.timedelta(days=d - 1) for d in self.change_days]


@dataclass(frozen=True)
class GeneratedSeries:
    spec: PatternSpec
    series: TimeSeries
    truth: GroundTruth

    def truth_dates(self) -> list:
        return self.truth.change_dates(self.spec.start_date)


def _shape(spec: PatternSpec) -> str:
    """The kind whose curve a spec draws: a gapped series draws its base kind."""
    return spec.base_kind if spec.kind == "non_continuous" else spec.kind


def default_change_days(spec: PatternSpec) -> list:
    """Per-kind default breakpoints used when none are supplied."""
    if spec.change_days is not None:
        return list(spec.change_days)
    T = spec.duration_days
    kind = _shape(spec)
    if kind == "classic_wear_out":
        return [max(2, T // 4)]
    if kind == "sharp_drop":
        return [T // 2]
    if kind == "fatigue_recovery":
        return [max(2, T // 3), max(3, (2 * T) // 3)]
    if kind == "multi_stage_decline":
        return [round(T * k / (spec.n_stages + 1)) for k in range(1, spec.n_stages + 1)]
    # gradual_linear_decay and volatile_decline share the day-20 onset ramp
    return [min(20, T - 2)]


def clean_ctr_curve(spec: PatternSpec) -> np.ndarray:
    """Noise-free click-through rate for days 1..duration_days."""
    T = spec.duration_days
    t = np.arange(1, T + 1, dtype=float)
    base = spec.baseline_ctr
    days = default_change_days(spec)
    kind = _shape(spec)
    daily = spec.weekly_decay_rate / 7.0

    if kind == "sharp_drop":
        tau = days[0]
        return np.where(t < tau, base, base * spec.drop_factor)

    if kind in ("gradual_linear_decay", "volatile_decline"):
        onset = days[0]
        ramp = 1.0 - daily * np.maximum(t - onset, 0.0)
        return base * np.maximum(ramp, DECAY_FLOOR)

    if kind == "classic_wear_out":
        peak = days[0]
        b = daily
        r = b / (1.0 - b * peak) if b * peak < 1.0 else 2.0 / peak
        curve = base * (1.0 + r * t) * np.exp(-b * t)
        # keep the documented baseline at day zero; clip at plausible rates
        return np.clip(curve, base * DECAY_FLOOR, 0.99)

    if kind == "fatigue_recovery":
        tau1, tau2 = days
        decline = 1.0 - daily * np.maximum(t - tau1, 0.0)
        trough = max(1.0 - daily * (tau2 - tau1), DECAY_FLOOR)
        recover = trough + daily * np.maximum(t - tau2, 0.0)
        # recover >= trough, so a trough above the recovery level just holds
        cap = max(RECOVERY_LEVEL, trough)
        shape = np.where(t < tau2, np.maximum(decline, DECAY_FLOOR), np.minimum(recover, cap))
        return base * shape

    if kind == "multi_stage_decline":
        level = np.ones_like(t)
        for day in days:
            level = np.where(t >= day, level * (1.0 - spec.stage_drop), level)
        return base * level

    raise PatternSpecError([f"unknown pattern kind {kind!r}"])


def _lognormal_factors(rng: np.random.Generator, n: int, cv: float) -> np.ndarray:
    """Mean-1 multiplicative factors with the requested (positive) CV."""
    sigma2 = np.log1p(cv * cv)
    return rng.lognormal(mean=-0.5 * sigma2, sigma=np.sqrt(sigma2), size=n)


def generate(spec: PatternSpec) -> tuple:
    """Build one synthetic series and its ground truth.

    Deterministic given the spec; raises :class:`PatternSpecError` when
    any field is outside its documented range.
    """
    violations = spec.validate()
    if violations:
        raise PatternSpecError(violations)
    rng = np.random.default_rng(spec.seed)
    T = spec.duration_days
    clean = clean_ctr_curve(spec)
    cv = spec.noise_cv
    if _shape(spec) == "volatile_decline" and cv != 0.0:
        cv = VOLATILE_NOISE_CV

    if cv == 0.0:
        impressions = np.full(T, spec.impressions_mean, dtype=int)
        clicks = np.rint(impressions * clean).astype(int)
    else:
        impressions = np.rint(
            spec.impressions_mean * _lognormal_factors(rng, T, IMPRESSIONS_CV)
        ).astype(int)
        impressions = np.maximum(impressions, 1)
        rates = np.clip(clean * _lognormal_factors(rng, T, cv), 0.0, 1.0)
        clicks = rng.binomial(impressions, rates)

    keep = np.ones(T, dtype=bool)
    if spec.kind == "non_continuous":
        keep = rng.random(T) >= spec.gap_fraction
        shortfall = spec.min_observations - int(keep.sum())
        if shortfall > 0:
            refill = rng.choice(np.flatnonzero(~keep), size=shortfall, replace=False)
            keep[refill] = True

    kept = np.flatnonzero(keep)
    series = TimeSeries(
        dates=np.datetime64(spec.start_date, "D") + kept,
        impressions=impressions[kept],
        clicks=np.minimum(clicks[kept], impressions[kept]),
    )
    truth = GroundTruth(change_days=tuple(default_change_days(spec)))
    return series, truth


def _sample_spec(kind: str, rng: np.random.Generator, overrides: dict) -> PatternSpec:
    fields = {"kind": kind}
    for name, (lo, hi) in RANGES.items():
        whole = name in WHOLE_FIELDS
        fields[name] = int(rng.integers(lo, hi + 1)) if whole else float(rng.uniform(lo, hi))
    fields["seed"] = int(rng.integers(0, 2**63 - 1))
    return PatternSpec(**{**fields, **overrides})


def generate_batch(
    kinds,
    n_per_pattern: int,
    master_seed: int,
    overrides: dict | None = None,
) -> list:
    """Corpus of ``n_per_pattern`` series per kind, parameters sampled
    uniformly from the documented ranges.

    ``overrides`` pins chosen spec fields other than ``kind`` across the
    whole corpus (for example a fixed duration).  Reproducible from
    ``master_seed``, a nonnegative integer.
    """
    overrides = dict(overrides or {})
    reasons = [
        number_error("n_per_pattern", n_per_pattern, 1, math.inf, integer=True),
        number_error("master_seed", master_seed, *BOUNDS["seed"][:2], integer=True),
        *(
            f"overrides may pin PatternSpec fields other than kind, got {name!r}"
            for name in overrides
            if name == "kind" or name not in PatternSpec.__dataclass_fields__
        ),
    ]
    if any(reasons):
        raise PatternSpecError(filter(None, reasons))
    kinds = [kinds] if isinstance(kinds, str) else list(kinds)
    rng = np.random.default_rng(master_seed)
    corpus = []
    for kind in kinds:
        for _ in range(n_per_pattern):
            spec = _sample_spec(kind, rng, overrides)
            series, truth = generate(spec)
            corpus.append(GeneratedSeries(spec=spec, series=series, truth=truth))
    return corpus
