import datetime as dt
import re
from dataclasses import replace

import numpy as np
import pytest

from sigfatigue.errors import PatternSpecError
from sigfatigue.synth import (
    DECAY_FLOOR,
    PATTERN_KINDS,
    RANGES,
    RECOVERY_LEVEL,
    GroundTruth,
    PatternSpec,
    clean_ctr_curve,
    default_change_days,
    generate,
    generate_batch,
)

COLUMNS = ("dates", "impressions", "clicks")


def two_branch_recovery(spec):
    """The clean fatigue_recovery curve with the shallow decline, a trough
    at or above the recovery level, as a branch of its own."""
    t = np.arange(1, spec.duration_days + 1, dtype=float)
    daily = spec.weekly_decay_rate / 7.0
    tau1, tau2 = spec.change_days
    decline = np.maximum(1.0 - daily * np.maximum(t - tau1, 0.0), DECAY_FLOOR)
    trough = max(1.0 - daily * (tau2 - tau1), DECAY_FLOOR)
    if trough >= RECOVERY_LEVEL:
        return spec.baseline_ctr * np.where(t < tau2, decline, trough)
    recover = trough + daily * np.maximum(t - tau2, 0.0)
    return spec.baseline_ctr * np.where(t < tau2, decline, np.minimum(recover, RECOVERY_LEVEL))


class TestValidation:
    def test_out_of_range_fields_listed(self):
        spec = PatternSpec(kind="sharp_drop", noise_cv=0.9, baseline_ctr=0.2)
        violations = spec.validate()
        assert any("noise_cv" in v for v in violations)
        assert any("baseline_ctr" in v for v in violations)
        with pytest.raises(PatternSpecError):
            generate(spec)

    def test_noiseless_is_allowed(self):
        spec = PatternSpec(kind="sharp_drop", noise_cv=0.0)
        assert spec.validate() == []

    @pytest.mark.parametrize("noise_cv", [0.2, 0.0])
    def test_impressions_mean_bounded_by_exact_float_integers(self, noise_cv):
        top = PatternSpec(kind="sharp_drop", impressions_mean=2**53, noise_cv=noise_cv)
        series, _ = generate(top)
        assert series.impressions.min() >= 1
        over = replace(top, impressions_mean=2**53 + 1)
        assert any("impressions_mean" in v for v in over.validate())

    def test_unknown_kind(self):
        spec = PatternSpec(kind="mystery")
        assert spec.validate()

    def test_change_day_count_enforced(self):
        spec = PatternSpec(kind="sharp_drop", change_days=(30, 60))
        assert any("change day" in v for v in spec.validate())

    def test_change_days_must_lie_in_duration(self):
        spec = PatternSpec(kind="sharp_drop", duration_days=60, change_days=(80,))
        assert spec.validate()

    # one bad value per rule; the change-day count rule names the change days
    @pytest.mark.parametrize(
        "name, fields",
        [
            ("kind", {"kind": "mystery"}),
            ("baseline_ctr", {"baseline_ctr": 0.2}),
            ("weekly_decay_rate", {"weekly_decay_rate": 0.01}),
            ("noise_cv", {"noise_cv": -0.1}),
            ("noise_cv", {"noise_cv": 0.5}),
            ("duration_days", {"duration_days": 29}),
            ("duration_days", {"duration_days": 181}),
            ("start_date", {"start_date": dt.date.max}),
            ("impressions_mean", {"impressions_mean": 0}),
            ("gap_fraction", {"gap_fraction": 1.0}),
            ("drop_factor", {"drop_factor": 0.8}),
            ("n_stages", {"n_stages": 4}),
            ("n_stages", {"n_stages": 2.5}),
            ("stage_drop", {"stage_drop": 0.1}),
            ("base_kind", {"kind": "non_continuous", "base_kind": "non_continuous"}),
            ("base_kind", {"kind": "non_continuous", "base_kind": "mystery"}),
            ("min_observations", {"min_observations": 3}),
            ("change day", {"change_days": (30, 60)}),
            ("change_days", {"duration_days": 60, "change_days": (80,)}),
            ("change_days", {"kind": "fatigue_recovery", "change_days": (50, 40)}),
            ("min_observations",
             {"kind": "non_continuous", "duration_days": 30, "min_observations": 40}),
            ("min_observations", {"min_observations": 30.5}),
            ("min_observations", {"min_observations": float("nan")}),
            ("impressions_mean", {"impressions_mean": 1000.5}),
            ("seed", {"seed": -1}),
            ("seed", {"seed": 1.5}),
            ("seed", {"seed": True}),
            ("change_days", {"change_days": (30.7,)}),
        ],
    )
    def test_each_rule_gives_one_violation_naming_its_field(self, name, fields):
        (violation,) = PatternSpec(**{"kind": "sharp_drop", **fields}).validate()
        assert name in violation

    def test_fractional_days_are_kept_for_validation(self):
        assert GroundTruth((3.9,)).change_days == (3.9,)
        spec = PatternSpec(kind="sharp_drop", change_days=(np.int64(30),))
        assert spec.change_days == (30,) and type(spec.change_days[0]) is int
        with pytest.raises(PatternSpecError, match="must be integers"):
            generate(PatternSpec(kind="sharp_drop", change_days=(30.7,)))

    def test_change_days_checked_once_the_other_fields_hold(self):
        # a multi-stage decline takes n_stages change days, so they are not
        # counted while n_stages is not a whole number in range
        spec = PatternSpec(kind="multi_stage_decline", n_stages=2.5, change_days=(10, 20))
        assert spec.validate() == ["n_stages must be an integer in [2, 3], got 2.5"]

    @pytest.mark.parametrize("name, value", [("duration_days", 100.0), ("n_stages", 2.0)])
    def test_whole_number_fields_reject_floats(self, name, value):
        spec = PatternSpec(kind="multi_stage_decline", **{name: value})
        lo, hi = RANGES[name]
        assert spec.validate() == [f"{name} must be an integer in [{lo}, {hi}], got {value!r}"]
        with pytest.raises(PatternSpecError):
            generate(spec)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("baseline_ctr", "x"),
            ("baseline_ctr", None),
            ("duration_days", "120"),
            ("n_stages", None),
            ("impressions_mean", [50_000]),
            ("gap_fraction", "0.3"),
            ("min_observations", None),
            ("start_date", "2024-01-01"),
            ("noise_cv", False),
            ("gap_fraction", False),
            ("baseline_ctr", True),
        ],
    )
    def test_wrong_typed_field_is_a_violation(self, name, value):
        spec = PatternSpec(kind="sharp_drop", **{name: value})
        (violation,) = spec.validate()
        assert re.match(f"{name} must be (a real number|an integer|a date)\\b", violation)
        assert violation.endswith(f", got {value!r}")
        with pytest.raises(PatternSpecError, match=name):
            generate(spec)

    def test_series_must_end_by_the_last_date(self):
        fits = PatternSpec(kind="sharp_drop", duration_days=60,
                           start_date=dt.date.max - dt.timedelta(days=59))
        assert fits.validate() == []
        late = PatternSpec(kind="sharp_drop", duration_days=60,
                           start_date=dt.date.max - dt.timedelta(days=58))
        assert any("start_date" in v for v in late.validate())


class TestCleanForms:
    def test_sharp_drop_step(self):
        spec = PatternSpec(
            kind="sharp_drop", noise_cv=0.0, baseline_ctr=0.02, drop_factor=0.5,
            duration_days=120,
        )
        series, truth = generate(spec)
        values = series.metric_values()
        assert truth.change_days == (60,)
        assert set(np.round(values, 12)) == {0.02, 0.01}
        assert values[58] == 0.02 and values[59] == 0.01

    def test_gradual_decay_closed_form(self):
        spec = PatternSpec(
            kind="gradual_linear_decay", noise_cv=0.0, baseline_ctr=0.02,
            weekly_decay_rate=0.05, duration_days=70,
        )
        curve = clean_ctr_curve(spec)
        assert curve[69] == pytest.approx(0.02 * (1 - 0.05 * (70 - 20) / 7), rel=1e-12)
        assert np.all(curve[:19] == 0.02)

    def test_gradual_decay_floor(self):
        spec = PatternSpec(
            kind="gradual_linear_decay", noise_cv=0.0, baseline_ctr=0.02,
            weekly_decay_rate=0.08, duration_days=180,
        )
        curve = clean_ctr_curve(spec)
        assert curve[-1] == pytest.approx(0.002, rel=1e-12)

    def test_wear_out_peaks_at_wear_in_day(self):
        spec = PatternSpec(kind="classic_wear_out", noise_cv=0.0, duration_days=120)
        curve = clean_ctr_curve(spec)
        truth = generate(spec)[1]
        assert truth.change_days == (30,)
        assert int(np.argmax(curve)) + 1 == 30

    def test_recovery_declines_then_recovers(self):
        spec = PatternSpec(
            kind="fatigue_recovery", noise_cv=0.0, duration_days=120,
            weekly_decay_rate=0.07, baseline_ctr=0.02,
        )
        curve = clean_ctr_curve(spec)
        truth = generate(spec)[1]
        tau1, tau2 = truth.change_days
        assert curve[tau1 - 2] == pytest.approx(0.02)
        assert curve[tau2 - 1] < 0.02
        assert curve[-1] > curve[tau2 - 1]
        assert curve[-1] <= 0.02 * 0.7 + 1e-12

    def test_shallow_recovery_holds_its_trough(self):
        spec = PatternSpec(
            kind="fatigue_recovery", noise_cv=0.0, duration_days=120,
            weekly_decay_rate=0.02, change_days=(40, 80),
        )
        curve = clean_ctr_curve(spec)
        assert np.all(curve[79:] == curve[79]) and curve[79] > 0.02 * RECOVERY_LEVEL
        assert curve.tobytes() == two_branch_recovery(spec).tobytes()

    def test_recovery_bit_equal_to_two_branch_form(self):
        rng = np.random.default_rng(12)
        shallow = 0
        for _ in range(300):
            days = int(rng.integers(30, 181))
            tau1 = int(rng.integers(1, days))
            spec = PatternSpec(
                kind="fatigue_recovery", noise_cv=0.0, duration_days=days,
                weekly_decay_rate=float(rng.uniform(0.02, 0.08)),
                baseline_ctr=float(rng.uniform(0.005, 0.03)),
                change_days=(tau1, int(rng.integers(tau1 + 1, days + 1))),
            )
            assert clean_ctr_curve(spec).tobytes() == two_branch_recovery(spec).tobytes()
            tau1, tau2 = spec.change_days
            shallow += 1.0 - spec.weekly_decay_rate / 7.0 * (tau2 - tau1) >= RECOVERY_LEVEL
        assert 0 < shallow < 300

    def test_multi_stage_levels(self):
        spec = PatternSpec(
            kind="multi_stage_decline", noise_cv=0.0, duration_days=120,
            n_stages=3, stage_drop=0.2, baseline_ctr=0.02,
        )
        curve = clean_ctr_curve(spec)
        truth = generate(spec)[1]
        assert truth.change_days == (30, 60, 90)
        levels = sorted(set(np.round(curve / 0.02, 10)), reverse=True)
        assert levels == [1.0, 0.8, pytest.approx(0.64), pytest.approx(0.512)]

    def test_two_stage_variant(self):
        spec = PatternSpec(
            kind="multi_stage_decline", noise_cv=0.0, duration_days=120, n_stages=2
        )
        assert generate(spec)[1].change_days == (40, 80)

    def test_volatile_decline_forces_top_noise(self):
        spec = PatternSpec(kind="volatile_decline", noise_cv=0.15, duration_days=120, seed=3)
        series, truth = generate(spec)
        curve = clean_ctr_curve(spec)
        ratios = series.metric_values() / curve
        assert np.std(ratios) > 0.2  # far above the requested 0.15
        assert truth.change_days == (20,)

    def test_gapped_base_kind_has_no_curve(self):
        spec = PatternSpec(kind="non_continuous", base_kind="non_continuous")
        with pytest.raises(PatternSpecError, match="unknown pattern kind"):
            clean_ctr_curve(spec)

    def test_truth_days_match_clean_discontinuities(self):
        for kind in ("sharp_drop", "multi_stage_decline"):
            spec = PatternSpec(kind=kind, noise_cv=0.0, duration_days=120)
            curve = clean_ctr_curve(spec)
            truth = generate(spec)[1]
            jumps = set(np.flatnonzero(np.diff(curve) != 0) + 2)
            assert jumps == set(truth.change_days)


class TestGeneration:
    def test_deterministic(self):
        spec = PatternSpec(kind="sharp_drop", seed=42)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)

    def test_seed_changes_output(self):
        a, _ = generate(PatternSpec(kind="sharp_drop", seed=1))
        b, _ = generate(PatternSpec(kind="sharp_drop", seed=2))
        assert not all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)

    def test_series_invariants(self):
        for kind in PATTERN_KINDS:
            series, _ = generate(PatternSpec(kind=kind, seed=7, duration_days=90))
            dates = series.dates
            assert all(b > a for a, b in zip(dates[:-1], dates[1:]))
            for clicks, impressions in zip(series.clicks, series.impressions):
                assert 0 <= clicks <= impressions

    def test_noiseless_impressions_pinned(self):
        series, _ = generate(PatternSpec(kind="sharp_drop", noise_cv=0.0))
        assert set(series.impressions.tolist()) == {50_000}

    def test_gap_fraction_removes_days(self):
        spec = PatternSpec(
            kind="non_continuous", base_kind="sharp_drop", gap_fraction=0.3,
            duration_days=120, seed=11,
        )
        series, truth = generate(spec)
        assert 60 <= len(series) < 120
        assert truth.change_days == (60,)

    def test_gap_floor_keeps_minimum_observations(self):
        spec = PatternSpec(
            kind="non_continuous", base_kind="sharp_drop", gap_fraction=0.8,
            duration_days=40, seed=11, min_observations=28,
        )
        series, _ = generate(spec)
        assert len(series) >= 28

    def test_empirical_noise_cv_tracks_spec(self):
        target = 0.2
        ratios = []
        for seed in range(100):
            spec = PatternSpec(
                kind="sharp_drop", noise_cv=target, duration_days=120, seed=seed,
                impressions_mean=200_000,
            )
            series, _ = generate(spec)
            curve = clean_ctr_curve(spec)
            ratios.extend(series.metric_values() / curve)
        ratios = np.asarray(ratios)
        assert ratios.size >= 10_000
        cv = ratios.std() / ratios.mean()
        assert abs(cv - target) / target < 0.2


class TestBatch:
    def test_counts(self):
        corpus = generate_batch(PATTERN_KINDS, 2, master_seed=5)
        assert len(corpus) == 14

    def test_single_kind_string(self):
        corpus = generate_batch("sharp_drop", 3, master_seed=5)
        assert len(corpus) == 3
        assert all(item.spec.kind == "sharp_drop" for item in corpus)

    def test_reproducible(self):
        a = generate_batch(["sharp_drop", "fatigue_recovery"], 4, master_seed=9)
        b = generate_batch(["sharp_drop", "fatigue_recovery"], 4, master_seed=9)
        assert [i.spec for i in a] == [i.spec for i in b]
        assert all(
            np.array_equal(getattr(x.series, c), getattr(y.series, c))
            for x, y in zip(a, b)
            for c in COLUMNS
        )

    def test_parameters_sampled_within_ranges(self):
        corpus = generate_batch("gradual_linear_decay", 20, master_seed=1)
        for item in corpus:
            assert 0.005 <= item.spec.baseline_ctr <= 0.03
            assert 0.02 <= item.spec.weekly_decay_rate <= 0.08
            assert 0.10 <= item.spec.noise_cv <= 0.30
            assert 30 <= item.spec.duration_days <= 180

    def test_overrides_pin_fields(self):
        corpus = generate_batch("sharp_drop", 5, master_seed=1, overrides={"duration_days": 120})
        assert {item.spec.duration_days for item in corpus} == {120}

    def test_rejects_zero_count(self):
        for n in (0, 2.5, "2", True):
            with pytest.raises(PatternSpecError, match="n_per_pattern must be an integer in"):
                generate_batch("sharp_drop", n, master_seed=1)
        for seed in (-1, 2.5, "x", True, None):
            with pytest.raises(PatternSpecError, match="master_seed must be an integer in"):
                generate_batch("sharp_drop", 1, master_seed=seed)
        a, b = (generate_batch("sharp_drop", 2, seed) for seed in (1, np.int64(1)))
        assert [item.spec for item in a] == [item.spec for item in b]

    def test_rejects_unknown_kind(self):
        with pytest.raises(PatternSpecError, match="mystery"):
            generate_batch(["sharp_drop", "mystery"], 1, master_seed=1)

    def test_truth_dates_align_with_start(self):
        item = generate_batch("sharp_drop", 1, master_seed=2)[0]
        dates = item.truth_dates()
        assert dates[0] == item.spec.start_date + dt.timedelta(days=item.truth.change_days[0] - 1)


def test_default_change_days_per_kind():
    assert default_change_days(PatternSpec(kind="sharp_drop", duration_days=120)) == [60]
    assert default_change_days(PatternSpec(kind="gradual_linear_decay", duration_days=120)) == [20]
    assert default_change_days(PatternSpec(kind="classic_wear_out", duration_days=120)) == [30]
    assert default_change_days(PatternSpec(kind="fatigue_recovery", duration_days=120)) == [40, 80]
    assert default_change_days(
        PatternSpec(kind="non_continuous", base_kind="sharp_drop", duration_days=120)
    ) == [60]
