"""Command-line interface.

Subcommands:

  generate   write synthetic series (CSV) plus ground-truth manifests
  detect     change point report (JSON, optional SVG plot) for one CSV
  wastage    detection plus financial wastage report for one CSV
  evaluate   score a detection method against a corpus's ground truth
  sweep      signature-method metrics over a parameter grid

Exit codes: 0 success, 2 invalid arguments or malformed input, 3 series
too short for the requested analysis.  All outputs are deterministic
given identical flags and seeds.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .detector import DetectorConfig, detect
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    SigFatigueError,
)
from .evaluation import (
    METHODS,
    MatchPolicy,
    evaluate_corpus,
    make_method,
    sensitivity_report,
)
from .plots import report_svg
from .synth import (
    PATTERN_KINDS,
    GeneratedSeries,
    GroundTruth,
    PatternSpec,
    generate,
    generate_batch,
)
from .wastage import compute_wastage
from .windowing import read_series_csv, write_series_csv

SCHEMA_VERSION = 1


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _manifest(item: GeneratedSeries) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": item.spec.to_dict(),
        "ground_truth": {
            "change_days": list(item.truth.change_days),
            "change_dates": [d.isoformat() for d in item.truth_dates()],
        },
    }


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(
        window=args.window,
        depth=args.depth,
        threshold_k=args.k,
        alpha=args.alpha,
        merge_gap=args.merge_gap,
        feature_mode=args.feature_mode,
    )


# Defaults of the detector and method flags.  On the command line they
# default to None, so that a flag the chosen method does not read can be
# told apart from one left unset, and rejected.
FLAG_DEFAULTS = {
    "window": 14,
    "depth": 3,
    "k": 2.0,
    "alpha": 0.05,
    "merge_gap": None,
    "feature_mode": "full",
    "short_window": 7,
    "long_window": 28,
    "reference_k": 0.5,
    "decision_h": 5.0,
}

# Each method's parameters and the flag that sets each one.
METHOD_PARAMS = {
    "signature": {
        "window": "window",
        "depth": "depth",
        "threshold_k": "k",
        "feature_mode": "feature_mode",
        "merge_gap": "merge_gap",
    },
    "ma_crossover": {"short_window": "short_window", "long_window": "long_window"},
    "cusum": {"reference_k": "reference_k", "decision_h": "decision_h"},
    "rolling_regression": {"window": "window", "alpha": "alpha"},
}

# Flags a signature detection report reads: the method's parameters plus
# the significance level of the segment trend tests.
DETECTOR_FLAGS = (*METHOD_PARAMS["signature"].values(), "alpha")


def _resolve_flags(args, reads) -> None:
    """Fill in the defaults of the flags in ``reads``; reject other given flags."""
    for dest, default in FLAG_DEFAULTS.items():
        if dest in reads:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest, None) is not None:
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} is not read by --method {args.method}"
            )


def _add_detector_flags(parser) -> None:
    parser.add_argument("--window", type=int, default=None, help="window size in observations")
    parser.add_argument("--depth", type=int, default=None, help="signature truncation depth")
    parser.add_argument("--k", type=float, default=None, help="threshold multiplier")
    parser.add_argument("--alpha", type=float, default=None, help="trend-test significance level")
    parser.add_argument(
        "--merge-gap",
        type=int,
        default=None,
        help="merge flags within this many days (default: window, or 0 when scoring)",
    )
    parser.add_argument(
        "--feature-mode", choices=("full", "log"), default=None,
        help="distance features: full signature or its tensor logarithm",
    )
    parser.add_argument("--metric", default="ctr", help="series column to analyse")


def _add_method_flags(parser) -> None:
    parser.add_argument(
        "--method",
        default="signature",
        choices=sorted(METHODS),
        help="detector to run; non-signature methods report bare change dates",
    )
    parser.add_argument("--short-window", type=int, default=None)
    parser.add_argument("--long-window", type=int, default=None)
    parser.add_argument("--reference-k", type=float, default=None)
    parser.add_argument("--decision-h", type=float, default=None)


# Pattern-spec flags and the PatternSpec field each one sets.
SPEC_FLAGS = {
    "baseline_ctr": "baseline_ctr",
    "weekly_decay": "weekly_decay_rate",
    "noise_cv": "noise_cv",
    "duration": "duration_days",
    "impressions_mean": "impressions_mean",
    "gap_fraction": "gap_fraction",
    "drop_factor": "drop_factor",
    "n_stages": "n_stages",
    "stage_drop": "stage_drop",
    "base_kind": "base_kind",
    "change_days": "change_days",
    "start_date": "start_date",
}


def _add_pattern_flags(parser, corpus: bool = False) -> None:
    """Pattern and spec flags; with ``corpus``, ``--corpus DIR`` replaces them."""
    group = parser.add_mutually_exclusive_group(required=True)
    if corpus:
        group.add_argument("--corpus", help="directory of generated series")
    group.add_argument("--pattern", choices=PATTERN_KINDS, help="pattern kind")
    group.add_argument("--all", action="store_true", help="every pattern kind")
    parser.add_argument("--n", type=int, default=None, help="series per pattern (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--baseline-ctr", type=float, default=None)
    parser.add_argument("--weekly-decay", type=float, default=None)
    parser.add_argument("--noise-cv", type=float, default=None)
    parser.add_argument("--duration", type=int, default=None)
    parser.add_argument("--impressions-mean", type=int, default=None)
    parser.add_argument("--gap-fraction", type=float, default=None)
    parser.add_argument("--drop-factor", type=float, default=None)
    parser.add_argument("--n-stages", type=int, default=None)
    parser.add_argument("--stage-drop", type=float, default=None)
    parser.add_argument("--base-kind", choices=PATTERN_KINDS, default=None)
    parser.add_argument(
        "--change-days", default=None,
        help="comma-separated ground-truth change days (overrides defaults)",
    )
    parser.add_argument("--start-date", default=None, help="first day, ISO format")


def _pattern_overrides(args) -> dict:
    overrides = {
        field: getattr(args, dest)
        for dest, field in SPEC_FLAGS.items()
        if getattr(args, dest) is not None
    }
    # two flags arrive as text
    if "change_days" in overrides:
        overrides["change_days"] = tuple(
            int(d) for d in str(overrides["change_days"]).split(",") if d.strip()
        )
    if "start_date" in overrides:
        overrides["start_date"] = dt.date.fromisoformat(overrides["start_date"])
    return overrides


def _series_per_pattern(args) -> int:
    return 1 if args.n is None else args.n


def _corpus(args) -> list:
    """The series in ``--corpus DIR``, or the corpus the spec flags describe.

    A directory is read as it is, so a spec flag given with it exits 2;
    ``--seed`` still seeds the bootstrap.
    """
    if args.corpus is None:
        kinds = list(PATTERN_KINDS) if args.all else [args.pattern]
        return generate_batch(
            kinds, _series_per_pattern(args), args.seed, overrides=_pattern_overrides(args)
        )
    for dest in ("n", *SPEC_FLAGS):
        if getattr(args, dest) is not None:
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} does not apply to --corpus"
            )
    return _load_corpus(args.corpus)


def _load_corpus(directory: str) -> list:
    root = Path(directory)
    manifests = sorted(root.glob("*.manifest.json"))
    if not manifests:
        raise InvalidInputError(f"no *.manifest.json files found in {directory}")
    corpus = []
    for mpath in manifests:
        data = json.loads(mpath.read_text(encoding="utf-8"))
        csv_path = mpath.with_name(mpath.name.replace(".manifest.json", ".csv"))
        if not csv_path.exists():
            raise InvalidInputError(f"missing series file {csv_path}")
        series = read_series_csv(csv_path)
        spec_dict = dict(data["spec"])
        spec_dict["start_date"] = dt.date.fromisoformat(spec_dict["start_date"])
        if spec_dict.get("change_days") is not None:
            spec_dict["change_days"] = tuple(spec_dict["change_days"])
        spec = PatternSpec(**spec_dict)
        truth = GroundTruth(change_days=tuple(data["ground_truth"]["change_days"]))
        corpus.append(GeneratedSeries(spec=spec, series=series, truth=truth))
    return corpus


def cmd_generate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    overrides = _pattern_overrides(args)
    kinds = list(PATTERN_KINDS) if args.all else [args.pattern]
    written = 0
    n = _series_per_pattern(args)
    if n == 1 and not args.all:
        # single fully specified series: honor the seed directly
        spec = PatternSpec(kind=args.pattern, seed=args.seed, **overrides)
        series, truth = generate(spec)
        items = [GeneratedSeries(spec=spec, series=series, truth=truth)]
    else:
        items = generate_batch(kinds, n, args.seed, overrides=overrides)
    counters = {}
    for item in items:
        idx = counters.get(item.spec.kind, 0)
        counters[item.spec.kind] = idx + 1
        stem = f"{item.spec.kind}_{idx:04d}"
        write_series_csv(item.series, out_dir / f"{stem}.csv")
        _dump_json(_manifest(item), str(out_dir / f"{stem}.manifest.json"))
        written += 1
    print(f"wrote {written} series to {out_dir}")
    return 0


def cmd_detect(args) -> int:
    if args.plot and args.method != "signature":
        raise ConfigurationError("--plot needs --method signature")
    _resolve_flags(
        args,
        DETECTOR_FLAGS if args.method == "signature" else METHOD_PARAMS[args.method].values(),
    )
    series = read_series_csv(args.input, metric=args.metric)
    if args.method != "signature":
        params = _method_params(args)
        dates = make_method(args.method, **params)(series)
        _dump_json(
            {
                "schema_version": SCHEMA_VERSION,
                "method": args.method,
                "params": params,
                "change_points": [{"date": d.isoformat()} for d in dates],
            },
            args.out,
        )
        return 0
    cfg = _detector_config(args)
    report = detect(series, cfg)
    payload = {"method": "signature", **report.to_dict()}
    _dump_json(payload, args.out)
    if args.plot:
        svg = report_svg(series, report, title=Path(args.input).stem)
        Path(args.plot).write_text(svg, encoding="utf-8")
    return 0


def cmd_wastage(args) -> int:
    _resolve_flags(args, DETECTOR_FLAGS)
    series = read_series_csv(args.input, metric=args.metric)
    cfg = _detector_config(args)
    report = detect(series, cfg)
    wreport = compute_wastage(series, report.segments, cpc=args.cpc)
    _dump_json(wreport.to_dict(), args.out)
    if args.daily_csv:
        lines = ["date,lost_clicks,wastage"]
        for d in wreport.daily:
            lines.append(f"{d.date.isoformat()},{d.lost_clicks!r},{d.wastage!r}")
        Path(args.daily_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _method_params(args) -> dict:
    # after _resolve_flags only an unset --merge-gap is None; the method
    # then keeps its own default
    return {
        name: getattr(args, dest)
        for name, dest in METHOD_PARAMS[args.method].items()
        if getattr(args, dest) is not None
    }


def cmd_evaluate(args) -> int:
    _resolve_flags(args, METHOD_PARAMS[args.method].values())
    corpus = _corpus(args)
    corpus = [
        replace(item, series=replace(item.series, metric=args.metric)) for item in corpus
    ]
    params = _method_params(args)
    policy = MatchPolicy(tolerance_days=args.tolerance)
    _, pooled = evaluate_corpus(
        corpus, make_method(args.method, **params), policy, seed=args.seed
    )
    result = {
        "schema_version": SCHEMA_VERSION,
        "method": args.method,
        "params": params,
        "tolerance_days": args.tolerance,
        "n_series": len(corpus),
        "metrics": pooled.to_dict(),
    }
    _dump_json(result, args.out)
    return 0


def _parse_floats(text: str) -> list:
    return [float(v) for v in str(text).split(",") if v.strip()]


def _parse_ints(text: str) -> list:
    return [int(v) for v in str(text).split(",") if v.strip()]


def cmd_sweep(args) -> int:
    corpus = _corpus(args)
    grid = {
        "window": _parse_ints(args.windows),
        "threshold_k": _parse_floats(args.ks),
        "depth": _parse_ints(args.depths),
    }
    rows = sensitivity_report(
        corpus,
        grid,
        MatchPolicy(tolerance_days=args.tolerance),
        n_boot=args.bootstrap,
        seed=args.seed,
    )
    _dump_json({"schema_version": SCHEMA_VERSION, "rows": rows}, args.out)
    if args.csv:
        cols = [
            "window", "threshold_k", "depth",
            "precision", "recall", "f1", "mean_delay_days",
            "n_detected", "n_true", "n_matched",
        ]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join("" if row[c] is None else repr(row[c]) for c in cols))
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigfatigue",
        description="Signature-based change point detection for campaign performance series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write synthetic series and manifests")
    _add_pattern_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_det = sub.add_parser("detect", help="change point report for a series CSV")
    p_det.add_argument("input", help="input CSV (date,impressions,clicks[,cost])")
    _add_detector_flags(p_det)
    _add_method_flags(p_det)
    p_det.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_det.add_argument("--plot", default=None, help="also write an SVG plot here")
    p_det.set_defaults(func=cmd_detect)

    p_was = sub.add_parser("wastage", help="financial wastage report for a series CSV")
    p_was.add_argument("input", help="input CSV")
    _add_detector_flags(p_was)
    p_was.add_argument("--cpc", type=float, default=None, help="cost per click override")
    p_was.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_was.add_argument("--daily-csv", default=None, help="write daily rows here")
    p_was.set_defaults(func=cmd_wastage)

    p_eval = sub.add_parser("evaluate", help="score a method against ground truth")
    _add_pattern_flags(p_eval, corpus=True)
    _add_method_flags(p_eval)
    _add_detector_flags(p_eval)
    p_eval.add_argument("--tolerance", type=int, default=3, help="match tolerance in days")
    p_eval.add_argument("--out", default=None, help="metrics JSON path (default stdout)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="signature metrics over a parameter grid")
    _add_pattern_flags(p_sweep, corpus=True)
    p_sweep.add_argument("--windows", default="7,14,21")
    p_sweep.add_argument("--ks", default="1.5,2.0,2.5")
    p_sweep.add_argument("--depths", default="3")
    p_sweep.add_argument("--tolerance", type=int, default=3)
    p_sweep.add_argument("--bootstrap", type=int, default=100)
    p_sweep.add_argument("--out", default=None, help="rows JSON path (default stdout)")
    p_sweep.add_argument("--csv", default=None, help="also write rows as CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SigFatigueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
