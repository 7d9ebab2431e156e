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

Every JSON document is written by ``_dump_json``, which walks records,
dates and tuples into JSON and stamps ``SCHEMA_VERSION``; ``_load_corpus``
checks that stamp on every manifest it reads.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .detector import FEATURE_MODES, DetectorConfig, detect
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    PatternSpecError,
    SigFatigueError,
)
from .evaluation import (
    DEFAULT_GRID,
    METHODS,
    N_BOOT,
    MatchPolicy,
    evaluate_corpus,
    make_method,
    method_params,
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
from .windowing import _json_value, read_series_csv, write_series_csv

SCHEMA_VERSION = 1  # of every JSON document written and manifest read


def _dump_json(payload: dict, path: str | None) -> None:
    document = _json_value({**payload, "schema_version": SCHEMA_VERSION})
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_table(rows, columns, path: str) -> None:
    """Write dict rows as CSV: None is an empty cell, a str is written as
    it is and any other value as its repr."""

    def cell(value) -> str:
        return "" if value is None else value if isinstance(value, str) else repr(value)

    lines = [",".join(columns)] + [",".join(cell(row[c]) for c in columns) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest(item: GeneratedSeries) -> dict:
    truth = {"change_days": item.truth.change_days, "change_dates": item.truth_dates()}
    return {"spec": item.spec, "ground_truth": truth}


# The detector and method flags, dest -> (argparse keywords, the parameter
# the flag sets).  A reader is a --method name, which reads its
# method_params, or "report", the signature detection report of detect and
# wastage, which reads every DetectorConfig field, the trend tests' alpha
# too.  On the command line each flag defaults to None, so that a flag the
# reader does not take can be told apart from one left unset, and rejected.
DETECTOR_FLAGS = {
    "window": ({"type": int, "help": "window size in observations"}, "window"),
    "depth": ({"type": int, "help": "signature truncation depth"}, "depth"),
    "k": ({"type": float, "help": "threshold multiplier"}, "threshold_k"),
    "alpha": ({"type": float, "help": "trend-test significance level"}, "alpha"),
    "merge_gap": (
        {
            "type": int,
            "help": "merge flags within this many days (default: window, or 0 when scoring)",
        },
        "merge_gap",
    ),
    "feature_mode": (
        {
            "choices": FEATURE_MODES,
            "help": "distance features: full signature or its tensor logarithm",
        },
        "feature_mode",
    ),
}
METHOD_FLAGS = {
    "short_window": ({"type": int}, "short_window"),
    "long_window": ({"type": int}, "long_window"),
    "reference_k": ({"type": float}, "reference_k"),
    "decision_h": ({"type": float}, "decision_h"),
}


def int_list(text: str) -> list:
    """Comma-separated integers; empty items are skipped."""
    return [int(v) for v in text.split(",") if v.strip()]


def float_list(text: str) -> list:
    """Comma-separated floats; empty items are skipped."""
    return [float(v) for v in text.split(",") if v.strip()]


def iso_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


# Pattern-spec flags, dest -> (argparse keywords, the PatternSpec field
# the flag sets).  Unset, the field keeps its default or sampled value.
SPEC_FLAGS = {
    "baseline_ctr": ({"type": float}, "baseline_ctr"),
    "weekly_decay": ({"type": float}, "weekly_decay_rate"),
    "noise_cv": ({"type": float}, "noise_cv"),
    "duration": ({"type": int}, "duration_days"),
    "impressions_mean": ({"type": int}, "impressions_mean"),
    "gap_fraction": ({"type": float}, "gap_fraction"),
    "drop_factor": ({"type": float}, "drop_factor"),
    "n_stages": ({"type": int}, "n_stages"),
    "stage_drop": ({"type": float}, "stage_drop"),
    "base_kind": ({"choices": PATTERN_KINDS}, "base_kind"),
    "change_days": (
        {
            "type": int_list,
            "help": "comma-separated ground-truth change days (overrides defaults)",
        },
        "change_days",
    ),
    "start_date": ({"type": iso_date, "help": "first day, ISO format"}, "start_date"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_flags(parser, table) -> None:
    for dest, (kwargs, *_) in table.items():
        parser.add_argument(_flag(dest), **kwargs)


def _params(args, reader: str) -> dict:
    """The parameters ``reader`` takes from the detector and method flags.

    An unset flag takes the ``DetectorConfig`` default where the detector
    has that parameter, and the method's default otherwise; a None default
    (``--merge-gap``) is left out, so the method keeps its own.  A given
    flag ``reader`` does not take raises ConfigurationError.
    """
    detector = {f.name: f.default for f in fields(DetectorConfig)}
    reads = detector if reader == "report" else method_params(reader)
    params = {}
    for dest, (_, param) in {**DETECTOR_FLAGS, **METHOD_FLAGS}.items():
        value = getattr(args, dest, None)
        if param in reads:
            value = detector.get(param, reads[param]) if value is None else value
            if value is not None:
                params[param] = value
        elif value is not None:
            raise ConfigurationError(f"{_flag(dest)} is not read by --method {args.method}")
    return params


def _add_analysis_flags(parser) -> None:
    """The detector flags and the metric, read by every command that detects."""
    _add_flags(parser, DETECTOR_FLAGS)
    parser.add_argument("--metric", default="ctr", help="series column to analyse")


def _add_method_flags(parser) -> None:
    parser.add_argument(
        "--method",
        default="signature",
        choices=sorted(METHODS),
        help="detector to run; non-signature methods report bare change dates",
    )
    _add_flags(parser, METHOD_FLAGS)


def _add_pattern_flags(parser, corpus: bool = False) -> None:
    """Pattern and spec flags; with ``corpus``, ``--corpus DIR`` replaces them."""
    group = parser.add_mutually_exclusive_group(required=True)
    if corpus:
        group.add_argument("--corpus", help="directory of generated series")
    group.add_argument("--pattern", choices=PATTERN_KINDS, help="pattern kind")
    group.add_argument("--all", action="store_true", help="every pattern kind")
    parser.add_argument("--n", type=int, default=None, help="series per pattern (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    _add_flags(parser, SPEC_FLAGS)


def _pattern_overrides(args) -> dict:
    return {
        field: getattr(args, dest)
        for dest, (_, field) in SPEC_FLAGS.items()
        if getattr(args, dest) is not None
    }


def _series_per_pattern(args) -> int:
    return 1 if args.n is None else args.n


def _corpus(args) -> list:
    """The series in ``--corpus DIR``, or the corpus the spec flags describe.

    A directory is read as it is, so a spec flag given with it exits 2;
    ``--seed`` still seeds the bootstrap.
    """
    if getattr(args, "corpus", None) is None:
        kinds = list(PATTERN_KINDS) if args.all else [args.pattern]
        return generate_batch(
            kinds, _series_per_pattern(args), args.seed, overrides=_pattern_overrides(args)
        )
    for dest in ("n", *SPEC_FLAGS):
        if getattr(args, dest) is not None:
            raise ConfigurationError(f"{_flag(dest)} does not apply to --corpus")
    return _load_corpus(args.corpus)


def _load_corpus(directory: str) -> list:
    root = Path(directory)
    manifests = sorted(root.glob("*.manifest.json"))
    if not manifests:
        raise InvalidInputError(f"no *.manifest.json files found in {directory}")
    corpus = []
    for mpath in manifests:
        try:
            data = json.loads(mpath.read_text(encoding="utf-8"))
            version = data["schema_version"]
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
            spec = PatternSpec(
                **{**data["spec"], "start_date": iso_date(data["spec"]["start_date"])}
            )
            truth = GroundTruth(change_days=data["ground_truth"]["change_days"])
            # a spec or truth that generate could not have written
            violations = replace(spec, change_days=truth.change_days).validate()
            if violations:
                raise PatternSpecError(violations)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise InvalidInputError(
                f"malformed manifest {mpath}: {type(exc).__name__}: {exc}"
            ) from None
        csv_path = mpath.with_name(mpath.name.replace(".manifest.json", ".csv"))
        if not csv_path.exists():
            raise InvalidInputError(f"missing series file {csv_path}")
        series = read_series_csv(csv_path)
        corpus.append(GeneratedSeries(spec=spec, series=series, truth=truth))
    return corpus


def cmd_generate(args) -> int:
    n = _series_per_pattern(args)
    if n == 1 and not args.all:
        # single fully specified series: honor the seed directly
        spec = PatternSpec(kind=args.pattern, seed=args.seed, **_pattern_overrides(args))
        series, truth = generate(spec)
        items = [GeneratedSeries(spec=spec, series=series, truth=truth)]
    else:
        items = _corpus(args)
    out_dir = Path(args.out)  # made after the draw, so a refused spec leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    # generate_batch returns n series per kind, kind by kind
    for i, item in enumerate(items):
        stem = f"{item.spec.kind}_{i % n:04d}"
        write_series_csv(item.series, out_dir / f"{stem}.csv")
        _dump_json(_manifest(item), str(out_dir / f"{stem}.manifest.json"))
    print(f"wrote {len(items)} series to {out_dir}")
    return 0


def cmd_detect(args) -> int:
    if args.plot and args.method != "signature":
        raise ConfigurationError("--plot needs --method signature")
    params = _params(args, "report" if args.method == "signature" else args.method)
    series = read_series_csv(args.input, metric=args.metric)
    if args.method != "signature":
        dates = make_method(args.method, **params)([series])[0]
        points = [{"date": d} for d in dates]
        _dump_json({"method": args.method, "params": params, "change_points": points}, args.out)
        return 0
    report = detect(series, DetectorConfig(**params))
    _dump_json({"method": "signature", **report.to_dict()}, args.out)
    if args.plot:
        svg = report_svg(series, report, title=Path(args.input).stem)
        Path(args.plot).write_text(svg, encoding="utf-8")
    return 0


def cmd_wastage(args) -> int:
    params = _params(args, "report")
    series = read_series_csv(args.input, metric=args.metric)
    report = detect(series, DetectorConfig(**params))
    wastage = compute_wastage(series, report.segments, cpc=args.cpc)
    payload = wastage.to_dict()
    _dump_json(payload, args.out)
    if args.daily_csv:
        _write_table(payload["daily"], wastage.daily.dtype.names, args.daily_csv)
    return 0


def cmd_evaluate(args) -> int:
    params = _params(args, args.method)
    corpus = [
        replace(item, series=replace(item.series, metric=args.metric)) for item in _corpus(args)
    ]
    policy = MatchPolicy(tolerance_days=args.tolerance)
    _, pooled = evaluate_corpus(
        corpus, make_method(args.method, **params), policy, seed=args.seed
    )
    result = {
        "method": args.method,
        "params": params,
        "tolerance_days": args.tolerance,
        "n_series": len(corpus),
        "metrics": pooled,
    }
    _dump_json(result, args.out)
    return 0


def cmd_sweep(args) -> int:
    corpus = _corpus(args)
    grid = {"window": args.windows, "threshold_k": args.ks, "depth": args.depths}
    rows = sensitivity_report(
        corpus,
        grid,
        MatchPolicy(tolerance_days=args.tolerance),
        n_boot=args.bootstrap,
        seed=args.seed,
    )
    _dump_json({"rows": rows}, args.out)
    if args.csv:
        _write_table(rows, [c for c in rows[0] if c != "ci"], args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigfatigue",
        description="Signature-based change point detection for campaign performance series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    tolerance = {"type": int, "default": MatchPolicy.tolerance_days}

    p_gen = sub.add_parser("generate", help="write synthetic series and manifests")
    _add_pattern_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_det = sub.add_parser("detect", help="change point report for a series CSV")
    p_det.add_argument("input", help="input CSV (date,impressions,clicks[,cost])")
    _add_analysis_flags(p_det)
    _add_method_flags(p_det)
    p_det.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_det.add_argument("--plot", default=None, help="also write an SVG plot here")
    p_det.set_defaults(func=cmd_detect)

    p_was = sub.add_parser("wastage", help="financial wastage report for a series CSV")
    p_was.add_argument("input", help="input CSV")
    _add_analysis_flags(p_was)
    p_was.add_argument("--cpc", type=float, default=None, help="cost per click override")
    p_was.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_was.add_argument("--daily-csv", default=None, help="write daily rows here")
    p_was.set_defaults(func=cmd_wastage)

    p_eval = sub.add_parser("evaluate", help="score a method against ground truth")
    _add_pattern_flags(p_eval, corpus=True)
    _add_method_flags(p_eval)
    _add_analysis_flags(p_eval)
    p_eval.add_argument("--tolerance", **tolerance, help="match tolerance in days")
    p_eval.add_argument("--out", default=None, help="metrics JSON path (default stdout)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="signature metrics over a parameter grid")
    _add_pattern_flags(p_sweep, corpus=True)
    p_sweep.add_argument("--windows", type=int_list, default=DEFAULT_GRID["window"])
    p_sweep.add_argument("--ks", type=float_list, default=DEFAULT_GRID["threshold_k"])
    p_sweep.add_argument("--depths", type=int_list, default=DEFAULT_GRID["depth"])
    p_sweep.add_argument("--tolerance", **tolerance)
    p_sweep.add_argument("--bootstrap", type=int, default=N_BOOT)
    p_sweep.add_argument("--out", default=None, help="rows JSON path (default stdout)")
    p_sweep.add_argument("--csv", default=None, help="also write rows as CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SigFatigueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
