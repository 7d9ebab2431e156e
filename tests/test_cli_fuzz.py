"""Fuzzed command lines and CSV files: the CLI exits 0, 2 or 3, never
with an uncaught exception, and a report on stdout is strict JSON.

Every option of every subcommand is drawn, with a value of the type the
parser declares or a junk value.  So that most command lines get past
the checks into the analysis, the flags the drawn ``--method`` does not
read, and the spec flags with ``--corpus``, are usually left out (the
flag tables say which).  A ``--corpus`` is the generated one, or a copy
whose manifests hold one or two junk JSON values each.  The flags that
scale the work (``--n``, ``--duration``, ``--bootstrap``, ``--depth``,
``--depths``) are bounded so that the test stays fast.
"""

import argparse
import contextlib
import copy
import datetime as dt
import io
import json
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfatigue.cli import (
    DETECTOR_FLAGS,
    METHOD_FLAGS,
    SPEC_FLAGS,
    build_parser,
    float_list,
    int_list,
    iso_date,
    main,
    non_negative_int,
)
from sigfatigue.detector import DetectorConfig
from sigfatigue.evaluation import METHODS, method_params
from sigfatigue.windowing import read_series_csv, write_series_csv

METHOD_TABLE = {**DETECTOR_FLAGS, **METHOD_FLAGS}
MOSTLY = st.sampled_from([True, True, True, False])
JUNK = st.sampled_from(["", "abc", "nan", "inf", "-1", "1e309", "x,y", "2024-13-01"])


def _reads(reader) -> set:
    """The parameters a --method name or "report" (detect and wastage) reads."""
    if reader == "report":
        return {f.name for f in fields(DetectorConfig)}
    return set(method_params(reader))


def _mostly(plausible, extreme):
    return st.one_of(plausible, plausible, plausible, extreme)


def _joined(elements):
    return st.lists(elements, min_size=0, max_size=3).map(lambda xs: ",".join(map(str, xs)))


INTS = _mostly(st.integers(0, 40), st.integers(-(2**70), 2**70))
FLOATS = _mostly(st.floats(0.01, 3), st.floats(width=64))
BY_TYPE = {
    int: INTS,
    float: FLOATS.map(repr),
    int_list: _joined(INTS),
    float_list: _joined(FLOATS),
    iso_date: st.dates().map(dt.date.isoformat),
    non_negative_int: st.integers(0, 2**70),
}
# flags that scale the work, held to small values
BOUNDED = {
    "n": st.integers(1, 2),
    "duration": st.integers(30, 120),
    "bootstrap": st.integers(-1, 5),
    "depth": st.integers(-1, 4),
    "depths": _joined(st.integers(-1, 4)),
    "metric": st.sampled_from(["ctr", "clicks", "impressions", "cost"]),
}
PATH_FLAGS = ("out", "plot", "daily_csv", "csv")
CELL_JUNK = st.sampled_from(
    ["", "abc", "nan", "inf", "-1", "1e300", "1e309", "x,y", "2024-13-01", "9" * 30, '"']
)
# JSON text; json.loads reads NaN and Infinity, and 1e400 as infinity
JSON_JUNK = st.one_of(
    INTS.map(str),
    st.floats().map(json.dumps),
    st.sampled_from(["1e400", "null", "true", '""', '"abc"', '"2024-13-01"', "[]", "{}"]),
)


def _subparsers():
    (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@st.composite
def csv_bytes(draw):
    """A series CSV, mostly well formed, with a few junk cells or bytes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 80))
    impressions = rng.integers(0, 5_000, n)
    clicks = rng.integers(0, impressions + 1)
    days = np.cumsum(rng.integers(1, 3, n))
    start = dt.date(2024, 1, 1)
    rows = [["date", "impressions", "clicks"]]
    if draw(st.booleans()):
        rows[0].append("cost")
    for day, imp, clk in zip(days.tolist(), impressions.tolist(), clicks.tolist()):
        row = [(start + dt.timedelta(days=day)).isoformat(), str(imp), str(clk)]
        rows.append(row + [repr(0.5 * clk)] * (len(rows[0]) - 3))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(CELL_JUNK)
    data = ("\n".join(",".join(row) for row in rows) + "\n").encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@st.composite
def manifest_bytes(draw, manifest):
    """``manifest`` as JSON, with one or two junk values, each in a spec
    field or in a change day."""
    manifest = copy.deepcopy(manifest)
    junk = {}
    for slot in ("junk0", "junk1")[: draw(st.integers(1, 2))]:
        if draw(st.booleans()):
            manifest["spec"][draw(st.sampled_from(sorted(manifest["spec"])))] = slot
        else:
            days = manifest["ground_truth"]["change_days"]
            days[draw(st.integers(0, len(days) - 1))] = slot
        junk[f'"{slot}"'] = draw(JSON_JUNK)
    text = json.dumps(manifest)
    for slot, value in junk.items():
        text = text.replace(slot, value)
    return text.encode()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert main([
        "generate", "--pattern", "sharp_drop", "--n", "2", "--seed", "4",
        "--duration", "60", "--out", str(corpus),
    ]) == 0
    series = read_series_csv(corpus / "sharp_drop_0000.csv")
    write_series_csv(replace(series, cost=0.5 * series.clicks), root / "costed.csv")
    shutil.copytree(corpus, root / "fuzzed_corpus")
    return {
        "root": root,
        "csv": str(corpus / "sharp_drop_0000.csv"),
        "costed": str(root / "costed.csv"),
        "corpus": str(corpus),
        "fuzzed_corpus": str(root / "fuzzed_corpus"),
        "manifests": {
            f"fuzzed_corpus/{path.name}": json.loads(path.read_text())
            for path in corpus.glob("*.manifest.json")
        },
        "missing": str(root / "missing" / "x"),
        "dir": str(tmp_path_factory.mktemp("dir")),
    }


def _value(action, paths):
    """Strategy for one value of ``action``, of the type it declares."""
    dest = action.dest
    if dest in BOUNDED:
        return BOUNDED[dest].map(str)
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if dest in PATH_FLAGS:
        name = str(paths["root"] / f"out_{dest}")
        return _mostly(st.just(name), st.sampled_from([paths["missing"], paths["dir"]]))
    return BY_TYPE[action.type].map(str)


@st.composite
def command_lines(draw, command, paths):
    """(argv, {file name under the fuzz root: bytes to write first}) for
    ``command``; required options are given."""
    parser = _subparsers()[command]
    argv, files = [command], {}
    if command in ("detect", "wastage"):
        source = draw(st.sampled_from(["csv", "costed", "fuzzed", "missing"]))
        if source == "fuzzed":
            files["fuzzed.csv"] = draw(csv_bytes())
            argv.append(str(paths["root"] / "fuzzed.csv"))
        else:
            argv.append(paths[source])
    else:
        sources = [["--pattern", "sharp_drop"], ["--all"],
                   ["--corpus", paths["corpus"]], ["--corpus", paths["fuzzed_corpus"]]]
        argv += draw(st.sampled_from(sources[:2] if command == "generate" else sources))
        if paths["fuzzed_corpus"] in argv:
            files = {name: draw(manifest_bytes(m)) for name, m in paths["manifests"].items()}
    skip = {"help", "pattern", "all", "corpus", "method"}
    if command in ("detect", "evaluate"):
        method = draw(st.sampled_from(sorted(METHODS)))
        argv.append(f"--method={method}")
        reader = "report" if command == "detect" and method == "signature" else method
        if draw(MOSTLY):  # leave out the flags the method does not read
            skip |= {d for d, (_, param) in METHOD_TABLE.items() if param not in _reads(reader)}
    if "--corpus" in argv and draw(MOSTLY):  # leave out the flags a corpus rejects
        skip |= {"n", *SPEC_FLAGS}
    options = [a for a in parser._actions if a.option_strings and a.dest not in skip]
    chosen = draw(st.lists(st.sampled_from(options), unique=True, max_size=4))
    junk_at = draw(st.one_of(st.none(), st.integers(0, max(len(chosen) - 1, 0))))
    for i, action in enumerate(chosen):
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:  # --flag=value, so that a value may start with "-"
            junk = i == junk_at and action.dest not in PATH_FLAGS
            argv.append(f"{flag}={draw(JUNK if junk else _value(action, paths))}")
    given = {arg.split("=")[0] for arg in argv}
    if command == "generate" and "--out" not in given:
        argv += ["--out", str(paths["root"] / "gen")]
    if command != "generate" and "--all" in given and "--n" not in given:
        argv += ["--n", "1", "--duration", "30"]
    return argv, files


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command", ["generate", "detect", "wastage", "evaluate", "sweep"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exit_contract_under_fuzzing(paths, command, data):
    argv, files = data.draw(command_lines(command, paths), label="argv")
    for name, content in files.items():
        (paths["root"] / name).write_bytes(content)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), stderr.getvalue()
    if code == 0 and command != "generate" and not any(a.startswith("--out") for a in argv):
        json.loads(stdout.getvalue(), parse_constant=_reject_constant)
