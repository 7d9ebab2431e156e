import datetime as dt
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import sigfatigue
from sigfatigue import cli, detector, evaluation
from sigfatigue.cli import SPEC_FLAGS, _dump_json, build_parser, main
from sigfatigue.detector import detect
from sigfatigue.evaluation import METHODS, score
from sigfatigue.synth import PatternSpec
from sigfatigue.wastage import compute_wastage
from sigfatigue.windowing import read_series_csv


def run(argv):
    return main(argv)


def gen_fixture(tmp_path, extra=()):
    out = tmp_path / "corpus"
    argv = [
        "generate", "--pattern", "sharp_drop", "--seed", "42", "--noise-cv", "0",
        "--duration", "120", "--change-days", "61", "--out", str(out), *extra,
    ]
    assert run(argv) == 0
    return out / "sharp_drop_0000.csv", out / "sharp_drop_0000.manifest.json"


class TestGenerate:
    def test_single_series_outputs(self, tmp_path):
        csv_path, manifest_path = gen_fixture(tmp_path)
        assert csv_path.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["ground_truth"]["change_days"] == [61]
        header = csv_path.read_text().splitlines()[0]
        assert header == "date,impressions,clicks"

    def test_all_patterns(self, tmp_path):
        out = tmp_path / "all"
        assert run(["generate", "--all", "--n", "2", "--seed", "7", "--out", str(out)]) == 0
        assert len(list(out.glob("*.csv"))) == 14
        assert len(list(out.glob("*.manifest.json"))) == 14

    def test_invalid_noise_cv_exits_2(self, tmp_path, capsys):
        code = run([
            "generate", "--pattern", "sharp_drop", "--noise-cv", "0.9",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "noise_cv" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [[], ["--noise-cv", "0"]], ids=["noisy", "noiseless"])
    def test_impressions_mean_past_exact_floats_exits_2(self, tmp_path, capsys, noise):
        code = run([
            "generate", "--pattern", "sharp_drop", "--impressions-mean", str(2**70), *noise,
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "impressions_mean" in capsys.readouterr().err
        assert not list((tmp_path / "x").glob("*"))

    def test_determinism_byte_identical(self, tmp_path):
        a_csv, a_man = gen_fixture(tmp_path / "a")
        b_csv, b_man = gen_fixture(tmp_path / "b")
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert a_man.read_bytes() == b_man.read_bytes()


class TestDetect:
    def test_report_and_plot(self, tmp_path):
        csv_path, _ = gen_fixture(tmp_path)
        report_path = tmp_path / "report.json"
        svg_path = tmp_path / "report.svg"
        code = run([
            "detect", str(csv_path), "--k", "1.5",
            "--out", str(report_path), "--plot", str(svg_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["change_points"]) == 1
        assert report["change_points"][0]["date"] == "2024-03-01"  # day 61
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")

    @pytest.mark.parametrize("name", [b"bad\xffname", b"ctl\x01name"], ids=["non_utf8", "control"])
    def test_plot_title_from_any_file_name_is_xml(self, tmp_path, name):
        csv_path, _ = gen_fixture(tmp_path)
        odd = os.fsencode(tmp_path) + b"/" + name + b".csv"
        Path(os.fsdecode(odd)).write_bytes(csv_path.read_bytes())
        svg_path = tmp_path / "report.svg"
        code = run([
            "detect", os.fsdecode(odd), "--out", str(tmp_path / "r.json"),
            "--plot", str(svg_path),
        ])
        assert code == 0
        assert ET.parse(svg_path).getroot().tag.endswith("svg")

    def test_extreme_k_no_change_points(self, tmp_path):
        csv_path, _ = gen_fixture(tmp_path)
        out = tmp_path / "r.json"
        assert run(["detect", str(csv_path), "--k", "99", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["change_points"] == []

    def test_malformed_csv_exits_2_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,impressions,clicks\n2024-01-01,100,5\noops,1,1\n")
        assert run(["detect", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_short_series_exits_3(self, tmp_path):
        short = tmp_path / "short.csv"
        rows = ["date,impressions,clicks"] + [
            f"2024-01-{d:02d},100,5" for d in range(1, 11)
        ]
        short.write_text("\n".join(rows) + "\n")
        assert run(["detect", str(short), "--window", "14"]) == 3

    def test_plot_with_baseline_method_exits_2(self, tmp_path, capsys):
        csv_path, _ = gen_fixture(tmp_path)
        svg_path = tmp_path / "x.svg"
        code = run(["detect", str(csv_path), "--method", "cusum", "--plot", str(svg_path)])
        assert code == 2
        assert "--plot" in capsys.readouterr().err
        assert not svg_path.exists()

    def test_nan_cost_exits_2_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        rows = ["date,impressions,clicks,cost"] + [
            f"2024-01-{d:02d},100,5,{'nan' if d == 20 else '2.5'}" for d in range(1, 31)
        ]
        bad.write_text("\n".join(rows) + "\n")
        assert run(["wastage", str(bad)]) == 2
        assert "line 21" in capsys.readouterr().err
        assert run(["detect", str(bad)]) == 2

    def test_detect_determinism(self, tmp_path):
        csv_path, _ = gen_fixture(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["detect", str(csv_path), "--k", "1.5", "--out", str(a)])
        run(["detect", str(csv_path), "--k", "1.5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestWastage:
    def test_requires_cpc_without_cost_column(self, tmp_path, capsys):
        csv_path, _ = gen_fixture(tmp_path)
        assert run(["wastage", str(csv_path), "--k", "1.5"]) == 2
        assert "cpc" in capsys.readouterr().err

    def test_report_with_cpc(self, tmp_path):
        csv_path, _ = gen_fixture(tmp_path)
        out = tmp_path / "w.json"
        daily = tmp_path / "w.csv"
        code = run([
            "wastage", str(csv_path), "--k", "1.5", "--cpc", "1.25",
            "--out", str(out), "--daily-csv", str(daily),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cpc_benchmark"] == 1.25
        assert report["total_wastage"] > 0
        assert daily.read_text().splitlines()[0] == "date,lost_clicks,wastage"

    def test_constant_series_zero_wastage(self, tmp_path):
        const = tmp_path / "const.csv"
        rows = ["date,impressions,clicks"]
        for i in range(120):
            d = dt.date(2024, 1, 1) + dt.timedelta(days=i)
            rows.append(f"{d.isoformat()},50000,1000")
        const.write_text("\n".join(rows) + "\n")
        out = tmp_path / "w.json"
        assert run(["wastage", str(const), "--cpc", "1.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total_wastage"] == 0.0

    def test_cpc_overrides_cost_column(self, tmp_path, capsys):
        costed = tmp_path / "cost.csv"
        rows = ["date,impressions,clicks,cost"]
        for i in range(120):
            d, clicks = dt.date(2024, 1, 1) + dt.timedelta(days=i), 1000 if i < 60 else 400
            rows.append(f"{d.isoformat()},50000,{clicks},{1.1 * clicks}")
        costed.write_text("\n".join(rows) + "\n")
        out = tmp_path / "w.json"
        assert run(["wastage", str(costed), "--cpc", "5.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["cpc_benchmark"] == 5.0
        assert run(["wastage", str(costed), "--cpc", "-3"]) == 2
        assert "cpc" in capsys.readouterr().err


class TestEvaluateAndSweep:
    EVAL = [
        "evaluate", "--pattern", "sharp_drop", "--n", "5", "--seed", "101",
        "--duration", "120", "--k", "1.5",
    ]

    def _metrics(self, tmp_path, *extra):
        out = tmp_path / "m.json"
        assert run(self.EVAL + [*extra, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_evaluate_merge_gap_honoured(self, tmp_path):
        merged = self._metrics(tmp_path, "--merge-gap", "14")
        raw = self._metrics(tmp_path, "--merge-gap", "0")
        assert merged["params"]["merge_gap"] == 14
        assert merged["metrics"]["n_detected"] < raw["metrics"]["n_detected"]

    def test_evaluate_default_params_omit_merge_gap(self, tmp_path):
        assert "merge_gap" not in self._metrics(tmp_path)["params"]

    def test_evaluate_metric_honoured(self, tmp_path):
        ctr = self._metrics(tmp_path)["metrics"]
        clicks = self._metrics(tmp_path, "--metric", "clicks")["metrics"]
        assert clicks != ctr

    def test_evaluate_cost_metric_without_cost_exits_2(self, capsys):
        assert run(self.EVAL + ["--metric", "cost"]) == 2
        assert "no cost recorded" in capsys.readouterr().err

    def test_evaluate_has_no_jobs_flag(self):
        with pytest.raises(SystemExit) as err:
            main(self.EVAL + ["--jobs", "2"])
        assert err.value.code == 2

    def test_evaluate_generated_corpus(self, tmp_path):
        out = tmp_path / "metrics.json"
        code = run([
            "evaluate", "--pattern", "sharp_drop", "--n", "5", "--seed", "9",
            "--duration", "120", "--method", "signature", "--k", "1.5",
            "--out", str(out),
        ])
        assert code == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["recall"] == 1.0
        assert metrics["precision"] > 0

    def test_evaluate_from_corpus_dir(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run([
            "generate", "--pattern", "sharp_drop", "--n", "3", "--seed", "4",
            "--duration", "120", "--out", str(corpus_dir),
        ])
        out = tmp_path / "m.json"
        code = run([
            "evaluate", "--corpus", str(corpus_dir),
            "--method", "signature", "--k", "1.5", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["n_series"] == 3

    @pytest.fixture
    def corpus_dir(self, tmp_path):
        out = tmp_path / "corpus"
        assert run([
            "generate", "--pattern", "sharp_drop", "--n", "2", "--seed", "4",
            "--duration", "90", "--out", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_corpus_alone_runs(self, tmp_path, corpus_dir, command):
        out = tmp_path / "o.json"
        argv = [command, "--corpus", str(corpus_dir), "--out", str(out)]
        assert run(argv) == 0
        assert run(argv[:-2] + ["--seed", "3", "--out", str(tmp_path / "s.json")]) == 0
        if command == "evaluate":
            assert json.loads(out.read_text())["n_series"] == 2

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("extra", [["--pattern", "sharp_drop"], ["--all"]])
    def test_corpus_excludes_pattern_and_all(self, corpus_dir, command, extra):
        with pytest.raises(SystemExit) as err:
            main([command, "--corpus", str(corpus_dir), *extra])
        assert err.value.code == 2

    SPEC_VALUES = {
        "n": "2", "baseline_ctr": "0.02", "weekly_decay": "0.01", "noise_cv": "0.1",
        "duration": "90", "impressions_mean": "1000", "gap_fraction": "0.1",
        "drop_factor": "0.5", "n_stages": "2", "stage_drop": "0.2",
        "base_kind": "sharp_drop", "change_days": "30", "start_date": "2024-01-01",
    }

    def test_spec_values_cover_every_spec_flag(self):
        assert set(self.SPEC_VALUES) == {"n", *SPEC_FLAGS}

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("dest", sorted(SPEC_VALUES))
    def test_corpus_rejects_spec_flags(self, capsys, corpus_dir, command, dest):
        flag = "--" + dest.replace("_", "-")
        argv = [command, "--corpus", str(corpus_dir), flag, self.SPEC_VALUES[dest]]
        assert run(argv) == 2
        assert f"{flag} does not apply to --corpus" in capsys.readouterr().err

    def test_evaluate_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "evaluate", "--pattern", "sharp_drop", "--n", "4", "--seed", "12",
            "--duration", "120", "--method", "signature", "--k", "1.5",
        ]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_nine_rows(self, tmp_path):
        out_json = tmp_path / "sweep.json"
        out_csv = tmp_path / "sweep.csv"
        code = run([
            "sweep", "--pattern", "sharp_drop", "--n", "3", "--seed", "5",
            "--duration", "120", "--bootstrap", "10",
            "--out", str(out_json), "--csv", str(out_csv),
        ])
        assert code == 0
        rows = json.loads(out_json.read_text())["rows"]
        assert len(rows) == 9
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("window,threshold_k,depth,precision")

    @pytest.mark.parametrize("flag", ["--windows", "--ks", "--depths"])
    @pytest.mark.parametrize("value", ["", ","])
    def test_sweep_empty_grid_list_exits_2(self, tmp_path, capsys, flag, value):
        out_csv = tmp_path / "s.csv"
        code = run([
            "sweep", "--pattern", "sharp_drop", "--seed", "1", "--duration", "120",
            "--bootstrap", "0", flag, value, "--csv", str(out_csv),
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "parameter grid" in err
        assert not out_csv.exists()


# one flag per method that the method does not read
IGNORED_FLAG = {
    "signature": ["--short-window", "5"],
    "ma_crossover": ["--k", "9"],
    "cusum": ["--k", "9", "--depth", "7", "--merge-gap", "3", "--feature-mode", "log"],
    "rolling_regression": ["--depth", "7"],
}


@pytest.mark.parametrize("method", sorted(IGNORED_FLAG))
def test_detect_rejects_flags_the_method_ignores(tmp_path, capsys, method):
    csv_path, _ = gen_fixture(tmp_path, extra=("--noise-cv", "0.1"))
    out = tmp_path / "r.json"
    assert run(["detect", str(csv_path), "--method", method, "--out", str(out)]) == 0
    code = run(["detect", str(csv_path), "--method", method, *IGNORED_FLAG[method]])
    assert code == 2
    assert "is not read by --method " + method in capsys.readouterr().err


EVAL_IGNORED_FLAG = {
    "signature": ["--alpha", "0.1"],  # scoring uses no trend test
    "ma_crossover": ["--window", "10"],
    "cusum": ["--short-window", "3"],
    "rolling_regression": ["--reference-k", "1.0"],
}


@pytest.mark.parametrize("method", sorted(EVAL_IGNORED_FLAG))
def test_evaluate_rejects_flags_the_method_ignores(capsys, method):
    argv = ["evaluate", "--pattern", "sharp_drop", "--n", "2", "--duration", "60"]
    assert run(argv + ["--method", method, *EVAL_IGNORED_FLAG[method]]) == 2
    assert "is not read by --method " + method in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, params",
    [
        ("signature", {"window": 14, "depth": 3, "threshold_k": 2.0, "feature_mode": "full"}),
        ("ma_crossover", {"short_window": 7, "long_window": 28}),
        ("cusum", {"reference_k": 0.5, "decision_h": 5.0}),
        ("rolling_regression", {"window": 14, "alpha": 0.05}),
    ],
)
def test_evaluate_default_params(tmp_path, method, params):
    out = tmp_path / "m.json"
    argv = ["evaluate", "--pattern", "sharp_drop", "--n", "2", "--duration", "60"]
    assert run(argv + ["--method", method, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"] == params


def test_unknown_method_choices_guard():
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--pattern", "sharp_drop", "--method", "nope"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv", [["detect", "x.csv"], ["evaluate", "--pattern", "sharp_drop"]]
)
def test_method_choices_come_from_registry(argv, monkeypatch):
    monkeypatch.setattr(cli, "METHODS", (*METHODS, "noop"))
    assert build_parser().parse_args(argv + ["--method", "noop"]).method == "noop"


def test_json_output_is_strict(tmp_path):
    with pytest.raises(ValueError):
        _dump_json({"total_wastage": float("nan")}, str(tmp_path / "x.json"))


def test_every_document_is_stamped_by_the_writer(tmp_path):
    """Each of the six document kinds carries the int schema_version 1,
    stamped when it is written: no record's to_dict holds it."""
    csv_path, manifest_path = gen_fixture(tmp_path)
    corpus = str(csv_path.parent)
    commands = {
        "detect": ["detect", str(csv_path)],
        "baseline detect": ["detect", str(csv_path), "--method", "ma_crossover"],
        "wastage": ["wastage", str(csv_path), "--cpc", "1.0"],
        "evaluate": ["evaluate", "--corpus", corpus],
        "sweep": ["sweep", "--corpus", corpus, "--bootstrap", "0"],
    }
    documents = {"manifest": json.loads(manifest_path.read_text())}
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == 0
        documents[name] = json.loads(out.read_text())
    versions = {name: doc["schema_version"] for name, doc in documents.items()}
    assert versions == dict.fromkeys(documents, 1)
    assert all(type(v) is int for v in versions.values())
    series = read_series_csv(csv_path)
    report = detect(series)
    records = [report, compute_wastage(series, report.segments, cpc=1.0), score([], []),
               PatternSpec(kind="sharp_drop")]
    assert not [r for r in records if "schema_version" in r.to_dict()]


def test_cpc_must_be_finite(tmp_path, capsys):
    csv_path, _ = gen_fixture(tmp_path)
    assert run(["wastage", str(csv_path), "--cpc", "nan"]) == 2
    assert "cpc" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(sigfatigue.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, sigfatigue.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# Commands that test no trend must not load scipy, nor urllib.request (and
# with it http.client and ssl); {tmp} is a scratch directory.
IMPORT_FREE = {
    "import": None,
    "generate": ["generate", "--pattern", "sharp_drop", "--out", "{tmp}/corpus"],
    "sweep": [
        "sweep", "--pattern", "sharp_drop", "--duration", "60", "--bootstrap", "0",
        "--out", "{tmp}/sweep.json",
    ],
    **{
        f"evaluate_{method}": [
            "evaluate", "--pattern", "sharp_drop", "--duration", "60", "--method", method,
            "--out", "{tmp}/eval.json",
        ]
        for method in ("signature", "cusum", "ma_crossover")
    },
}


def _heavy_modules_after(argv) -> list:
    """scipy and urllib.request modules loaded by ``import sigfatigue`` and,
    unless ``argv`` is None, ``main(argv)`` in a fresh interpreter."""
    src = str(Path(sigfatigue.__file__).resolve().parents[1])
    code = "import json, sys, sigfatigue\n"
    if argv is not None:
        code += f"from sigfatigue.cli import main\nassert main({argv!r}) == 0\n"
    code += (
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy'"
        " or m.startswith(('scipy.', 'urllib.request')))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", IMPORT_FREE.values(), ids=IMPORT_FREE.keys())
def test_command_without_trend_test_leaves_scipy_unloaded(tmp_path, argv):
    argv = argv and [a.format(tmp=tmp_path) for a in argv]
    assert _heavy_modules_after(argv) == []


def test_detect_loads_scipy_special(tmp_path):
    csv_path, _ = gen_fixture(tmp_path)
    loaded = _heavy_modules_after(["detect", str(csv_path), "--out", str(tmp_path / "r.json")])
    assert "scipy.special" in loaded and "urllib.request" not in loaded


# Invocations that once ended in a traceback; each must exit 2.  Paths:
# {csv} a valid series, {corpus} a directory of generated series, {file}
# an existing file, {missing} a path that does not exist, {latin1} a CSV
# with a byte that is not UTF-8, {truncated} and {specless} corpora with
# one broken manifest, {farday}, {infday} and {fracday} corpora whose one
# truth day is past the series, infinite or fractional, {versionless},
# {v2}, {true} and {float} corpora whose manifest has no schema_version,
# version 2, true or 1.0, {empty} a directory with no manifest and
# {csvless} one whose manifest has no series file.
BAD_INVOCATIONS = [
    ["sweep", "--pattern", "sharp_drop", "--windows", "abc"],
    ["generate", "--pattern", "sharp_drop", "--change-days", "x,y", "--out", "{missing}"],
    ["generate", "--pattern", "sharp_drop", "--start-date", "2024-13-01", "--out", "{missing}"],
    ["evaluate", "--pattern", "sharp_drop", "--seed", "-1"],
    ["detect", "{csv}", "--k", "inf"],
    ["evaluate", "--pattern", "sharp_drop", "--n", "1", "--duration", "60", "--k", "inf"],
    ["sweep", "--pattern", "sharp_drop", "--n", "1", "--duration", "60", "--ks", "inf"],
    ["detect", "{csv}", "--method", "cusum", "--decision-h", "inf"],
    ["detect", "{csv}", "--method", "cusum", "--decision-h", "nan"],
    ["detect", "{csv}", "--method", "cusum", "--reference-k", "nan"],
    ["detect", "{missing}"],
    ["detect", "{csv}", "--out", "{missing}/x.json"],
    ["generate", "--pattern", "sharp_drop", "--out", "{file}"],
    ["detect", "{latin1}"],
    ["evaluate", "--corpus", "{truncated}"],
    ["evaluate", "--corpus", "{specless}"],
    ["wastage", "{csv}", "--cpc", "1e306"],
    ["generate", "--pattern", "sharp_drop", "--start-date", "9999-12-01", "--out", "{missing}"],
    ["generate", "--pattern", "sharp_drop", "--duration", "5", "--out", "{missing}"],
    ["generate", "--pattern", "sharp_drop", "--seed", "-1", "--out", "{missing}"],
    ["generate", "--all", "--n", "2", "--seed", "-1", "--out", "{missing}"],
    ["evaluate", "--corpus", "{empty}"],
    ["sweep", "--corpus", "{csvless}"],
    ["detect", "{huge}", "--metric", "cost"],
    ["detect", "{huge}", "--metric", "cost", "--method", "cusum"],
    ["wastage", "{huge}", "--metric", "cost"],
    ["detect", "{subnormal}", "--metric", "cost", "--method", "cusum"],
    ["evaluate", "--corpus", "{farday}"],
    ["sweep", "--corpus", "{farday}"],
    ["evaluate", "--corpus", "{infday}"],
    ["sweep", "--corpus", "{infday}"],
    ["evaluate", "--corpus", "{fracday}"],
    ["evaluate", "--corpus", "{versionless}"],
    ["sweep", "--corpus", "{v2}"],
    ["evaluate", "--corpus", "{true}"],
    ["sweep", "--corpus", "{float}"],
    ["detect", "{csv}", "--metric", "cpm"],
    ["detect", "{csv}", "--depth", "1"],
    ["wastage", "{csv}", "--cpc", "1.0", "--depth", "1"],
    ["sweep", "--pattern", "sharp_drop", "--n", "1", "--duration", "60", "--depths", "1"],
]


@pytest.fixture
def bad_inputs(tmp_path):
    csv_path, manifest_path = gen_fixture(tmp_path, extra=("--noise-cv", "0.1"))
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"date,impressions,clicks\n2024-01-01,100,5\n2024-01-02,1\xff0,5\n")
    # a cost too large to square, as the metric
    huge = tmp_path / "huge.csv"
    huge.write_text("date,impressions,clicks,cost\n" + "".join(
        f"{dt.date(2024, 1, 1) + dt.timedelta(days=i)},100,5,1e300\n" for i in range(60)
    ))
    # a cusum burn-in whose spread underflows: 0 x 13, then one subnormal
    subnormal = tmp_path / "subnormal.csv"
    subnormal.write_text("date,impressions,clicks,cost\n" + "".join(
        f"{dt.date(2024, 1, 1) + dt.timedelta(days=i)},100,5,{cost!r}\n"
        for i, cost in enumerate([0.0] * 13 + [5e-324] + [1e150] * 46)
    ))
    paths = {"csv": csv_path, "file": manifest_path, "missing": tmp_path / "missing",
             "latin1": latin1, "empty": tmp_path / "empty", "csvless": tmp_path / "csvless",
             "huge": huge, "subnormal": subnormal}
    paths["empty"].mkdir()
    paths["csvless"].mkdir()
    (paths["csvless"] / "s.manifest.json").write_bytes(manifest_path.read_bytes())
    manifest = json.loads(manifest_path.read_text())
    # a change day past the last date generate could have written
    farday = json.dumps({**manifest, "ground_truth": {"change_days": [3_000_000]}})
    stamped = [(name, json.dumps({**manifest, "schema_version": v}))
               for name, v in [("v2", 2), ("true", True), ("float", 1.0)]]
    del manifest["schema_version"]
    versionless = json.dumps(manifest)
    del manifest["spec"]
    for name, text in [("truncated", manifest_path.read_text()[:40]),
                       ("specless", json.dumps(manifest)),
                       ("farday", farday), ("infday", farday.replace("3000000", "1e400")),
                       ("fracday", farday.replace("3000000", "61.5")),
                       ("versionless", versionless), *stamped]:
        paths[name] = tmp_path / name
        paths[name].mkdir()
        (paths[name] / "s.csv").write_bytes(csv_path.read_bytes())
        (paths[name] / "s.manifest.json").write_text(text)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv", BAD_INVOCATIONS, ids=" ".join)
def test_bad_invocation_exits_2(bad_inputs, capsys, argv):
    try:
        code = main([arg.format(**bad_inputs) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1 or "usage:" in err, err
    assert "Traceback" not in err
    if argv[0] == "generate":
        assert not os.path.exists(bad_inputs["missing"])


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--pattern", "sharp_drop", "--out", "{missing}"],
        ["generate", "--all", "--n", "2", "--out", "{missing}"],
        ["evaluate", "--pattern", "sharp_drop", "--n", "1", "--duration", "60"],
        ["evaluate", "--corpus", "{corpus}"],
        ["sweep", "--corpus", "{corpus}", "--bootstrap", "0"],
    ],
    ids=" ".join,
)
def test_negative_seed_is_refused_by_the_number_rule(bad_inputs, capsys, argv):
    paths = {**bad_inputs, "corpus": os.path.dirname(bad_inputs["csv"])}
    assert main([arg.format(**paths) for arg in argv] + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be an integer in [0, inf), got -1" in err
    assert not os.path.exists(paths["missing"])


# Flags whose cost grows without bound; each must exit 2 before any
# distance is computed.
UNBOUNDED_COST = [
    (["detect", "{csv}", "--depth", "9"], "depth"),
    (["detect", "{csv}", "--depth", str(2**70)], "depth"),
    (["sweep", "--pattern", "sharp_drop", "--depths", "3,9"], "depth"),
    (["sweep", "--pattern", "sharp_drop", "--bootstrap", "-1"], "n_boot"),
    (["sweep", "--pattern", "sharp_drop", "--bootstrap", "10001"], "n_boot"),
]


@pytest.mark.parametrize("argv,name", UNBOUNDED_COST, ids=[" ".join(a) for a, _ in UNBOUNDED_COST])
def test_unbounded_cost_exits_2_before_any_distance(bad_inputs, capsys, monkeypatch, argv, name):
    def no_distances(*args, **kwargs):
        raise AssertionError("a distance series was computed")

    monkeypatch.setattr(detector, "distance_series", no_distances)
    monkeypatch.setattr(evaluation, "_pooled_distances", no_distances)
    assert main([arg.format(**bad_inputs) for arg in argv]) == 2
    assert name in capsys.readouterr().err
