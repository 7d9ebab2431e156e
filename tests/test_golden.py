"""Golden bytes of the CLI on the c12 fixture.

Every output file of a fixed set of commands is compared byte for byte
against the copy kept in ``tests/golden/``.  Re-record only when an
output change is intended, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

from sigfatigue.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
METHODS = ("signature", "ma_crossover", "cusum", "rolling_regression")
SUBCOMMANDS = ("generate", "detect", "wastage", "evaluate", "sweep")


def write_outputs(out: Path) -> None:
    """Run the fixture commands, writing every output file under ``out``."""
    gen = out / "gen"
    csv = str(gen / "sharp_drop_0000.csv")
    commands = [
        ["generate", "--pattern", "sharp_drop", "--n", "3", "--seed", "42",
         "--duration", "120", "--out", str(gen)],
        ["detect", csv, "--k", "1.5", "--out", str(out / "detect.json"),
         "--plot", str(out / "detect.svg")],
        ["detect", csv, "--k", "1.5", "--feature-mode", "log",
         "--out", str(out / "detect_log.json"), "--plot", str(out / "detect_log.svg")],
        ["wastage", csv, "--cpc", "1.25", "--out", str(out / "wastage.json"),
         "--daily-csv", str(out / "wastage_daily.csv")],
        *(
            ["evaluate", "--corpus", str(gen), "--method", method,
             "--out", str(out / f"evaluate_{method}.json")]
            for method in METHODS
        ),
        ["sweep", "--corpus", str(gen), "--bootstrap", "10",
         "--out", str(out / "sweep.json"), "--csv", str(out / "sweep.csv")],
    ]
    for argv in commands:
        assert cli_main(argv) == 0, argv
    write_help(out / "help")


def write_help(out: Path) -> None:
    """Write the ``--help`` text of the parser and each subcommand, 80 columns wide.

    The layout is argparse's as of Python 3.11, which recorded the copies;
    other versions word and wrap help differently.
    """
    out.mkdir()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for name, argv in [("sigfatigue", []), *((c, [c]) for c in SUBCOMMANDS)]:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                try:
                    cli_main([*argv, "--help"])
                except SystemExit as exc:
                    assert exc.code == 0, argv
            (out / f"{name}.txt").write_text(text.getvalue(), encoding="utf-8")
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def _files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_cli_outputs_match_golden_bytes(tmp_path):
    write_outputs(tmp_path)
    assert _files(tmp_path) == _files(GOLDEN)
    for name in _files(GOLDEN):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    write_outputs(GOLDEN)
    print(f"recorded {len(_files(GOLDEN))} files in {GOLDEN}", file=sys.stderr)
