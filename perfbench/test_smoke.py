"""Smoke test of the benchmark in its fast mode.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced, checks that each
metric named in BENCHMARK.json is printed with its unit, that a perturbed
reference output turns into failed operations, and that the benchmark
refuses to run without the package.
"""

import base64
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def checkout(tmp_path: Path, with_package: bool) -> Path:
    """A copy of the files the benchmark runs from, as a fresh checkout has them."""
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, root / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_package:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_perturbed_reference_makes_error_rate_nonzero(tmp_path):
    root = checkout(tmp_path, with_package=True)
    ref = root / "perfbench" / "reference" / "long_history.json"
    data = json.loads(ref.read_text(encoding="utf-8"))
    for ops in data["variants"].values():
        for op in ops:
            raw = bytearray(base64.b64decode(op["distances"]["distances"]))
            # move the first distance by 1e-11, ten times the tolerance
            (first,) = struct.unpack_from("<d", raw)
            struct.pack_into("<d", raw, 0, first + 1e-11)
            op["distances"]["distances"] = base64.b64encode(bytes(raw)).decode("ascii")
    ref.write_text(json.dumps(data), encoding="utf-8")

    proc = run(root, "long_history", 0)
    assert proc.returncode == 1, proc.stderr
    detail, result = parse(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert detail["error_rate"] == 1.0
    assert "distances: max deviation" in detail["failures"][0]


def test_refuses_to_run_without_the_package(tmp_path):
    proc = run(checkout(tmp_path, with_package=False), "long_history", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
