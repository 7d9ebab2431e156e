"""sigfatigue benchmark: one command for every workload, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory, and every file the run writes goes under
``.perfbench_run/`` in the checkout.  Workloads and why each exists are
described in ``workloads.py``; reference outputs in ``reference.py``.

Load model: one client in a closed loop.  Each operation starts when the
previous one has finished, inside one worker process (``worker.py``); the
``cli_oneshot`` worker starts one CLI process per operation.  At most two
processes besides this one exist at a time, and child processes run with
one BLAS/OpenMP thread.

Output: the last line of stdout is

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

and the line before it a JSON ``detail`` object with the machine (nproc,
CPU model, Python/numpy/scipy versions), the seed and input variant, the
tail percentile and sample count, ``error_rate`` and the first failures.

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s       median over SETUP_RUNS fresh processes of the time from
                  process start to ready: imports, inputs, one warm-up op
    op_p50_ms     median operation latency
    op_tail_ms    latency at the highest whole percentile with at least
                  10 samples beyond it (detail: op_tail_percentile,
                  op_samples); with fewer than 20 samples, the maximum
    ops_per_s     operations completed per second of operation time
    peak_rss_mb   peak RSS of the worker (in-process workloads) or of its
                  largest CLI child (cli_oneshot)

``error_rate`` -- failed over attempted operations -- is ``failed`` /
``attempted`` of the result and is also given in the detail line.  An
operation fails if it raises, exits non-zero or departs from the
reference.  The run exits 0 if every operation was correct, 1 if not,
and 2 without a result if it could not run at all.

With ``--trace 1`` the metrics are the per-layer ones listed in
``tracing.PER_LAYER``: span times and counts per traced operation, the
import cost of ``sigfatigue.cli`` (fresh interpreter minus a bare one)
and its scipy share from ``-X importtime``, and ``trace.overhead_ratio``,
traced over untraced operations per second.

``--smoke`` makes one set-up, one import probe and the fewest cycles
(one, or two when tracing) whatever ``--seconds`` says.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_RUNS = 3
IMPORT_PROBES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def bench_env() -> dict:
    """Environment of every child: the checkout's package, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(args, setup_only: bool, deadline: float):
    """Run worker.py; returns (seconds from start to ready, result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    started = monotonic()
    # own process group, so a timeout also stops a CLI child of the worker
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=bench_env(), cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("worker did not finish in time") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RunError(f"worker exited {proc.returncode} ({out.strip()[:200]!r})")
    # the worker stamps "ready" with the same system-wide monotonic clock
    ready_s = float(lines[0].split()[1]) - started
    return ready_s, None if setup_only else json.loads(lines[-1])


def _wall(argv: list) -> float:
    started = time.perf_counter()
    subprocess.run(argv, env=bench_env(), cwd=ROOT, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - started


def scipy_import_us(importtime_log: str) -> int:
    """Self time of every scipy module in an ``-X importtime`` log, in us."""
    total = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            total += int(parts[0].split(":")[1])
    return total


def import_probes(repeats: int) -> dict:
    """Cost of importing ``sigfatigue.cli`` in a fresh interpreter."""
    bare, loaded = [], []
    for _ in range(repeats):
        bare.append(_wall([sys.executable, "-c", "pass"]))
        loaded.append(_wall([sys.executable, "-c", "import sigfatigue.cli"]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sigfatigue.cli"],
        env=bench_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    )
    return {
        "cli.import_ms": (statistics.median(loaded) - statistics.median(bare)) * 1000,
        "cli.import_scipy_ms": scipy_import_us(proc.stderr) / 1000,
    }


def tail(latencies: list) -> tuple:
    """(percentile, value): highest whole percentile with >= 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    q = (100 * (n - 10)) // n
    rank = -(-q * n // 100)  # nearest rank, ceil(q * n / 100)
    return q, ordered[rank - 1]


def machine(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": args.seed,
    }


def run(args) -> tuple:
    if not (ROOT / "src" / "sigfatigue" / "__init__.py").is_file():
        raise RunError(f"no sigfatigue package under {ROOT / 'src'}")
    RUN_DIR.mkdir(exist_ok=True)
    deadline = monotonic() + RUN_LIMIT_S
    setups = []
    if not (args.trace or args.smoke):
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn_worker(args, True, deadline)[0])
    ready_s, raw = spawn_worker(args, False, deadline)
    setups.append(ready_s)

    latencies = raw["latencies_s"]
    plain = [t for t, traced in zip(latencies, raw["traced"]) if not traced]
    failed = len(raw["failures"])
    if args.trace:
        traced = [t for t, tr in zip(latencies, raw["traced"]) if tr]
        metrics = dict(raw["layers"])
        metrics.update(import_probes(1 if args.smoke else IMPORT_PROBES))
        metrics["trace.overhead_ratio"] = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        units = PER_LAYER
    else:
        q, tail_s = tail(plain)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(plain) * 1000,
            "op_tail_ms": tail_s * 1000,
            "ops_per_s": len(plain) / sum(plain),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        units = END_TO_END
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine(args),
        "input_variant": raw["variant"],
        "op_samples": len(plain),
        "error_rate": failed / len(latencies),
        "failures": raw["failures"][:5],
    }
    if args.trace:
        detail["traced_samples"] = len(latencies) - len(plain)
    else:
        detail.update(op_tail_percentile=q, setup_samples_s=setups)
    result = {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("cli_oneshot", "long_history", "corpus_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fewest set-ups, probes and cycles")
    args = parser.parse_args()
    try:
        detail, result = run(args)
    except (RunError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
