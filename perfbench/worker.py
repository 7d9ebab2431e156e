"""One benchmark process: set a workload up, then time its operations.

Started by run.py, never by hand.  On stdout it writes ``ready <clock>``
once set-up (imports, inputs, one warm-up operation) is done, then -- unless
``--setup-only`` -- one JSON line with the raw measurements:

    {"latencies_s": [...], "traced": [...], "failures": [...],
     "peak_rss_kb": int, "layers": {...} | null, "variant": int}

Operations run in whole cycles of the workload, so every kind of
operation is equally represented.  With ``--trace 1`` cycles alternate
between untraced and traced; the traced ones give the per-layer metrics,
and both halves together give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time

import reference
import tracing
from run import RUN_DIR, monotonic
from workloads import N_VARIANTS, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    variant = args.seed % N_VARIANTS
    expected = reference.load(wl.name)[variant]
    workdir = RUN_DIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl.load()
        if tracer and wl.in_process:
            tracer.install()
        state = wl.setup(variant, workdir)
        if tracer and wl.in_process:
            tracer.uninstall()
        # the warm-up takes the traced path when tracing, so that path is warm too
        warm_trace = workdir / "warmup-spans.json" if tracer and not wl.in_process else None
        wl.run(state, 0, warm_trace)
        print(f"ready {monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, state, expected, tracer, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.write_spans(RUN_DIR / f"spans-{wl.name}.csv")
    print(json.dumps(result), flush=True)
    return 0


def measure(wl, state, expected, tracer, workdir, args) -> dict:
    cycle = len(wl.cycle)
    latencies, traced_flags, failures = [], [], []
    deadline = time.perf_counter() + args.seconds
    cycles = 0
    while True:
        traced = tracer is not None and cycles % 2 == 1
        for i in range(cycle):
            op_id = len(latencies)
            trace_path = None
            if traced:
                tracer.begin_op(op_id)
                if wl.in_process:
                    tracer.install()
                else:
                    trace_path = workdir / f"spans-{op_id}.json"
            error = None
            started = time.perf_counter()
            try:
                out = wl.run(state, i, trace_path)
            except Exception as exc:  # any failure counts against error_rate
                error = f"op {op_id}: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - started)
            traced_flags.append(traced)
            if traced and wl.in_process:
                tracer.uninstall()
            elif trace_path is not None and trace_path.exists():
                tracer.merge(trace_path, op_id)
            if error is None:
                try:
                    mismatches = reference.compare(wl.observe(state, i, out), expected[i])
                except Exception as exc:  # unreadable output is a failed op
                    mismatches = [f"{type(exc).__name__}: {exc}"]
                if mismatches:
                    error = f"op {op_id}: " + "; ".join(mismatches[:3])
            if error is not None:
                failures.append(error)
        cycles += 1
        needed = 2 if tracer else 1
        if args.smoke:
            if cycles >= needed:
                break
        elif time.perf_counter() >= deadline and cycles % needed == 0:
            break
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    layers = None
    if tracer:
        tracer.finish()
        layers = tracing.layer_metrics(tracer, sum(traced_flags))
    return {
        "latencies_s": latencies,
        "traced": traced_flags,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "layers": layers,
        "variant": state["variant"],
    }


if __name__ == "__main__":
    raise SystemExit(main())
