"""Reference outputs of every workload, and the check of an observation
against them.

The files in ``reference/`` hold, for each workload and input variant,
the observation of every operation in one cycle, recorded by running this
module on the commit that introduced the benchmark:

    python3 perfbench/reference.py

Tolerances: ``exact`` values must be equal, ``distances`` equal within
1e-12 element by element, ``approx`` values within 1e-9 relative.
Distance vectors are stored as base64 of little-endian float64, so the
recorded values are exact.
"""

from __future__ import annotations

import base64
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

DIR = Path(__file__).resolve().parent / "reference"
DISTANCE_ATOL = 1e-12
APPROX_RTOL = 1e-9


def _encode(obs: dict) -> dict:
    distances = {
        k: base64.b64encode(np.asarray(v, dtype="<f8").tobytes()).decode("ascii")
        for k, v in obs["distances"].items()
    }
    return {"exact": obs["exact"], "distances": distances, "approx": obs["approx"]}


def _decode(obs: dict) -> dict:
    distances = {
        k: np.frombuffer(base64.b64decode(v), dtype="<f8") for k, v in obs["distances"].items()
    }
    return {"exact": obs["exact"], "distances": distances, "approx": obs["approx"]}


def load(workload: str) -> dict:
    """{variant: [observation of cycle op 0, op 1, ...]} for one workload."""
    data = json.loads((DIR / f"{workload}.json").read_text(encoding="utf-8"))
    return {int(v): [_decode(o) for o in ops] for v, ops in data["variants"].items()}


def compare(obs: dict, ref: dict) -> list:
    """Human-readable mismatches of ``obs`` against ``ref``; empty if equal."""
    out = []
    for part in ("exact", "distances", "approx"):
        missing = sorted(set(ref[part]) ^ set(obs[part]))
        if missing:
            out.append(f"{part}: keys differ: {missing}")
    for key, want in ref["exact"].items():
        got = obs["exact"].get(key)
        if got != want:
            out.append(f"{key}: {got!r} != {want!r}")
    for key, want in ref["distances"].items():
        got = np.asarray(obs["distances"].get(key, ()), dtype=float)
        if got.shape != want.shape:
            out.append(f"{key}: {got.size} values, expected {want.size}")
        elif not np.all(np.abs(got - want) <= DISTANCE_ATOL):
            worst = float(np.max(np.abs(got - want)))
            out.append(f"{key}: max deviation {worst:.3g} > {DISTANCE_ATOL}")
    for key, want in ref["approx"].items():
        got = obs["approx"].get(key)
        if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=APPROX_RTOL):
            out.append(f"{key}: {got!r} != {want!r} (rel {APPROX_RTOL})")
    return out


def record() -> None:
    """Run one cycle of every workload on every variant and save it."""
    from run import ROOT, RUN_DIR, bench_env

    os.environ.update(bench_env())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import N_VARIANTS, WORKLOADS

    DIR.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        wl.load()
        variants = {}
        for variant in range(N_VARIANTS):
            workdir = RUN_DIR / f"record-{name}-{variant}"
            workdir.mkdir(parents=True, exist_ok=True)
            state = wl.setup(variant, workdir)
            variants[str(variant)] = [
                _encode(wl.observe(state, i, wl.run(state, i))) for i in range(len(wl.cycle))
            ]
            shutil.rmtree(workdir)
        text = json.dumps({"variants": variants}, indent=1, sort_keys=True)
        (DIR / f"{name}.json").write_text(text + "\n", encoding="utf-8")
        print(f"recorded {name}: {N_VARIANTS} variants x {len(wl.cycle)} ops")


if __name__ == "__main__":
    record()
