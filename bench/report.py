#!/usr/bin/env python3
"""Run every workload over several seeds and summarize, with the environment.

    python3 bench/report.py --out bench/results/BENCH_1.json

Each run is ``bench/run.py`` in a fresh interpreter, one at a time, with
seeds 1..SEEDS on every workload in ``BENCHMARK.json``. For each workload
and end-to-end metric it prints the median over seeds and the spread, the
distance between the first and third quartiles as a share of the median,
next to the metric's bound from ``BENCHMARK.json``; a spread under a third
of the bound is marked steady. One traced run per workload adds the
per-layer metrics. With ``--out`` the numbers and the machine they came
from are written as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 10


def environment() -> dict:
    import run  # loads numpy the way a benchmark run does, with its BLAS settings

    run.import_package()
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "commit": git_commit(),
    }


def blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle; None if not found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = list(range(1, SEEDS + 1))
    summary = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, name, seed, seconds, 0) for seed in seeds]
        entry = {"end_to_end": {}, "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results)}
        print(f"{name}: {len(seeds)} runs, failed {entry['failed']}/{entry['attempted']}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median, q1, q3, share = spread(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": share,
                "values": values,
            }
            flag = "steady" if share < metric["bound"] / 3 else "wide"
            print(f"  {metric['name']:<16} {median:>12.6g} {metric['unit']:<6} spread {share:7.2%}"
                  f" (bound {metric['bound']:.0%}) {flag}  [{' '.join(f'{v:.4g}' for v in values)}]")
        traced = run_once(spec, name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for metric in spec["per_layer"]:
            print(f"  {metric['name']:<40} {entry['per_layer'][metric['name']]:>14.6g}"
                  f" {metric['unit']}")
        summary["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
