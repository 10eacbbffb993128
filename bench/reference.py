#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it.

    python3 bench/reference.py --workloads recurring,novel,stationary \\
        --seeds 0-9 --seconds 30 --trace both

Runs ``bench/run.py`` once per (workload, seed, trace mode), one run at a
time, and prints for every metric the median over the seeds, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median. With ``--trace both`` it also prints
the tracing overhead: the median of each end-to-end metric in the traced
runs against the untraced runs. The full table is written to
``bench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    if trace:
        traced = json.loads((OUT_DIR / f"{workload}.traced.json").read_text())
        result["traced_end_to_end"] = traced["end_to_end"]
    return result


def spread(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(runs) -> dict:
    names = runs[0]["metrics"]
    table = {name: spread([r["metrics"][name]["value"] for r in runs])
             for name in names}
    table["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
    table["correct"] = all(r["correct"] for r in runs)
    table["wall_s_max"] = max(r["wall_s"] for r in runs)
    return table


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="recurring,novel,stationary")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    seeds = parse_seeds(args.seeds)

    report = {"environment": environment(), "seconds": args.seconds,
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = report["workloads"][workload] = {}
        # alternate the modes seed by seed, so a slow spell of the
        # machine does not land on one mode only
        runs = {mode: [] for mode in modes}
        for seed in seeds:
            for mode in modes:
                done = run_once(workload, seed, args.seconds, mode)
                runs[mode].append(done)
                values = " ".join(f"{name}={m['value']:.5g}" for name, m
                                  in done["metrics"].items())
                print(f"{workload} trace {mode} seed {seed} "
                      f"({done['wall_s']:.1f}s): {values}", flush=True)
        for mode in modes:
            entry["traced" if mode else "untraced"] = summarize(runs[mode])
        if 1 in runs:
            entry["traced_end_to_end"] = {
                name: statistics.median(r["traced_end_to_end"][name]
                                        for r in runs[1])
                for name in runs[1][0]["traced_end_to_end"]}
        if len(modes) == 2:
            entry["overhead"] = {
                name: traced / entry["untraced"][name]["median"] - 1.0
                for name, traced in entry["traced_end_to_end"].items()}
        for mode, table in entry.items():
            print(f"== {workload} {mode}")
            for name, row in table.items():
                if isinstance(row, dict) and "median" in row:
                    print(f"  {name:34s} median {row['median']:.6g}  "
                          f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                          f"spread {row['spread']:.4f}")
                elif isinstance(row, float):
                    print(f"  {name:34s} {row:+.6g}")
                else:
                    print(f"  {name:34s} {row}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "reference.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
