"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/seeds.py --seeds 1-10 [--out FILE]

It runs every workload for BENCHMARK.json's run_seconds.  For each
workload and metric it prints the median over seeds, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread:
the distance between the quartiles as a share of the median, next to a
third of the metric's bound in BENCHMARK.json, which a steady benchmark
stays under.  ``--out`` also writes the figures, with the machine and
library versions, as JSON (``baseline.json`` holds one such file).
It stops at the first run with a failed iteration, so every figure it
prints comes from runs whose error_rate is 0.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary: dict = {}
    for name in run.workloads.NAMES:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} failed iterations")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary[name] = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": vs}
            print(f"{name:8s} {metric:18s} median {median:<12.6g} quartiles "
                  f"{q1:.6g}..{q3:.6g}  spread {spread:.4f} (bound/3 {bounds[metric] / 3:.4f})",
                  flush=True)
    if args.out:
        doc = {
            "machine": machine(),
            "note": "times in seconds at run.py's reference host speed; raw host time drifts",
            "seconds": seconds,
            "seeds": seeds,
            "workloads": summary,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
