#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/spread.py --seeds 10 --out bench/baseline.json
    python3 bench/spread.py --seeds 2 --trace 1 --workload closed_loop

Runs happen one after another, workload by workload.  For every metric the
report gives the values, their median and the quartile spread
(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(n=4)``,
next to the metric's bound in BENCHMARK.json.  ``--out`` also writes the
medians and quartiles, with the machine they were measured on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    import numpy
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cores": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=180)
    if res.returncode != 0:
        raise SystemExit(f"spread: {' '.join(cmd)} failed:\n{res.stderr}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"spread: {workload} seed {seed} failed its checks:\n"
                         f"{res.stdout}")
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]],
                    help="repeatable; default all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in SPEC[kind]}
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {"machine": machine(), "seconds": args.seconds,
              "trace": args.trace, "seeds": list(seeds), "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        table = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            table[name] = summarize(values)
            row = table[name]
            bound = "" if bounds[name] is None else f" (bound {bounds[name]})"
            print(f"{workload:<17} {name:<40} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}{bound} values "
                  + " ".join(f"{v:.6g}" for v in values), flush=True)
        table["attempted"] = sum(r["attempted"] for r in runs)
        table["failed"] = sum(r["failed"] for r in runs)
        report["workloads"][workload] = table
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
