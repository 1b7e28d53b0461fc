#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: for each workload, run the
benchmark once per seed and report each metric's median and its
interquartile distance (from statistics.quantiles(values, n=4)) as a share
of the median, next to a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads train_hot,...]
                                [--seconds N] [--trace 0|1]

Exits non-zero when a run fails or a spread (setup_s aside) exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: metric, median, IQR/median, bound/3")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {m['name']:<32} {med:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else f'{bound / 3:8.4f}'}{flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
