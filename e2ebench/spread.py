#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs run.py once per seed for each workload (untraced) and prints, per
metric, the median of the runs and the distance between their first and
third quartiles as a share of the median: the figure BENCHMARK.json's
bounds are judged against. Run from the root of a checkout:

    python3 e2ebench/spread.py --runs 10 --first-seed 1 \
        --workloads alexnet_structure conv1_weights_accel

Summaries are also written to .bench_out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = p.parse_args()

    runner = Path(__file__).resolve().parent / "run.py"
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for w in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = subprocess.run(
                [sys.executable, str(runner), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if r.returncode != 0:
                print(f"{w} seed {seed}: run.py exited {r.returncode}")
                return 1
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} of "
                      f"{res['attempted']} attacks failed")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        summary = {}
        print(f"{w} ({args.runs} runs)")
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            summary[k] = {"median": med, "spread": spread, "values": vs}
            share = spread / bounds[k] if bounds.get(k) else 0.0
            if k != "setup_s":
                worst = max(worst, share)
            print(f"  {k:16s} median {med:12.6g}  spread {100 * spread:6.2f}%"
                  f"  = {share:4.2f} of bound {bounds.get(k)}")
        (out_dir / f"spread-{w}.json").write_text(json.dumps(summary))
    print(f"largest spread/bound outside setup_s: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
