#!/usr/bin/env python3
"""End-to-end attack benchmark driver.

Builds the attack_bench program from the checkout's sources (first run
only; later runs find the build up to date), runs one workload in one
process and prints its result. Run it from the root of a checkout:

    python3 e2ebench/run.py --workload alexnet_structure --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones from a separately traced run. Build
files go to .bench_build/ and scratch files, span timelines and reports to
.bench_out/, both inside the checkout. See e2ebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("alexnet_structure", "conv1_weights_accel",
             "convnet_campaign_os", "lenet_defense_matrix")
# A run measures --seconds plus set-up and its last attack; anything past
# this is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, jobs):
    """Configures (once) and builds attack_bench; returns its path."""
    bench_dir = Path(__file__).resolve().parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root / 'src'}; run from the root "
             "of a full checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "attack_bench", "-j", str(jobs)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    exe = build_dir / "attack_bench"
    if not exe.is_file():
        fail("build produced no attack_bench")
    return exe


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path.cwd()
    threads = max(1, min(4, os.cpu_count() or 1))
    exe = build(root, root / ".bench_build" / "e2ebench", threads)

    out_dir = root / ".bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Knobs the library reads from the environment; the benchmark fixes
    # them itself (thread count here, dataflow and metrics in the program).
    for var in ("SC_METRICS", "SC_DATAFLOW", "SC_THREADS"):
        env.pop(var, None)
    env["SC_THREADS"] = str(threads)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"attack_bench exited {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"malformed result line: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")

    for line in lines[:-1]:
        print(line)
    if args.trace == 1:
        report_overhead(out_dir, args, result)
    print(lines[-1])


def report_overhead(out_dir, args, traced):
    """Tracing overhead: traced vs untraced attack p50 of the same seed."""
    untraced = (out_dir / f"report-{args.workload}-seed{args.seed}"
                f"-trace0.json")
    if not untraced.is_file():
        print("tracing overhead: no untraced run of this seed to compare")
        return
    base = json.loads(untraced.read_text())["end_to_end"]["attack_p50_s"]
    with_spans = traced["metrics"]["trace.attack_p50_s"]["value"]
    if base > 0:
        print(f"tracing overhead: attack p50 {with_spans:.6g} s traced vs "
              f"{base:.6g} s untraced ({100 * (with_spans / base - 1):+.2f}%)")


if __name__ == "__main__":
    main()
