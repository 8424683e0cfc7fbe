#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, checks the outcome
and prints the result as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload fig11-grid --seed 42 --seconds 20 --trace 0

Run from the repository root. The program is built with cargo into
$CARGO_TARGET_DIR (default .bench_build). The metric names, units and
workloads are those of BENCHMARK.json; --trace 0 prints its end_to_end
metrics, --trace 1 its per_layer metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; the program gets what the build leaves.
RUN_LIMIT_S = 180


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"build failed ({build.returncode})")

    out_dir = os.path.join(target, "perfbench-out",
                           f"{args.workload}-{args.seed}-{args.trace}")
    metrics_path = os.path.join(out_dir, "metrics.json")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            timeout=RUN_LIMIT_S - 10,
        )
    except subprocess.TimeoutExpired:
        sys.exit("benchmark timed out")
    if run.returncode != 0:
        sys.exit(f"benchmark failed ({run.returncode})")

    with open(metrics_path) as f:
        registry = json.load(f)
    missing = [m["name"] for m in wanted if not isinstance(registry.get(m["name"]), (int, float))]
    if missing:
        sys.exit(f"metrics missing from the run: {missing}")
    metrics = {m["name"]: {"value": registry[m["name"]], "unit": m["unit"]} for m in wanted}
    sys.stdout.flush()
    print(json.dumps({
        "correct": registry["bench.correct"] == 1,
        "attempted": registry["bench.attempted"],
        "failed": registry["bench.failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
