#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0

Builds the driver from source (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build) under the checkout root, runs one workload, checks its
outputs, and prints the record. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Exits non-zero when any check fails.
See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 160
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    cache = out / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail(f"refusing to measure a '{build_type}' build; "
             f"want one of {', '.join(OPTIMIZED_BUILD_TYPES)}", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if not (ROOT / "src").is_dir():
        fail("casched sources (src/) not found; run from a full checkout")

    try:
        driver = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail(f"driver exited with {proc.returncode} and no record", proc.returncode or 2)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    failures = list(record["failures"])
    metrics = {}
    for metric in wanted:
        value = record["metrics"].get(metric["name"])
        if value is None or not math.isfinite(value):
            failures.append(f"metric {metric['name']} missing or not finite")
            continue
        if not args.trace and value <= 0:
            failures.append(f"end-to-end metric {metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print("record: " + json.dumps({k: record[k] for k in
                                   ("workload", "seed", "trace", "context", "digest",
                                    "failures")}))
    correct = not failures and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
