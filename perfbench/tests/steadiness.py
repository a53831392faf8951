#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs two sets of runs of the same code on every workload, ten runs per set,
each run with another seed (1-10 in the first set, 11-20 in the second), and
reports every end-to-end metric's median and quartiles per workload and set.
It fails (exit 1) when

  * a metric's spread - the distance between its first and third quartile
    over one set, as a share of the set's median - exceeds the metric's bound
    in BENCHMARK.json, or
  * a metric's second-set median is worse than the first-set median by more
    than the bound, or
  * any run is not correct.

    python3 perfbench/tests/steadiness.py                        # every workload
    python3 perfbench/tests/steadiness.py --workloads live-agent

Run from the checkout root. Statistics follow Python's
statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUNS_PER_SET = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """Relative worsening of the second median against the first."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for i in range(RUNS_PER_SET):
                seed = 1 + s * RUNS_PER_SET + i
                result = run_once(workload, seed, spec["run_seconds"])
                if result is None or not result["correct"]:
                    print(f"FAIL {workload} set {s + 1} seed {seed}: run not correct", flush=True)
                    ok = False
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for s, values in enumerate(sets):
                if len(values[name]) < 2:
                    continue
                q1, med, q3, rel = spread(values[name])
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": rel})
                if rel > bound:
                    print(f"FAIL {workload} {name} set {s + 1}: spread {rel:.4f} > {bound}",
                          flush=True)
                    ok = False
            if len(rows) == 2:
                drift = worse_by(rows[0]["median"], rows[1]["median"], metric["better"])
                if drift > bound:
                    print(f"FAIL {workload} {name}: second median worse by {drift:.4f} "
                          f"> {bound}", flush=True)
                    ok = False
            summary[workload][name] = rows
            line = "  ".join(f"set{s + 1}: med {r['median']:.6g} q1 {r['q1']:.6g} "
                             f"q3 {r['q3']:.6g} spread {r['spread']:.4f}"
                             for s, r in enumerate(rows))
            print(f"{workload:14s} {name:26s} bound {bound:<5} {line}", flush=True)
    print(json.dumps({"ok": ok, "summary": summary}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
