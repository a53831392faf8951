#!/usr/bin/env python3
"""Perf regression gate: compare a bench_suite perf record against a stored
baseline and fail beyond a tolerance band.

Raw events/sec depends on the machine, so the comparison is made
machine-independent first: every scenario's events/sec is normalized by the
*median* throughput of its own record, and the gate compares these normalized
shapes. A scenario whose normalized throughput drifts outside
[1 - tolerance, 1 + tolerance] x baseline fails the gate - that is, a
scenario that got slower (or suspiciously faster) *relative to the rest of
the suite*.

When $GITHUB_STEP_SUMMARY is set (any GitHub Actions step), the comparison is
also appended there as a Markdown table (scenario, baseline, current, delta %)
so every CI leg shows its perf picture without digging through logs.

The gate can additionally check the observability layer's compiled-in cost:
--overhead takes a google-benchmark JSON file containing the
BM_ObsOverheadBare / BM_ObsOverheadInstrumented pair (bench/micro_scheduler)
and fails when the instrumented decision loop is more than --max-overhead
slower than the bare one.

--min-speedup guards the scheduling-core rebuild against backsliding: the
baseline's "pre_rebuild" section archives the pre-rebuild decision latency
and per-scenario throughput, and the gate fails unless the current
BM_ScheduleDecision median (from --micro) is at least --min-speedup times
faster AND every archived scenario's events/sec still beats its pre-rebuild
value. Both comparisons are corrected for machine speed through the
BM_CalibrationAnchor pair (a fixed arithmetic kernel timed on both sides),
so a slower CI box is not mistaken for a regression. --update rewrites the
per-scenario shape but always carries the pre_rebuild archive forward.

Usage:
    perf_gate.py CURRENT_JSON BASELINE_JSON [--tolerance 0.25]
    perf_gate.py CURRENT_JSON BASELINE_JSON --overhead micro.json
    perf_gate.py CURRENT_JSON BASELINE_JSON --micro micro.json --min-speedup 5
    perf_gate.py CURRENT_JSON BASELINE_JSON --update   # rewrite the baseline

Only the Python standard library is used.
"""

import argparse
import json
import os
import sys


def load_scenarios(path):
    with open(path) as f:
        record = json.load(f)
    scenarios = {}
    for entry in record.get("scenarios", []):
        eps = float(entry.get("events_per_second", 0.0))
        if eps > 0.0:
            scenarios[entry["name"]] = eps
    if not scenarios:
        sys.exit(f"perf gate: no usable scenarios in {path}")
    return scenarios


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def normalize(scenarios):
    med = median(list(scenarios.values()))
    return {name: eps / med for name, eps in scenarios.items()}, med


def load_micro(path, names):
    """Returns {name: real_time_ns} for the named micro benchmarks.

    Prefers the _median aggregate (present with --benchmark_repetitions);
    falls back to the plain benchmark entry of a single run.
    """
    with open(path) as f:
        record = json.load(f)
    times = {}
    for bench in record.get("benchmarks", []):
        name = bench.get("name", "")
        for base in names:
            if name == base + "_median" or (name == base and base not in times):
                times[base] = float(bench["real_time"])
    return times


def load_overhead(path):
    """Returns (bare_ns, instrumented_ns) from a google-benchmark JSON file."""
    times = load_micro(path, ("BM_ObsOverheadBare", "BM_ObsOverheadInstrumented"))
    bare = times.get("BM_ObsOverheadBare")
    instrumented = times.get("BM_ObsOverheadInstrumented")
    if bare is None or instrumented is None:
        sys.exit(f"perf gate: overhead pair missing from {path} "
                 "(run micro_scheduler with --benchmark_filter=BM_ObsOverhead)")
    return bare, instrumented


def check_overhead(path, max_overhead):
    """Returns (summary_line, failed) for the instrumentation overhead pair."""
    bare, instrumented = load_overhead(path)
    overhead = instrumented / bare - 1.0
    failed = overhead > max_overhead
    line = ("instrumentation overhead: bare {:.1f}ns, instrumented {:.1f}ns, "
            "+{:.2%} (budget {:.0%}){}".format(
                bare, instrumented, overhead, max_overhead,
                " << FAIL" if failed else ""))
    print(f"perf gate: {line}")
    return overhead, failed


def load_baseline_doc(path):
    with open(path) as f:
        return json.load(f)


def check_speedup(baseline_doc, micro_path, min_speedup, current, baseline_path):
    """Compares the current run against the archived pre-rebuild record.

    Returns (speedup_rows, failed). Each row is
    (label, pre_value, current_value, speedup, over_budget) with times for the
    micro row and events/sec for scenario rows; every comparison is scaled by
    the calibration-anchor ratio so it holds across machines of different
    speeds.
    """
    pre = baseline_doc.get("pre_rebuild")
    if pre is None:
        sys.exit(f"perf gate: {baseline_path} has no pre_rebuild section; "
                 "--min-speedup needs the archived pre-rebuild record")
    times = load_micro(micro_path, ("BM_ScheduleDecision", "BM_CalibrationAnchor"))
    decision = times.get("BM_ScheduleDecision")
    anchor = times.get("BM_CalibrationAnchor")
    if decision is None or anchor is None:
        sys.exit(f"perf gate: {micro_path} lacks BM_ScheduleDecision / "
                 "BM_CalibrationAnchor (run micro_scheduler with "
                 "--benchmark_filter='BM_ScheduleDecision|BM_CalibrationAnchor')")

    # machine > 1 means this box is slower than the one that recorded the
    # archive; pre-rebuild times are scaled up (and throughputs down) to what
    # they would have measured here.
    machine = anchor / float(pre["anchor_ns"])
    rows = []
    failed = False

    pre_decision_here = float(pre["decision_ns"]) * machine
    speedup = pre_decision_here / decision
    over = speedup < min_speedup
    failed = failed or over
    rows.append(("BM_ScheduleDecision (ns)", pre_decision_here, decision,
                 speedup, over))
    print("perf gate: decision latency {:.0f}ns vs pre-rebuild {:.0f}ns "
          "(anchor-corrected) = {:.2f}x speedup (need >= {:.2f}x){}".format(
              decision, pre_decision_here, speedup, min_speedup,
              "  << FAIL" if over else ""))

    for name in sorted(pre.get("scenarios", {})):
        pre_eps_here = float(pre["scenarios"][name]) / machine
        cur_eps = current.get(name)
        if cur_eps is None:
            print(f"perf gate: pre_rebuild scenario '{name}' missing from "
                  "current record  << FAIL")
            rows.append((name, pre_eps_here, 0.0, 0.0, True))
            failed = True
            continue
        ratio = cur_eps / pre_eps_here
        over = ratio < 1.0
        failed = failed or over
        rows.append((name, pre_eps_here, cur_eps, ratio, over))
        print("{:<28} {:>12,.0f} ev/s vs pre {:>12,.0f} = {:.2f}x{}".format(
            name, cur_eps, pre_eps_here, ratio, "  << FAIL" if over else ""))
    return rows, failed


def write_step_summary(rows, unbaselined, missing, tolerance, failed,
                       overhead=None, overhead_failed=False, max_overhead=0.0,
                       speedup_rows=None, min_speedup=0.0):
    """Appends a Markdown comparison table to $GITHUB_STEP_SUMMARY, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Perf gate ({}, tolerance ±{:.0%})".format(
            "FAIL" if failed else "PASS", tolerance),
        "",
        "| scenario | baseline (norm) | current (norm) | delta % | |",
        "|---|---:|---:|---:|---|",
    ]
    for name, base_norm, cur_norm, ratio, over in rows:
        lines.append("| {} | {:.3f} | {:.3f} | {:+.1f}% | {} |".format(
            name, base_norm, cur_norm, (ratio - 1.0) * 100.0,
            ":x:" if over else ""))
    for name in unbaselined:
        lines.append(f"| {name} | - | NEW | - | :x: |")
    for name in missing:
        lines.append(f"| {name} | MISSING | - | - | :x: |")
    if overhead is not None:
        lines.append("| obs instrumentation overhead | ≤{:.0%} | {:+.2%} | | {} |".format(
            max_overhead, overhead, ":x:" if overhead_failed else ""))
    if speedup_rows:
        lines += [
            "",
            "### Scheduling-core speedup vs pre-rebuild "
            "(anchor-corrected, decision needs ≥{:.1f}×)".format(min_speedup),
            "",
            "| benchmark | pre-rebuild | current | speedup | |",
            "|---|---:|---:|---:|---|",
        ]
        for name, pre_val, cur_val, speedup, over in speedup_rows:
            lines.append("| {} | {:,.0f} | {:,.0f} | {:.2f}× | {} |".format(
                name, pre_val, cur_val, speedup, ":x:" if over else ""))
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="suite_perf.json from this run")
    parser.add_argument("baseline", help="stored baseline (bench/perf_baseline.json)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative drift of normalized throughput")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current record and exit")
    parser.add_argument("--overhead",
                        help="google-benchmark JSON with the BM_ObsOverhead pair")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="allowed instrumented/bare slowdown (default 5%%)")
    parser.add_argument("--micro",
                        help="google-benchmark JSON with BM_ScheduleDecision and "
                             "BM_CalibrationAnchor (for --min-speedup)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="required BM_ScheduleDecision speedup over the "
                             "baseline's pre_rebuild archive (0 disables)")
    args = parser.parse_args()

    current = load_scenarios(args.current)

    if args.update:
        normalized, med = normalize(current)
        doc = {
            "comment": "Normalized per-scenario throughput baseline for "
                       "tools/perf_gate.py. Regenerate with --update after "
                       "intentional perf changes.",
            "median_events_per_second_when_recorded": med,
            "scenarios": [
                {"name": name, "events_per_second": current[name],
                 "normalized": normalized[name]}
                for name in sorted(current)
            ],
        }
        # The pre_rebuild archive is a historical record (the scheduling core
        # before the zero-alloc rebuild); --update must never erase it.
        try:
            previous = load_baseline_doc(args.baseline)
        except (OSError, ValueError):
            previous = {}
        if "pre_rebuild" in previous:
            doc["pre_rebuild"] = previous["pre_rebuild"]
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"perf gate: baseline rewritten with {len(current)} scenarios"
              + (" (pre_rebuild archive preserved)" if "pre_rebuild" in doc else ""))
        return 0

    baseline = load_scenarios(args.baseline)

    # Normalize BOTH records over the same scenario set (the intersection):
    # medians over different sets would shift every ratio whenever a scenario
    # is added or dropped, spuriously failing (or masking) unrelated drift.
    shared = sorted(set(current) & set(baseline))
    if not shared:
        sys.exit("perf gate: no scenarios in common with the baseline")
    cur_shared, _ = normalize({n: current[n] for n in shared})
    base_shared, _ = normalize({n: baseline[n] for n in shared})

    failures = []
    summary_rows = []
    print(f"perf gate: tolerance +/-{args.tolerance:.0%}, "
          f"{len(shared)} shared scenarios")
    print(f"{'scenario':<28} {'current':>12} {'norm':>7} {'base norm':>9} {'ratio':>7}")
    for name in shared:
        ratio = cur_shared[name] / base_shared[name]
        over = abs(ratio - 1.0) > args.tolerance
        flag = ""
        if over:
            flag = "  << FAIL"
            failures.append((name, ratio))
        summary_rows.append((name, base_shared[name], cur_shared[name], ratio, over))
        print(f"{name:<28} {current[name]:>12,.0f} {cur_shared[name]:>7.3f} "
              f"{base_shared[name]:>9.3f} {ratio:>7.3f}{flag}")

    unbaselined = sorted(set(current) - set(baseline))
    missing = sorted(set(baseline) - set(current))
    for name in unbaselined:
        print(f"{name:<28} {current[name]:>12,.0f}   NEW (not in baseline)")
    for name in missing:
        print(f"{name:<28}   MISSING from current record")

    overhead = None
    overhead_failed = False
    if args.overhead:
        overhead, overhead_failed = check_overhead(args.overhead, args.max_overhead)

    speedup_rows = None
    speedup_failed = False
    if args.min_speedup > 0.0:
        if not args.micro:
            sys.exit("perf gate: --min-speedup needs --micro (google-benchmark "
                     "JSON with BM_ScheduleDecision and BM_CalibrationAnchor)")
        speedup_rows, speedup_failed = check_speedup(
            load_baseline_doc(args.baseline), args.micro, args.min_speedup,
            current, args.baseline)

    # Absent scenarios are a hard error in both directions, never a skip: a
    # baseline entry missing from the run means coverage silently shrank
    # (e.g. a registry entry was dropped or renamed without touching the
    # baseline), and an unbaselined scenario means the gate is not guarding
    # the new entry yet.
    failed = bool(unbaselined or missing or failures or overhead_failed
                  or speedup_failed)
    write_step_summary(summary_rows, unbaselined, missing, args.tolerance, failed,
                       overhead, overhead_failed, args.max_overhead,
                       speedup_rows, args.min_speedup)
    if unbaselined:
        print(f"perf gate: FAIL - scenario(s) not in the baseline: "
              f"{', '.join(unbaselined)}; regenerate it with --update")
        return 1
    if missing:
        print(f"perf gate: FAIL - baseline scenario(s) absent from the current "
              f"run: {', '.join(missing)}; the suite no longer covers them")
        return 1
    if failures:
        drifts = ", ".join(f"{n} ({r:.2f}x)" for n, r in failures)
        print(f"perf gate: FAIL - normalized throughput drifted: {drifts}")
        return 1
    if overhead_failed:
        print(f"perf gate: FAIL - instrumentation overhead {overhead:+.2%} "
              f"exceeds the {args.max_overhead:.0%} budget")
        return 1
    if speedup_failed:
        print("perf gate: FAIL - scheduling core lost ground against the "
              "pre-rebuild archive (see rows above)")
        return 1
    print(f"perf gate: PASS ({len(shared)} scenarios within the band)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
