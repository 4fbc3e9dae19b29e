#!/usr/bin/env python3
"""Runs two sets of benchmark runs of one checkout and checks they agree.

    python3 perfbench/compare.py [--runs 10] [--workload <name> ...]

Run from the root of a retrace checkout. Each of the two sets runs
every workload `--runs` times, each run with its own `--seed` (set 1
uses seeds 1..runs, set 2 the next `runs` seeds), using the command
and run length from BENCHMARK.json. The sets are interleaved (per
workload: set 1 run i, then set 2 run i), so a slow phase of the host
falls on both sets alike. For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (the distance
between the quartiles as a share of the median) and whether

  - each set's spread is within the metric's bound (setup_s exempt),
  - the two medians differ by at most the bound, in either direction
    (the larger median over the smaller, minus 1),
  - the share of failed operations is the same in both sets.

Raw results go to .bench_build/compare.json. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="compare only this workload (repeatable; default: all)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {}  # workload -> [set 1 results, set 2 results]
    for workload in workloads:
        for i in range(args.runs):
            for s in range(SETS):
                seed = s * args.runs + i + 1
                result = run_once(spec, workload, seed)
                results.setdefault(workload, [[] for _ in range(SETS)])[s].append(result)
                print("set %d %-12s seed %3d: %s" % (
                    s + 1, workload, seed,
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                    flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "compare.json"), "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    for workload in workloads:
        sets = results[workload]
        print("\n%s" % workload)
        shares = ["%d/%d" % (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        fail_ratios = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                       for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(fail_ratios) == 1
        ok = ok and same_share and correct
        print("  failed/attempted per set: %s -> %s; all correct: %s" % (
            ", ".join(shares), "same share" if same_share else "SHARES DIFFER", correct))
        print("  %-18s %-34s %-34s %s" % ("metric", "set 1 median [q1, q3] spread",
                                          "set 2 median [q1, q3] spread", "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for runs in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med if med else float("inf")
                stats.append((med, q1, q3, spread))
            first, last = stats[0], stats[-1]
            low, high = sorted((first[0], last[0]))
            drift = high / low - 1.0 if low > 0 else float("inf")
            spread_ok = name == "setup_s" or all(st[3] <= bound for st in stats)
            verdict = spread_ok and drift <= bound
            ok = ok and verdict
            fmt = "%.5g [%.5g, %.5g] %.3f"
            print("  %-18s %-34s %-34s %s (bound %.2f, medians apart by %.3f)" % (
                name, fmt % first, fmt % last, "agree" if verdict else "DISAGREE", bound, drift))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
