#!/usr/bin/env python3
"""Paired parent/change benchmark runs with alternating order.

Runs perfbench/run.py in two checkouts (say, a clone of the parent commit
and the working tree) for N pairs per workload. Pair i uses seed
seed_base + i on both sides; even pairs run the parent first, odd pairs the
change first, so host drift and run order do not land on one side. Prints,
per workload and metric, each side's median and quartiles, the change's win
count, and two verdicts:

  claim  the change wins at least 9/10 of the pairs (ties count for
         neither) and the medians differ by more than the parent's
         interquartile range
  bound  the change's median is worse than the parent's by more than the
         metric's bound in BENCHMARK.json (end-to-end metrics only)

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload session-read --pairs 10

Standard library only. --json FILE keeps every run's raw result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = {"exit": proc.returncode, "seed": seed}
    if proc.returncode == 0 and lines:
        try:
            result.update(json.loads(lines[-1]))
        except json.JSONDecodeError:
            result["exit"] = -1
    if result["exit"] != 0:
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_value(run, name):
    m = run.get("metrics", {}).get(name)
    return None if m is None else m.get("value")


def report(workload, pairs, specs):
    print("\n== %s: %d pairs ==" % (workload, len(pairs)))
    for side in ("parent", "change"):
        bad = [p[side] for p in pairs
               if p[side]["exit"] != 0 or not p[side].get("correct", False)
               or p[side].get("failed", 0) != 0]
        if bad:
            print("  %s: %d run(s) failed or incorrect (seeds %s, exits %s)"
                  % (side, len(bad), [r["seed"] for r in bad],
                     [r["exit"] for r in bad]))
    print("  %-22s %29s %29s %7s  %s" %
          ("metric", "parent median [q1, q3]", "change median [q1, q3]",
           "wins", "verdict"))
    for spec in specs:
        name = spec["name"]
        lower = spec["better"] == "lower"
        both = [(metric_value(p["parent"], name), metric_value(p["change"], name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        par = [a for a, _ in both]
        chg = [b for _, b in both]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        verdicts = []
        gain = (pmed - cmed) if lower else (cmed - pmed)
        if wins * 10 >= 9 * len(both) and gain > (pq3 - pq1):
            verdicts.append("claim holds")
        bound = spec.get("bound")
        if bound is not None and pmed != 0 and -gain / abs(pmed) > bound:
            verdicts.append("WORSE than bound %.0f%%" % (100 * bound))
        print("  %-22s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %3d/%-3d  %s"
              % (name, pmed, pq1, pq3, cmed, cq1, cq3, wins, len(both),
                 ", ".join(verdicts) or "-"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", action="append",
                    help="workload (repeatable); default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="run length; default: BENCHMARK.json run_seconds")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run's raw result here")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    raw = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, workload, seed, seconds,
                                      args.trace)
            pair["first"] = order[0]
            pairs.append(pair)
            print("%s pair %d/%d (seed %d, %s first) done" %
                  (workload, i + 1, args.pairs, seed, order[0]),
                  file=sys.stderr, flush=True)
        raw[workload] = pairs
        report(workload, pairs, specs)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
