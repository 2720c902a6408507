#!/usr/bin/env python3
"""Span-duration percentiles from a Chrome/Perfetto trace-event JSON file.

Pairs every "B" event with the next "E" of the same name on the same
(pid, tid) track and prints, per span name, the count and the p50, p99 and
mean duration in microseconds, plus the mean a32/a64 arguments of the End
events (for limbo_retire: batches and blocks per pass).

    python3 tools/trace_spans.py .bench_build/artifacts/session-read-seed1.perfetto.json
    python3 tools/trace_spans.py --name limbo_retire TRACE.json [TRACE2.json ...]

Several files are pooled. Standard library only.
"""
import argparse
import json
import statistics


def spans(path, want):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    open_spans = {}
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E") or (want and e.get("name") not in want):
            continue
        key = (e.get("pid"), e.get("tid"), e.get("name"))
        if ph == "B":
            open_spans.setdefault(key, []).append(e["ts"])
        elif open_spans.get(key):
            begin = open_spans[key].pop()
            args = e.get("args", {})
            yield e["name"], e["ts"] - begin, args.get("a32", 0), args.get("a64", 0)


def pct(sorted_values, q):
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="+")
    ap.add_argument("--name", action="append",
                    help="span name to report (repeatable); default: all")
    args = ap.parse_args()
    by_name = {}
    for path in args.traces:
        for name, dur, a32, a64 in spans(path, set(args.name or [])):
            by_name.setdefault(name, []).append((dur, a32, a64))
    print("%-18s %8s %10s %10s %10s %9s %9s" %
          ("span", "count", "p50_us", "p99_us", "mean_us", "mean_a32",
           "mean_a64"))
    for name in sorted(by_name):
        rows = by_name[name]
        durs = sorted(r[0] for r in rows)
        print("%-18s %8d %10.3f %10.3f %10.3f %9.2f %9.2f" %
              (name, len(rows), pct(durs, 0.50), pct(durs, 0.99),
               statistics.fmean(durs), statistics.fmean(r[1] for r in rows),
               statistics.fmean(r[2] for r in rows)))


if __name__ == "__main__":
    main()
