#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the privstm library and the perfbench binary from source (into
.bench_build/ at the repository root), runs the benchmark's own metric unit
tests, then runs one workload:

    python3 perfbench/run.py --workload session-read --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Traced runs also leave a
Perfetto trace and a per-layer summary in .bench_build/artifacts/.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
ARTIFACTS = os.path.join(BUILD_ROOT, "artifacts")
RUN_LIMIT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        die("command failed: %s\n%s" % (" ".join(cmd), tail))


def build(deadline):
    """Configure once, then an incremental build on every run."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log, max(1, deadline - time.time()))
    run_logged(["cmake", "--build", BUILD, "-j", "3"], log,
               max(1, deadline - time.time()))


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unavailable"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        die("no privstm sources (CMakeLists.txt, src/) next to %s" % HERE)
    spec, expected = expected_metrics(args.trace == 1)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    # The first run in a checkout builds; later runs keep to RUN_LIMIT_S.
    first = not os.path.exists(os.path.join(BUILD, "perfbench"))
    build(start + (880 if first else RUN_LIMIT_S))

    test = subprocess.run([os.path.join(BUILD, "metrics_test")],
                          capture_output=True, text=True, check=False)
    if test.returncode != 0:
        die("metric unit tests failed:\n" + test.stdout)

    os.makedirs(ARTIFACTS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", ARTIFACTS]
    budget = (start + (900 if first else RUN_LIMIT_S)) - time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1, budget), check=False)
    except subprocess.TimeoutExpired:
        die("perfbench did not finish within %.0f s" % budget)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("perfbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die("unparsable result line: %s" % e)

    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        die("metric set differs from BENCHMARK.json: missing %s, extra %s" %
            (sorted(set(expected) - set(metrics)),
             sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != expected[name]:
            die("%s: unit %r, BENCHMARK.json says %r" %
                (name, m.get("unit"), expected[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die("%s: value %r is not a finite number" % (name, value))

    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            fp = json.loads(line[len("fingerprint "):])
            fp["git_sha"] = git_sha()
            fp["source_digest"] = source_digest()
            line = "fingerprint " + json.dumps(fp, sort_keys=True)
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
