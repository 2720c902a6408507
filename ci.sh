#!/usr/bin/env bash
# Tier-1 verification plus a benchmark smoke run — what CI executes and
# what a contributor should run before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# Warnings are errors in the tier-1 build, so it stays warning-free.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j"$(nproc)"

# Checker-blindness gate, before anything else: the deliberately-unfenced
# use-after-free litmus MUST be flagged racy (with the races attributed to
# the freed block) by the explorer+DRF pipeline. Zero reported violations
# would mean reclamation coverage silently went blind — fail fast. The
# grep guards the guard: gtest exits 0 when a filter matches nothing, so
# a renamed test must fail here rather than pass vacuously.
./build/privstm_tests \
  --gtest_filter='ReclamationExplorer.UnfencedScenariosAreRacyOnFreedBlocksOnly' \
  | tee /dev/stderr | grep -q '\[  PASSED  \] 1 test'

# Fault-injection smoke gate, same shape: the seeded injector must actually
# fire (kFaultInjected > 0 is asserted inside the test — "the plan's rates
# must actually fire") and replay identically. An injection suite that
# injects nothing would leave the whole conformance matrix vacuous.
./build/privstm_tests \
  --gtest_filter='FaultInjection.SingleSessionWorkloadReplaysExactly' \
  | tee /dev/stderr | grep -q '\[  PASSED  \] 1 test'

ctest --test-dir build --output-on-failure -j"$(nproc)"

# Repo-benchmark smoke: a short seeded run of every BENCHMARK.json workload
# (untraced), plus one traced session-storm run for the per-layer metric
# set. run.py builds perfbench into .bench_build/ and dies if the library
# stops building there or the metric set drifts from BENCHMARK.json; each
# run must also report a correct result with zero failed ops.
perfbench_smoke() {
  local last
  last=$(python3 perfbench/run.py --workload "$1" --seed 1 --seconds 5 \
    --trace "$2" | tail -n 1)
  echo "perfbench $1 (trace $2): $last"
  if ! grep -q '"correct": true' <<<"$last" ||
     ! grep -q '"failed": 0,' <<<"$last"; then
    echo "FAIL: perfbench $1 (trace $2) was not correct and failure-free" >&2
    return 1
  fi
}
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
  perfbench_smoke "$workload" 0
done
perfbench_smoke session-storm 1

# Smoke-run the throughput matrix (writes BENCH_tm_throughput.quick.json;
# the committed full matrix comes from a run without --quick). The quick
# run also self-asserts that the alloc-free / mixed-churn cells retired at
# least one batched-limbo grace period (Counter::kLimboBatchRetired > 0)
# and that the mixed-churn cells stole at least one block from a sibling
# shard (Counter::kAllocShardSteal > 0) — failing CI if deferred
# reclamation stops flowing in batches or the sharded free store silently
# degenerates to never-stealing (i.e. the steal tier stopped running in
# front of the central lock).
./build/bench_tm_throughput --quick

# Smoke-run the multi-privatizer fence matrix (writes
# BENCH_fence_overhead.quick.json). --check fails the run if the async
# grace-period engine regresses below the per-fence-scan mode.
./build/bench_fence_overhead --quick --check

# Smoke-run the session-service macro-benchmark (writes
# BENCH_service.quick.json). The quick run self-asserts that every
# backend × fence-mode cell's expiry sweeps retired sessions, that every
# op class reported monotone percentiles, that no payload read was
# inconsistent, and that the traced cell's conflict heat map is non-empty
# — then the grep double-checks the percentile telemetry actually reached
# the JSON (a schema refactor that drops the field must fail here, not in
# the next PR's analysis). The trace artifacts land in build/ — benchmark
# output must never dirty the source tree (it once got committed).
./build/bench_service --quick --trace build/TRACE_service.quick.json
grep -q '"p999"' BENCH_service.quick.json

# Adaptive-governor smoke gate (DESIGN.md §14): the quick service run is
# governed, so the schema-3 JSON must carry a governor block whose epoch
# and shift counts are nonzero (the feedback loop actually evaluated and
# actually moved the policy), and the Perfetto dump must carry the
# policy-shift instants. A refactor that detaches the governor from the
# store, or stops emitting its decisions, must fail here.
grep -q '"governor":' BENCH_service.quick.json
grep -Eq '"epochs": [1-9]' BENCH_service.quick.json
grep -Eq '"shifts": [1-9]' BENCH_service.quick.json
grep -q '"name": "governor_epoch"' build/TRACE_service.quick.json
grep -q '"name": "governor_shift"' build/TRACE_service.quick.json

# Trace/metrics smoke gate (DESIGN.md §13), over the artifacts the traced
# run just wrote: the Perfetto JSON must carry a privatization-fence span
# and a sweep-phase span, and the Prometheus exposition the canonical
# commit counter — a refactor that silently stops emitting any of them
# must fail here. The throughput side is covered by bench_tm_throughput's
# own self-gates above (tracing-disabled regression vs the matrix
# reference, tracing-enabled collapse vs the disabled cell); the last grep
# checks the embedded metrics snapshot reached the schema-7 perf log.
grep -q '"name": "fence"' build/TRACE_service.quick.json
grep -q '"name": "sweep_reclaim"' build/TRACE_service.quick.json
grep -q '^privstm_tx_commits_total' build/TRACE_service.quick.json.prom
grep -q '"metrics"' BENCH_tm_throughput.quick.json

# Source-tree hygiene gate: nothing above may leave trace artifacts in the
# repo root — they belong in build/ (which .gitignore's build*/ covers).
if compgen -G 'TRACE_*' > /dev/null; then
  echo 'FAIL: benchmark smoke left TRACE_* artifacts in the source root' >&2
  exit 1
fi

# ASan+UBSan gate over the transactional-heap paths: alloc/free, deferred
# reclamation, the ADTs that allocate through handles, the TM
# semantics/fence suites that drive them, and the handle-based litmus
# layer (ReclamationExplorer + ReclamationLitmus end to end, plus the
# explorer's canonical heap model) — language-driven alloc/free/reuse is
# exactly where the sanitizers pay for themselves. A focused ctest filter
# keeps the pass within CI budget; SKIP_ASAN=1 skips it for quick local
# iterations. --no-tests=error makes a filter that matches nothing (its
# suites deleted or renamed) fail instead of passing vacuously.
if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DPRIVSTM_SANITIZE=ON \
    -DPRIVSTM_BUILD_BENCH=OFF -DPRIVSTM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan --output-on-failure --no-tests=error \
    -j"$(nproc)" -R 'Heap|StripeTable|StripeRegion|Alloc|Adt|TmSemantics|Fence\.|Reclamation|Quiescence|ExplorerHandles|Interp\.AllocFree|Clock|Service|Histogram|Zipf|Adaptive|NtAccess'
fi

# ThreadSanitizer gate (third sanitizer config — TSan cannot coexist with
# ASan in one binary): the cross-thread synchronization paths this PR
# stresses hardest — the serial gate's close/drain/reopen handshake, the
# contention-manager storms, fault-injected backend commits, fences and
# quiescence, and the concurrent allocator. A focused filter keeps the
# (TSan-slowed) pass within CI budget; SKIP_TSAN=1 skips it locally.
# --no-tests=error as in the ASan gate.
if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DPRIVSTM_SANITIZE=thread \
    -DPRIVSTM_BUILD_BENCH=OFF -DPRIVSTM_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j"$(nproc)"
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -j"$(nproc)" -R 'Contention|StarvationStorm|RetryUnderInjection|FaultInj|Quiescence|Fence\.|Alloc|Adt|Clock|Service|Histogram|Zipf|Adaptive|NtAccess'
fi
