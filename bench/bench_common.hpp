// Shared helpers for the own-main benchmark binaries (bench_tm_throughput,
// bench_fence_overhead): the parallel-phase driver, the standard
// read/write mix worker, and the BENCH_tm_throughput.json row writer.
//
// Throughput cells run a fixed parallel phase (spawn, barrier, work,
// join) timed on the wall clock and report committed transactions per
// second; each cell keeps the best of N repetitions.
#pragma once

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/adaptive.hpp"
#include "runtime/barrier.hpp"
#include "runtime/rng.hpp"
#include "tm/factory.hpp"

namespace privstm::bench {

/// A parallel phase: `threads` workers each execute `per_thread(tid)` after
/// a common barrier; returns once all joined.
template <typename F>
void parallel_phase(std::size_t threads, F&& per_thread) {
  rt::SpinBarrier barrier(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      per_thread(t);
    });
  }
  for (auto& w : workers) w.join();
}

/// Standard read/write-mix transactional worker for throughput benches:
/// each transaction does `txn_size` accesses, reads with probability
/// read_pct/100, over `registers` registers.
struct MixParams {
  std::size_t threads = 2;
  std::size_t registers = 256;
  std::size_t txn_size = 4;
  std::size_t read_pct = 90;
  std::size_t txns_per_thread = 2000;
};

/// `retry` is forwarded to every worker's run_tx_retry — the default is the
/// legacy static policy; the adaptive cells pass options carrying a governor.
inline std::uint64_t run_mix_phase(tm::TransactionalMemory& tmi,
                                   const MixParams& p, std::uint64_t seed,
                                   const tm::TxRetryOptions& retry = {}) {
  std::atomic<std::uint64_t> commits{0};
  std::atomic<hist::Value> read_sum{0};
  parallel_phase(p.threads, [&](std::size_t t) {
    auto session = tmi.make_thread(static_cast<hist::ThreadId>(t), nullptr);
    rt::Xoshiro256 rng(seed * 6364136223846793005ULL + t + 1);
    hist::Value tag = 0;
    hist::Value local_sum = 0;  // every read value is folded in here
    std::uint64_t local_commits = 0;
    for (std::size_t i = 0; i < p.txns_per_thread; ++i) {
      tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
        for (std::size_t k = 0; k < p.txn_size; ++k) {
          const auto reg = static_cast<hist::RegId>(rng.below(p.registers));
          if (rng.below(100) < p.read_pct) {
            local_sum += tx.read(reg);
          } else {
            tx.write(reg, ((static_cast<hist::Value>(t) + 1) << 40) | ++tag);
          }
        }
      }, retry);
      ++local_commits;
    }
    commits.fetch_add(local_commits, std::memory_order_relaxed);
    read_sum.fetch_add(local_sum, std::memory_order_relaxed);
  });
  return commits.load();
}

// ---------------------------------------------------------------------------
// Machine-readable throughput log (BENCH_tm_throughput.json): one row per
// (backend × threads × workload) cell so the perf trajectory is comparable
// across PRs.
// ---------------------------------------------------------------------------

struct ThroughputRow {
  std::string backend;
  std::string workload = "mix";  ///< matrix cell family (read-heavy, …)
  std::size_t threads = 0;
  std::size_t read_pct = 0;
  std::size_t registers = 0;
  std::size_t txn_size = 0;
  double ops_per_sec = 0.0;   ///< committed top-level transactions per second
  double abort_rate = 0.0;    ///< aborts / (commits + aborts)
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  /// Schema 4 contention-manager telemetry (run_tx_retry, DESIGN.md §10):
  /// how hard the retry loop worked per successful transaction, and whether
  /// the irrevocable escape hatch ever fired under this workload.
  double retries_per_commit = 0.0;  ///< aborted attempts per commit
  std::uint64_t backoffs = 0;       ///< Counter::kTxRetryBackoff
  std::uint64_t escalations = 0;    ///< Counter::kTxEscalated
  /// Schema 5 sharding telemetry (DESIGN.md §11): the store shard count
  /// the run used, how often a magazine refill was served by a *sibling*
  /// shard's bins (Counter::kAllocShardSteal), and how many commit stamps
  /// were adopted from a rival committer's clock CAS instead of minted
  /// (Counter::kClockStampShared — only the TL2 family mints stamps).
  std::size_t shards = 0;
  std::uint64_t shard_steals = 0;   ///< Counter::kAllocShardSteal
  std::uint64_t clock_shared = 0;   ///< Counter::kClockStampShared
  /// Schema 7 adaptive-governor telemetry (runtime/adaptive.hpp): epoch
  /// evaluations and adopted tier shifts for the governed cells (zero in
  /// every static-policy cell).
  std::uint64_t governor_epochs = 0;   ///< Counter::kGovernorEpoch
  std::uint64_t governor_shifts = 0;   ///< Counter::kGovernorPolicyShift
};

/// Copy a finished cell's counter telemetry (commits, aborts and the
/// rates derived from them, CM, sharding and governor counters) into `row`.
inline void fill_counters(ThroughputRow& row, tm::TransactionalMemory& tmi) {
  const rt::StatsDomain& stats = tmi.stats();
  row.commits = stats.total(rt::Counter::kTxCommit);
  row.aborts = stats.total(rt::Counter::kTxAbort);
  const double attempts = static_cast<double>(row.commits + row.aborts);
  row.abort_rate =
      attempts > 0.0 ? static_cast<double>(row.aborts) / attempts : 0.0;
  row.retries_per_commit =
      row.commits > 0 ? static_cast<double>(row.aborts) /
                            static_cast<double>(row.commits)
                      : 0.0;
  row.backoffs = stats.total(rt::Counter::kTxRetryBackoff);
  row.escalations = stats.total(rt::Counter::kTxEscalated);
  row.shards = tmi.heap().shard_count();
  row.shard_steals = stats.total(rt::Counter::kAllocShardSteal);
  row.clock_shared = stats.total(rt::Counter::kClockStampShared);
  row.governor_epochs = stats.total(rt::Counter::kGovernorEpoch);
  row.governor_shifts = stats.total(rt::Counter::kGovernorPolicyShift);
}

/// Run one timed mix phase on a fresh TM instance and collect a row.
/// `base` seeds the TM configuration (num_registers is overridden from the
/// mix params) — the trace-overhead probe cells pass a trace-enabled base.
/// When `governor` is non-null the phase runs governed: a fresh
/// rt::AdaptiveGovernor (bound to this TM's stats/trace domains) is handed
/// to every worker's retry loop, so the cell measures the closed feedback
/// loop rather than a static policy.
inline ThroughputRow measure_mix(tm::TmKind kind, const MixParams& p,
                                 std::uint64_t seed,
                                 const tm::TmConfig& base = {},
                                 const rt::GovernorConfig* governor = nullptr) {
  tm::TmConfig config = base;
  config.num_registers = p.registers;
  auto tmi = tm::make_tm(kind, config);
  std::unique_ptr<rt::AdaptiveGovernor> gov;
  tm::TxRetryOptions retry;
  if (governor != nullptr) {
    gov = std::make_unique<rt::AdaptiveGovernor>(tmi->stats(), *governor,
                                                 tmi->trace_ptr());
    retry.governor = gov.get();
  }

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t committed = run_mix_phase(*tmi, p, seed, retry);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ThroughputRow row;
  row.backend = tm::tm_kind_name(kind);
  row.threads = p.threads;
  row.read_pct = p.read_pct;
  row.registers = p.registers;
  row.txn_size = p.txn_size;
  row.ops_per_sec = secs > 0.0 ? static_cast<double>(committed) / secs : 0.0;
  fill_counters(row, *tmi);
  return row;
}

/// Emit the rows as a stable, diff-friendly JSON document. Schema 3 added
/// the `alloc` config block (the heap-allocator knobs the run used);
/// schema 4 added the contention-manager telemetry per row
/// (`retries_per_commit`, `backoffs`, `escalations` — run_tx_retry drives
/// every mix worker through the CM); schema 5 added the per-row sharding
/// telemetry (`shards`, `shard_steals`, `clock_shared`) and the `shards`
/// knob in the alloc block. Schema 6 added the `trace-probe` workload rows
/// (tracing-enabled vs -disabled overhead cells) and an optional embedded
/// `metrics` object (`metrics_json`, a pre-rendered rt::to_json document
/// from the traced cell's registry). Schema 7 added the adaptive-governor
/// cells (workload `*-adaptive`, one per backend, retry loops driven by
/// rt::AdaptiveGovernor) and the per-row `governor_epochs` /
/// `governor_shifts` telemetry.
inline bool write_throughput_json(const std::string& path,
                                  const std::vector<ThroughputRow>& rows,
                                  const tm::AllocConfig& alloc,
                                  const std::string& metrics_json = {}) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"tm_throughput\",\n  \"schema\": 7,\n"
      << "  \"alloc\": {\"magazine_size\": " << alloc.magazine_size
      << ", \"batch_depth\": " << alloc.limbo_batch
      << ", \"max_class_size\": " << alloc.max_class_size
      << ", \"shards\": " << alloc.effective_shards() << "},\n";
  if (!metrics_json.empty()) {
    out << "  \"metrics\": " << metrics_json << ",\n";
  }
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"backend\": \"" << r.backend << "\", \"workload\": \""
        << r.workload << "\", \"threads\": "
        << r.threads << ", \"read_pct\": " << r.read_pct
        << ", \"registers\": " << r.registers << ", \"txn_size\": "
        << r.txn_size << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"abort_rate\": " << r.abort_rate << ", \"commits\": "
        << r.commits << ", \"aborts\": " << r.aborts
        << ", \"retries_per_commit\": " << r.retries_per_commit
        << ", \"backoffs\": " << r.backoffs
        << ", \"escalations\": " << r.escalations
        << ", \"shards\": " << r.shards
        << ", \"shard_steals\": " << r.shard_steals
        << ", \"clock_shared\": " << r.clock_shared
        << ", \"governor_epochs\": " << r.governor_epochs
        << ", \"governor_shifts\": " << r.governor_shifts << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace privstm::bench
