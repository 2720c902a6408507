// Experiment E8 — TL2 (faithful and fused) vs NOrec vs global lock
// throughput.
//
// Shape expectations:
//  * read-heavy, low-contention: TL2 > NOrec > glock at >1 thread
//    (TL2 validates per register; NOrec serializes commits; glock
//    serializes everything);
//  * tl2fused > tl2 everywhere: same protocol, fewer atomic operations per
//    access and no O(set) bookkeeping per transaction (DESIGN.md §7);
//  * write-heavy / high-contention: the faithful/fused gap widens (the
//    fused commit is where most of the savings live), NOrec's single
//    seqlock and glock's mutex converge;
//  * 1 thread: glock wins (no metadata), the STM instrumentation cost is
//    the TL2/NOrec intercept.
//
// Args: {threads, read_pct, registers}.
//
// This binary has its own main(): before running the google-benchmark
// suite it sweeps backend × threads over a read-heavy and a write-heavy
// mix and persists the result as BENCH_tm_throughput.json (see
// bench_common.hpp). `--quick` runs a smaller sweep and skips the
// google-benchmark phase — the CI smoke configuration.
#include <algorithm>
#include <array>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"

namespace privstm::bench {
namespace {

using tm::TmKind;

void run_throughput(benchmark::State& state, TmKind kind) {
  MixParams params;
  params.threads = static_cast<std::size_t>(state.range(0));
  params.read_pct = static_cast<std::size_t>(state.range(1));
  params.registers = static_cast<std::size_t>(state.range(2));
  params.txn_size = 4;
  params.txns_per_thread = 4000;

  tm::TmConfig config;
  config.num_registers = params.registers;
  auto tmi = tm::make_tm(kind, config);

  std::uint64_t total = 0;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    total += run_mix_phase(*tmi, params, seed++);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.counters["txn_throughput"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
  state.counters["aborts"] =
      static_cast<double>(tmi->stats().total(rt::Counter::kTxAbort));
}

void BM_Throughput_TL2(benchmark::State& state) {
  run_throughput(state, TmKind::kTl2);
}
void BM_Throughput_TL2Fused(benchmark::State& state) {
  run_throughput(state, TmKind::kTl2Fused);
}
void BM_Throughput_NOrec(benchmark::State& state) {
  run_throughput(state, TmKind::kNOrec);
}
void BM_Throughput_GlobalLock(benchmark::State& state) {
  run_throughput(state, TmKind::kGlobalLock);
}

void apply_args(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) {
    for (int read_pct : {90, 50}) {
      for (int registers : {64, 4096}) {
        b->Args({threads, read_pct, registers});
      }
    }
  }
  b->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(3);
}

BENCHMARK(BM_Throughput_TL2)->Apply(apply_args);
BENCHMARK(BM_Throughput_TL2Fused)->Apply(apply_args);
BENCHMARK(BM_Throughput_NOrec)->Apply(apply_args);
BENCHMARK(BM_Throughput_GlobalLock)->Apply(apply_args);

// Privatization-phase workload: threads alternate between transactional
// batches and privatize→NT-update→publish phases — the end-to-end cost of
// the paper's programming model on each TM (TL2 pays the fence; NOrec
// does not need it; glock is the serial floor).
void run_privatization_phases(benchmark::State& state, TmKind kind,
                              bool use_fence) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSlots = 8;     // per-thread data slot + flag
  tm::TmConfig config;
  config.num_registers = 2 * kSlots;
  auto tmi = tm::make_tm(kind, config);

  std::uint64_t phases = 0;
  for (auto _ : state) {
    parallel_phase(threads, [&](std::size_t t) {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(t),
                                      nullptr);
      const auto flag = static_cast<hist::RegId>(t % kSlots);
      const auto data = static_cast<hist::RegId>(kSlots + (t % kSlots));
      hist::Value tag = (static_cast<hist::Value>(t) + 1) << 40;
      for (int round = 0; round < 300; ++round) {
        // Privatize the slot.
        tm::run_tx_retry(*session,
                         [&](tm::TxScope& tx) { tx.write(flag, ++tag); });
        if (use_fence) session->fence();
        // NT updates while private.
        for (int k = 0; k < 8; ++k) session->nt_write(data, ++tag);
        // Publish back.
        tm::run_tx_retry(*session,
                         [&](tm::TxScope& tx) { tx.write(flag, ++tag); });
      }
    });
    phases += threads * 300;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(phases));
  state.counters["fences"] =
      static_cast<double>(tmi->stats().total(rt::Counter::kFence));
}

// Write-then-privatize mix: every round commits a write transaction to the
// thread's slot and then privatizes it. The sync variant pays the fence on
// the round's critical path; the deferred variant issues the fence ticket,
// commits the NEXT round's write transaction underneath the grace period,
// and completes the ticket afterwards — the fence_async() idiom end to end
// on the shared quiescence subsystem's grace-period engine.
void run_write_then_privatize(benchmark::State& state, TmKind kind,
                              bool deferred) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr int kRounds = 400;
  tm::TmConfig config;
  config.num_registers = 2 * threads + 2;
  auto tmi = tm::make_tm(kind, config);

  std::uint64_t rounds = 0;
  for (auto _ : state) {
    parallel_phase(threads, [&](std::size_t t) {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(t),
                                      nullptr);
      const auto reg = static_cast<hist::RegId>(t);
      const auto aux = static_cast<hist::RegId>(threads + t);
      hist::Value tag = (static_cast<hist::Value>(t) + 1) << 40;
      rt::FenceTicket pending = rt::kNullFenceTicket;
      for (int round = 0; round < kRounds; ++round) {
        tm::run_tx_retry(*session,
                         [&](tm::TxScope& tx) { tx.write(reg, ++tag); });
        if (deferred) {
          const rt::FenceTicket ticket = session->fence_async();
          session->fence_wait(pending);  // previous round's privatization
          pending = ticket;
        } else {
          session->fence();
        }
        session->nt_write(aux, ++tag);  // the privatized update
      }
      session->fence_wait(pending);
    });
    rounds += threads * kRounds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["fences"] =
      static_cast<double>(tmi->stats().total(rt::Counter::kFence));
  state.counters["fences_coalesced"] = static_cast<double>(
      tmi->stats().total(rt::Counter::kFenceCoalesced));
}

void BM_WriteThenPrivatize_TL2Fused_Sync(benchmark::State& state) {
  run_write_then_privatize(state, TmKind::kTl2Fused, false);
}
void BM_WriteThenPrivatize_TL2Fused_Deferred(benchmark::State& state) {
  run_write_then_privatize(state, TmKind::kTl2Fused, true);
}

void apply_wtp_args(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) b->Args({threads});
  b->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(3);
}

BENCHMARK(BM_WriteThenPrivatize_TL2Fused_Sync)->Apply(apply_wtp_args);
BENCHMARK(BM_WriteThenPrivatize_TL2Fused_Deferred)->Apply(apply_wtp_args);

void BM_PrivatizationPhases_TL2_Fenced(benchmark::State& state) {
  run_privatization_phases(state, TmKind::kTl2, true);
}
void BM_PrivatizationPhases_TL2Fused_Fenced(benchmark::State& state) {
  run_privatization_phases(state, TmKind::kTl2Fused, true);
}
void BM_PrivatizationPhases_NOrec_NoFence(benchmark::State& state) {
  run_privatization_phases(state, TmKind::kNOrec, false);
}
void BM_PrivatizationPhases_GlobalLock(benchmark::State& state) {
  run_privatization_phases(state, TmKind::kGlobalLock, false);
}

void apply_phase_args(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4}) b->Args({threads});
  b->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(3);
}

BENCHMARK(BM_PrivatizationPhases_TL2_Fenced)->Apply(apply_phase_args);
BENCHMARK(BM_PrivatizationPhases_TL2Fused_Fenced)->Apply(apply_phase_args);
BENCHMARK(BM_PrivatizationPhases_NOrec_NoFence)->Apply(apply_phase_args);
BENCHMARK(BM_PrivatizationPhases_GlobalLock)->Apply(apply_phase_args);

// Alloc/free-heavy privatization phases: every round allocates a block
// from the transactional heap, fills it transactionally, privatizes it
// with a fence, touches it non-transactionally, and frees it through the
// grace-period-deferred tm_free — the paper's reclamation idiom as a
// workload. This is the cell where the striped-lock-table + limbo-list
// representation pays its rent (stripe hashing on every access, ticket
// churn on every free), so BENCH_tm_throughput.json tracks it per PR.
constexpr std::size_t kAllocFreeBlock = 4;

void run_alloc_free_phase(tm::TransactionalMemory& tmi, std::size_t threads,
                          int rounds) {
  parallel_phase(threads, [&](std::size_t t) {
    auto session = tmi.make_thread(static_cast<hist::ThreadId>(t), nullptr);
    hist::Value tag = (static_cast<hist::Value>(t) + 1) << 40;
    for (int round = 0; round < rounds; ++round) {
      const tm::TxHandle h = tmi.tm_alloc(kAllocFreeBlock);
      tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
        for (std::size_t k = 0; k < kAllocFreeBlock; ++k) {
          tx.write(h.loc(k), ++tag);
        }
      });
      session->fence();                      // privatize the block
      session->nt_write(h.loc(0), ++tag);    // private update
      tmi.tm_free(h);                        // deferred reclamation
    }
  });
}

void BM_AllocFreePrivatize(benchmark::State& state, TmKind kind) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr int kRounds = 300;
  auto tmi = tm::make_tm(kind, tm::TmConfig{});

  std::uint64_t rounds = 0;
  for (auto _ : state) {
    run_alloc_free_phase(*tmi, threads, kRounds);
    rounds += threads * kRounds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["reclaimed"] =
      static_cast<double>(tmi->heap().reclaimed_count());
  state.counters["limbo"] = static_cast<double>(tmi->heap().limbo_size());
}

void BM_AllocFreePrivatize_TL2Fused(benchmark::State& state) {
  BM_AllocFreePrivatize(state, TmKind::kTl2Fused);
}
void BM_AllocFreePrivatize_NOrec(benchmark::State& state) {
  BM_AllocFreePrivatize(state, TmKind::kNOrec);
}

BENCHMARK(BM_AllocFreePrivatize_TL2Fused)->Apply(apply_wtp_args);
BENCHMARK(BM_AllocFreePrivatize_NOrec)->Apply(apply_wtp_args);

// Mixed-size churn: each thread rotates a window of live blocks whose
// sizes cycle through several size classes, transacting on every block it
// allocates. This is the allocator's worst case before PR 4 — exact-size
// free lists never reused across sizes, so the arena grew without bound
// and every alloc/free serialized on the central lock — and the workload
// that pays for size classes (split/merge reuse) plus magazines (the
// rotation is alloc/free dominated).
constexpr std::size_t kChurnSizes[] = {1, 5, 9, 17, 33, 65};
constexpr std::size_t kChurnWindow = 16;

void run_mixed_churn_phase(tm::TransactionalMemory& tmi, std::size_t threads,
                           int rounds) {
  parallel_phase(threads, [&](std::size_t t) {
    auto session = tmi.make_thread(static_cast<hist::ThreadId>(t), nullptr);
    hist::Value tag = (static_cast<hist::Value>(t) + 1) << 40;
    std::array<tm::TxHandle, kChurnWindow> live{};
    std::size_t tick = t;  // threads start offset in the size cycle
    for (int round = 0; round < rounds; ++round) {
      tm::TxHandle& slot = live[round % kChurnWindow];
      if (slot.valid()) tmi.tm_free(slot);
      slot = tmi.tm_alloc(kChurnSizes[tick++ % std::size(kChurnSizes)]);
      const tm::TxHandle h = slot;
      tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
        tx.write(h.loc(0), ++tag);
        tx.write(h.loc(h.size - 1), ++tag);
      });
    }
    for (tm::TxHandle& h : live) {
      if (h.valid()) tmi.tm_free(h);
    }
  });
}

void BM_MixedChurn(benchmark::State& state, TmKind kind) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr int kRounds = 400;
  auto tmi = tm::make_tm(kind, tm::TmConfig{});
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    run_mixed_churn_phase(*tmi, threads, kRounds);
    rounds += threads * kRounds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["arena_cells"] =
      static_cast<double>(tmi->heap().allocated_end());
  state.counters["shared_refills"] = static_cast<double>(
      tmi->stats().total(rt::Counter::kAllocSharedRefill));
}

void BM_MixedChurn_TL2Fused(benchmark::State& state) {
  BM_MixedChurn(state, TmKind::kTl2Fused);
}
void BM_MixedChurn_NOrec(benchmark::State& state) {
  BM_MixedChurn(state, TmKind::kNOrec);
}

BENCHMARK(BM_MixedChurn_TL2Fused)->Apply(apply_wtp_args);
BENCHMARK(BM_MixedChurn_NOrec)->Apply(apply_wtp_args);

// ---------------------------------------------------------------------------
// The persisted matrix: backend × threads over a read-heavy low-contention
// mix and a write-heavy contended mix, plus the alloc/free-heavy
// privatization cell, written to BENCH_tm_throughput.json.
// ---------------------------------------------------------------------------

struct Workload {
  const char* label;
  std::size_t read_pct;
  std::size_t registers;
  std::size_t txn_size;
};

// The write-heavy mix uses larger transactions: batchy update transactions
// are where commit-path costs (lock words, write-back stores, the faithful
// backend's write-set collapse) dominate.
constexpr Workload kWorkloads[] = {
    {"read-heavy", 90, 4096, 4},
    {"write-heavy", 10, 256, 8},
};
constexpr const Workload& kWriteHeavy = kWorkloads[1];

struct MatrixResult {
  std::vector<ThroughputRow> rows;
  /// Σ Counter::kLimboBatchRetired over the allocator-heavy cells — the
  /// CI smoke asserts batched reclamation actually ran (> 0 in --quick).
  std::uint64_t limbo_batches = 0;
  /// Σ Counter::kAllocShardSteal over the mixed-churn cells — the CI
  /// smoke asserts the sibling-steal tier actually served refills there
  /// (> 0 in --quick; see DESIGN.md §11).
  std::uint64_t churn_shard_steals = 0;
  /// Σ Counter::kClockStampShared over the clock-share-probe cells — the
  /// CI smoke asserts the GV4 share path ran end to end (> 0 in --quick).
  std::uint64_t probe_clock_shared = 0;
  /// Σ Counter::kGovernorEpoch over the adaptive cells — the CI smoke
  /// asserts the governor actually evaluated epochs there (> 0 in --quick;
  /// see DESIGN.md §14).
  std::uint64_t adaptive_epochs = 0;
};

MatrixResult run_matrix(bool quick) {
  const std::vector<std::size_t> threads_sweep =
      quick ? std::vector<std::size_t>{2, 8}
            : std::vector<std::size_t>{1, 2, 4, 8};
  // Full mode sizes the phase so per-txn work dominates thread spawn +
  // barrier overhead (which would otherwise dilute backend differences).
  const std::size_t txns = quick ? 500 : 12000;
  // Best-of-N per cell: scheduler interference only ever *lowers* a
  // measurement, so the max over repetitions is the least-noisy estimate
  // of what the backend can do (google-benchmark's max aggregate).
  const int repeats = quick ? 2 : 7;

  MatrixResult result;
  std::vector<ThroughputRow>& rows = result.rows;
  for (const auto& wl : kWorkloads) {
    for (const std::size_t threads : threads_sweep) {
      for (const tm::TmKind kind : tm::all_tm_kinds()) {
        MixParams p;
        p.threads = threads;
        p.read_pct = wl.read_pct;
        p.registers = wl.registers;
        p.txn_size = wl.txn_size;
        p.txns_per_thread = txns;
        // Warm-up pass (thread pools, page faults), then the measured ones.
        (void)measure_mix(kind, p, /*seed=*/3);
        ThroughputRow best = measure_mix(kind, p, /*seed=*/7);
        for (int rep = 1; rep < repeats; ++rep) {
          ThroughputRow r = measure_mix(kind, p, /*seed=*/7 + rep);
          if (r.ops_per_sec > best.ops_per_sec) best = r;
        }
        best.workload = wl.label;
        rows.push_back(best);
        const auto& r = rows.back();
        std::cout << "matrix " << wl.label << " backend=" << r.backend
                  << " threads=" << r.threads << " ops/s=" << r.ops_per_sec
                  << " abort_rate=" << r.abort_rate << "\n";
      }
    }
  }

  // The allocator-heavy cells: `alloc-free` runs rounds of alloc → fill →
  // fence → NT touch → deferred free (see run_alloc_free_phase);
  // `mixed-churn` rotates live blocks across six size classes (see
  // run_mixed_churn_phase). Both run the shipped allocator defaults —
  // magazines + batched limbo — and feed the limbo-batch smoke counter.
  struct AllocCell {
    const char* label;
    int rounds;
    void (*run)(tm::TransactionalMemory&, std::size_t, int);
  };
  const AllocCell alloc_cells[] = {
      {"alloc-free", quick ? 150 : 2000, &run_alloc_free_phase},
      {"mixed-churn", quick ? 150 : 2000, &run_mixed_churn_phase},
  };
  for (const AllocCell& cell : alloc_cells) {
    for (const std::size_t threads : threads_sweep) {
      for (const tm::TmKind kind : tm::all_tm_kinds()) {
        ThroughputRow best;
        for (int rep = 0; rep < std::max(repeats - 3, 2); ++rep) {
          auto tmi = tm::make_tm(kind, tm::TmConfig{});
          const auto start = std::chrono::steady_clock::now();
          cell.run(*tmi, threads, cell.rounds);
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          ThroughputRow r;
          r.backend = tm::tm_kind_name(kind);
          r.workload = cell.label;
          r.threads = threads;
          r.read_pct = 0;
          r.registers = kAllocFreeBlock;  // block size, not a register file
          r.txn_size = kAllocFreeBlock;
          r.commits = tmi->stats().total(rt::Counter::kTxCommit);
          r.aborts = tmi->stats().total(rt::Counter::kTxAbort);
          const double attempts = static_cast<double>(r.commits + r.aborts);
          r.abort_rate =
              attempts > 0.0 ? static_cast<double>(r.aborts) / attempts
                             : 0.0;
          r.retries_per_commit =
              r.commits > 0 ? static_cast<double>(r.aborts) /
                                  static_cast<double>(r.commits)
                            : 0.0;
          r.backoffs = tmi->stats().total(rt::Counter::kTxRetryBackoff);
          r.escalations = tmi->stats().total(rt::Counter::kTxEscalated);
          r.shards = tmi->heap().shard_count();
          r.shard_steals =
              tmi->stats().total(rt::Counter::kAllocShardSteal);
          r.clock_shared =
              tmi->stats().total(rt::Counter::kClockStampShared);
          r.ops_per_sec =
              secs > 0.0
                  ? static_cast<double>(threads) * cell.rounds / secs
                  : 0.0;
          if (r.ops_per_sec > best.ops_per_sec) best = r;
          result.limbo_batches +=
              tmi->stats().total(rt::Counter::kLimboBatchRetired);
          if (std::strcmp(cell.label, "mixed-churn") == 0) {
            result.churn_shard_steals += r.shard_steals;
          }
        }
        rows.push_back(best);
        const auto& r = rows.back();
        std::cout << "matrix " << cell.label << " backend=" << r.backend
                  << " threads=" << r.threads << " ops/s=" << r.ops_per_sec
                  << " abort_rate=" << r.abort_rate << "\n";
      }
    }
  }

  // GV4 clock-share probe: organic stamp sharing needs two committers
  // inside one load→CAS window, which timesliced threads on a
  // single-core box never produce — so the probe cells arm the
  // kClockAdvance fault site at a low rate (a staged rival advancing the
  // clock for real, the same state transition a concurrent committer
  // causes) and drive the write-heavy mix through it. The row's
  // clock_shared then tracks the share path end to end on any box;
  // ops_per_sec carries the fault-injection overhead and is NOT
  // comparable with the unfaulted write-heavy cells.
  for (const tm::TmKind kind : {tm::TmKind::kTl2, tm::TmKind::kTl2Fused}) {
    MixParams p;
    p.threads = 2;
    p.read_pct = kWriteHeavy.read_pct;
    p.registers = kWriteHeavy.registers;
    p.txn_size = kWriteHeavy.txn_size;
    p.txns_per_thread = quick ? 500 : 4000;
    tm::TmConfig config;
    config.num_registers = p.registers;
    config.fault.cas_loss_permille = 20;  // ~2% of writer commits staged
    config.fault.sites = rt::fault_site_bit(rt::FaultSite::kClockAdvance);
    auto tmi = tm::make_tm(kind, config);
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t committed = run_mix_phase(*tmi, p, /*seed=*/11);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    ThroughputRow r;
    r.backend = tm::tm_kind_name(kind);
    r.workload = "clock-share-probe";
    r.threads = p.threads;
    r.read_pct = p.read_pct;
    r.registers = p.registers;
    r.txn_size = p.txn_size;
    r.commits = tmi->stats().total(rt::Counter::kTxCommit);
    r.aborts = tmi->stats().total(rt::Counter::kTxAbort);
    const double attempts = static_cast<double>(r.commits + r.aborts);
    r.abort_rate =
        attempts > 0.0 ? static_cast<double>(r.aborts) / attempts : 0.0;
    r.retries_per_commit =
        r.commits > 0
            ? static_cast<double>(r.aborts) / static_cast<double>(r.commits)
            : 0.0;
    r.backoffs = tmi->stats().total(rt::Counter::kTxRetryBackoff);
    r.escalations = tmi->stats().total(rt::Counter::kTxEscalated);
    r.shards = tmi->heap().shard_count();
    r.shard_steals = tmi->stats().total(rt::Counter::kAllocShardSteal);
    r.clock_shared = tmi->stats().total(rt::Counter::kClockStampShared);
    r.ops_per_sec =
        secs > 0.0 ? static_cast<double>(committed) / secs : 0.0;
    result.probe_clock_shared += r.clock_shared;
    rows.push_back(r);
    std::cout << "matrix clock-share-probe backend=" << r.backend
              << " threads=" << r.threads
              << " clock_shared=" << r.clock_shared
              << " ops/s=" << r.ops_per_sec << "\n";
  }

  // Adaptive-governor column: the write-heavy contended mix re-run with
  // every worker's retry loop driven by an rt::AdaptiveGovernor (fresh per
  // cell, bound to the cell's TM) instead of the static default policy —
  // the closed telemetry feedback loop of DESIGN.md §14 measured next to
  // the static cells it is chartered to match. Epochs tick on commit
  // cadence, so governor_epochs > 0 on any box; shifts appear only when
  // the box produces real contention.
  {
    rt::GovernorConfig gcfg;
    gcfg.epoch_commits = 128;  // several epochs even in the quick cells
    for (const tm::TmKind kind : tm::all_tm_kinds()) {
      MixParams p;
      p.threads = 8;
      p.read_pct = kWriteHeavy.read_pct;
      p.registers = kWriteHeavy.registers;
      p.txn_size = kWriteHeavy.txn_size;
      p.txns_per_thread = txns;
      ThroughputRow best =
          measure_mix(kind, p, /*seed=*/41, tm::TmConfig{}, &gcfg);
      for (int rep = 1; rep < std::max(repeats - 3, 2); ++rep) {
        ThroughputRow r =
            measure_mix(kind, p, 41 + rep, tm::TmConfig{}, &gcfg);
        if (r.ops_per_sec > best.ops_per_sec) best = r;
      }
      best.workload = "write-heavy-adaptive";
      result.adaptive_epochs += best.governor_epochs;
      rows.push_back(best);
      const auto& r = rows.back();
      std::cout << "matrix write-heavy-adaptive backend=" << r.backend
                << " threads=" << r.threads << " ops/s=" << r.ops_per_sec
                << " epochs=" << r.governor_epochs
                << " shifts=" << r.governor_shifts << "\n";
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Trace-overhead probe: the measured cell that gates TmConfig::trace's
// disabled path. Two write-heavy 8-thread tl2fused cells — tracing off
// (the single predictable branch per slow-path site) and tracing on (the
// full ring/heat pipeline) — plus one kept traced instance whose metrics
// snapshot embeds into the JSON and whose ring drains to --trace <path>.
// ---------------------------------------------------------------------------

struct TraceProbeResult {
  ThroughputRow off;         ///< tracing disabled (workload "trace-off")
  ThroughputRow on;          ///< tracing enabled (workload "trace-on")
  std::string metrics_json;  ///< rt::to_json of the traced cell's registry
  std::uint64_t trace_events = 0;   ///< events drained from the export run
  std::uint64_t trace_dropped = 0;  ///< ring-overflow drops in that run
};

TraceProbeResult run_trace_probe(bool quick, const std::string& trace_path) {
  MixParams p;
  p.threads = 8;
  p.read_pct = kWriteHeavy.read_pct;
  p.registers = kWriteHeavy.registers;
  p.txn_size = kWriteHeavy.txn_size;
  p.txns_per_thread = quick ? 500 : 6000;
  const int repeats = quick ? 2 : 4;

  TraceProbeResult result;
  // Disabled path: the default config. Warm up, then best-of-N.
  (void)measure_mix(tm::TmKind::kTl2Fused, p, /*seed=*/3);
  result.off = measure_mix(tm::TmKind::kTl2Fused, p, /*seed=*/7);
  for (int rep = 1; rep < repeats; ++rep) {
    ThroughputRow r = measure_mix(tm::TmKind::kTl2Fused, p, 7 + rep);
    if (r.ops_per_sec > result.off.ops_per_sec) result.off = r;
  }
  result.off.workload = "trace-off";

  // Enabled path: same cell, full lifecycle tracing + conflict heat map.
  tm::TmConfig traced;
  traced.trace.enabled = true;
  result.on = measure_mix(tm::TmKind::kTl2Fused, p, /*seed=*/21, traced);
  for (int rep = 1; rep < repeats; ++rep) {
    ThroughputRow r = measure_mix(tm::TmKind::kTl2Fused, p, 21 + rep, traced);
    if (r.ops_per_sec > result.on.ops_per_sec) result.on = r;
  }
  result.on.workload = "trace-on";

  // Export run: one more traced phase on a kept instance, so the metrics
  // snapshot and (with --trace) the Chrome trace dump describe a real
  // workload rather than an empty TM.
  traced.num_registers = p.registers;
  auto tmi = tm::make_tm(tm::TmKind::kTl2Fused, traced);
  (void)run_mix_phase(*tmi, p, /*seed=*/31);
  rt::MetricsRegistry registry;
  registry.add_counters(&tmi->stats());
  registry.set_trace(tmi->trace_ptr());
  const rt::MetricsSnapshot snap = registry.snapshot();
  result.metrics_json = rt::to_json(snap);
  result.trace_dropped = snap.trace_dropped;
  if (!trace_path.empty()) {
    const std::vector<rt::TraceEvent> events = tmi->trace().drain();
    result.trace_events = events.size();
    if (!rt::write_chrome_trace(trace_path, events,
                                tmi->trace().dropped())) {
      std::cerr << "failed to write " << trace_path << "\n";
    } else {
      std::cout << "wrote " << events.size() << " trace events to "
                << trace_path << "\n";
    }
    std::ofstream prom(trace_path + ".prom");
    if (prom) prom << rt::to_prometheus(snap);
  }
  return result;
}

/// The previous allocator's alloc-free cells, re-measured on the same box
/// right before the PR 4 allocator landed (full-mode rounds, best-of-4):
/// the "before" of the before/after schema 3 records. The magazine +
/// batched-limbo allocator is chartered to beat these at 8 threads.
constexpr const char* kAllocFreeBaselineNote =
    "PR 3 single-lock exact-size allocator (commit 51dc293), same box, "
    "full-mode alloc-free cell, measured 2026-07-30";
const std::vector<BaselineRow> kAllocFreeBaseline = {
    {"tl2", 1, 4880230},  {"tl2fused", 1, 5389270},
    {"norec", 1, 6151930}, {"glock", 1, 5988940},
    {"tl2", 2, 4586940},  {"tl2fused", 2, 4969290},
    {"norec", 2, 5536960}, {"glock", 2, 5498450},
    {"tl2", 4, 2963790},  {"tl2fused", 4, 4321280},
    {"norec", 4, 5093490}, {"glock", 4, 4987330},
    {"tl2", 8, 3787750},  {"tl2fused", 8, 4086380},
    {"norec", 8, 4485980}, {"glock", 8, 4657710},
};

/// The pre-sharding allocator + fetch_add-clock configuration (PR 6,
/// commit 9ed7537), re-measured on the same box right before the sharded
/// store / batched clock landed: the "before" of the schema-5 before/after
/// on the two cells the sharding PR is chartered to move at 8 threads.
constexpr const char* kPr6BaselineNote =
    "PR 6 unsharded free store + fetch_add clock (commit 9ed7537), same "
    "box, full-mode write-heavy and mixed-churn cells, measured 2026-08-07";
const std::vector<BaselineRow> kPr6Baseline = {
    {"tl2", 8, 3567650, "write-heavy"},
    {"tl2fused", 8, 5178870, "write-heavy"},
    {"norec", 8, 5883450, "write-heavy"},
    {"glock", 8, 7310110, "write-heavy"},
    {"tl2", 8, 4180600, "mixed-churn"},
    {"tl2fused", 8, 4913810, "mixed-churn"},
    {"norec", 8, 6469910, "mixed-churn"},
    {"glock", 8, 6528770, "mixed-churn"},
};

/// Report the headline ratio the fused backend is chartered to deliver:
/// tl2fused vs tl2 at the highest measured thread count on the write-heavy
/// mix (identified by its kWorkloads entry, so the filter tracks edits).
void report_fused_speedup(const std::vector<ThroughputRow>& rows) {
  std::size_t top_threads = 0;
  for (const auto& r : rows) {
    if (r.workload == kWriteHeavy.label && r.threads > top_threads) {
      top_threads = r.threads;
    }
  }
  double tl2 = 0.0, fused = 0.0;
  for (const auto& r : rows) {
    if (r.threads == top_threads && r.workload == kWriteHeavy.label) {
      if (r.backend == "tl2") tl2 = r.ops_per_sec;
      if (r.backend == "tl2fused") fused = r.ops_per_sec;
    }
  }
  if (tl2 > 0.0 && fused > 0.0) {
    std::cout << "tl2fused/tl2 speedup (" << top_threads
              << " threads, " << kWriteHeavy.label << "): " << fused / tl2
              << "x\n";
  }
}

}  // namespace
}  // namespace privstm::bench

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }

  auto result = privstm::bench::run_matrix(quick);
  const auto probe = privstm::bench::run_trace_probe(quick, trace_path);
  result.rows.push_back(probe.off);
  result.rows.push_back(probe.on);
  std::cout << "trace probe: off=" << probe.off.ops_per_sec
            << " ops/s, on=" << probe.on.ops_per_sec << " ops/s ("
            << (probe.off.ops_per_sec > 0.0
                    ? probe.on.ops_per_sec / probe.off.ops_per_sec
                    : 0.0)
            << "x), dropped=" << probe.trace_dropped << "\n";
  const auto& rows = result.rows;
  // Quick (smoke) results go to a separate file so a pre-push `ci.sh` run
  // never clobbers the committed full-matrix trajectory.
  const char* path =
      quick ? "BENCH_tm_throughput.quick.json" : "BENCH_tm_throughput.json";
  if (privstm::bench::write_throughput_json(
          path, rows, privstm::tm::AllocConfig{},
          privstm::bench::kAllocFreeBaselineNote,
          privstm::bench::kAllocFreeBaseline,
          privstm::bench::kPr6BaselineNote, privstm::bench::kPr6Baseline,
          probe.metrics_json)) {
    std::cout << "wrote " << rows.size() << " rows to " << path << "\n";
  } else {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  privstm::bench::report_fused_speedup(rows);
  // CI smoke gate: the allocator-heavy cells must exercise batched
  // reclamation — a zero here means frees stopped flowing through the
  // batched limbo (e.g. a refactor silently re-enabled per-free tickets
  // or never sealed batches).
  if (quick && result.limbo_batches == 0) {
    std::cerr << "FAIL: no limbo batches retired across the alloc-free / "
                 "mixed-churn smoke cells (kLimboBatchRetired == 0)\n";
    return 1;
  }
  std::cout << "limbo batches retired across alloc cells: "
            << result.limbo_batches << "\n";
  // Sharded-store gate: mixed-churn spreads freed blocks across every
  // store shard, so its refills must steal from siblings at least once —
  // zero means the steal tier silently stopped running in front of the
  // central lock (or the store degenerated to one shard).
  if (quick && result.churn_shard_steals == 0) {
    std::cerr << "FAIL: no sibling-shard steals across the mixed-churn "
                 "smoke cells (kAllocShardSteal == 0)\n";
    return 1;
  }
  std::cout << "shard steals across mixed-churn cells: "
            << result.churn_shard_steals << "\n";
  // GV4 share-path gate: the staged-rival probe cells must adopt stamps.
  if (quick && result.probe_clock_shared == 0) {
    std::cerr << "FAIL: the clock-share probe cells adopted no stamps "
                 "(kClockStampShared == 0)\n";
    return 1;
  }
  std::cout << "clock stamps shared across probe cells: "
            << result.probe_clock_shared << "\n";
  // Adaptive-governor gate: the governed cells must actually evaluate
  // epochs — zero means the retry loop stopped feeding the governor (or
  // note_commit stopped triggering evaluations), i.e. the feedback loop
  // is open again.
  if (quick && result.adaptive_epochs == 0) {
    std::cerr << "FAIL: the adaptive cells evaluated no governor epochs "
                 "(kGovernorEpoch == 0)\n";
    return 1;
  }
  std::cout << "governor epochs across adaptive cells: "
            << result.adaptive_epochs << "\n";
  // Disabled-path overhead gate: with tracing off, the probe cell runs the
  // exact workload of the matrix's write-heavy tl2fused 8-thread cell, so
  // it must land within noise of it — a regression here means the trace
  // plumbing started costing something with the knob off. The tolerance is
  // deliberately loose (0.5x) because the quick cells are short and the
  // comparison is cross-phase on a shared box.
  double matrix_ref = 0.0;
  for (const auto& r : rows) {
    if (r.workload == "write-heavy" && r.backend == "tl2fused" &&
        r.threads == 8) {
      matrix_ref = r.ops_per_sec;
    }
  }
  if (matrix_ref > 0.0 && probe.off.ops_per_sec < 0.5 * matrix_ref) {
    std::cerr << "FAIL: tracing-disabled throughput regressed: probe "
              << probe.off.ops_per_sec << " ops/s vs matrix reference "
              << matrix_ref << " ops/s (tolerance 0.5x)\n";
    return 1;
  }
  // Enabled-path sanity: lifecycle tracing is slow-path-only, so even the
  // full pipeline must keep a substantial fraction of the throughput.
  if (probe.off.ops_per_sec > 0.0 &&
      probe.on.ops_per_sec < 0.35 * probe.off.ops_per_sec) {
    std::cerr << "FAIL: tracing-enabled throughput collapsed: "
              << probe.on.ops_per_sec << " ops/s vs disabled "
              << probe.off.ops_per_sec << " ops/s (tolerance 0.35x)\n";
    return 1;
  }

  if (!quick) {
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
