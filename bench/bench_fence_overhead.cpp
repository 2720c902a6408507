// Coalesced multi-privatizer fence throughput (experiment E14), persisted
// as BENCH_fence_overhead.json.
//
// E14 is the headline experiment of the quiescence subsystem (DESIGN.md
// §5): against background transaction churn, N privatizer threads run
// claim-then-fence privatization rounds, and we measure aggregate fence
// throughput under
//   * "scan"      — per-fence-scan engine (FenceMode::kEpochCounter): every
//                   fence snapshots the registry and waits out its own
//                   grace period on the round's critical path; N concurrent
//                   privatizers pay N redundant scans and N redundant
//                   waits, and the blocking API caps each thread at one
//                   fence per grace period;
//   * "async"     — the coalesced grace-period engine driven through
//                   fence_async(): concurrent tickets ride one registry
//                   scan per grace period, and each privatizer keeps a
//                   depth-3 pipeline of tickets in flight, so grace periods
//                   elapse underneath subsequent claims and a thread
//                   retires several fences per grace period — the
//                   deferred-privatization idiom.
// The sweep persists BENCH_fence_overhead.json (fences/s per mode × thread
// count plus the async/scan ratio at the top thread count) so the perf
// trajectory is comparable across PRs.
//
// `--quick` runs the sweep against smaller sizes and writes the
// .quick.json variant — the CI smoke configuration. `--check` exits
// nonzero if the async mode regresses below the per-fence-scan mode at
// the top measured thread count — the CI regression gate for the
// subsystem.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/backoff.hpp"

namespace privstm::bench {
namespace {

using tm::TmKind;

enum class StormMode { kScan, kAsync };

const char* storm_mode_name(StormMode m) {
  switch (m) {
    case StormMode::kScan:
      return "scan";
    case StormMode::kAsync:
      return "async";
  }
  return "?";
}

struct StormParams {
  std::size_t threads = 8;            ///< privatizers (pipeline rounds)
  std::size_t background_threads = 2; ///< back-to-back transaction churn
  std::size_t fences_per_thread = 30;
  std::uint32_t churn_txn_spins = 20000;  ///< busy work per churn transaction
  /// Per-round private work on the privatized buffer, off-CPU (an I/O-like
  /// pipeline stage: flush/process the buffer) — 0 keeps the privatizers
  /// fence-bound, which is the regime the async engine targets.
  std::uint32_t work_us = 0;
};

struct FenceRow {
  std::string mode;
  std::size_t threads = 0;
  std::uint64_t fences = 0;
  std::uint64_t coalesced = 0;
  double secs = 0.0;
  double fences_per_sec = 0.0;
};

/// One storm phase: `background_threads` run write transactions back to
/// back (the churn every fence's grace period must wait out), while
/// `threads` privatizers run privatization rounds
///   claim (txn) → fence → private work (`work_us` off-CPU per buffer).
/// Under the per-fence-scan engine every privatizer pays its own grace
/// period against the churn on the critical path of every round; the
/// async mode shares one registry scan per grace period among all
/// concurrent tickets and software-pipelines three buffers
/// with two tickets in flight — claim B_i and *issue* its fence, work on
/// B_{i-2} (whose ticket was completed at the top of the round) — so the
/// grace period elapses entirely underneath useful work instead of
/// stalling every round.
///
/// The churn threads are started first and the measured window opens only
/// once each has committed a transaction (i.e. the churn is genuinely in
/// flight); otherwise — especially on small core counts — the privatizers
/// can burn through their fences before the background ever begins and
/// the grace periods being measured are empty.
FenceRow run_fence_storm(StormMode mode, const StormParams& p) {
  const std::size_t all_threads = p.threads + p.background_threads;
  tm::TmConfig config;
  config.num_registers = 4 * all_threads + 2;
  auto tmi = tm::make_tm(TmKind::kTl2Fused, config);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> churn_ready{0};
  std::vector<std::thread> churn;
  for (std::size_t c = 0; c < p.background_threads; ++c) {
    churn.emplace_back([&, c] {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(c), nullptr);
      const auto reg = static_cast<hist::RegId>(c);
      hist::Value tag = (static_cast<hist::Value>(c) + 1) << 40;
      bool announced = false;
      while (!stop.load(std::memory_order_relaxed)) {
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          tx.write(reg, ++tag);
          for (std::uint32_t s = 0; s < p.churn_txn_spins; ++s) {
            rt::cpu_relax();
          }
        });
        if (!announced) {
          announced = true;
          churn_ready.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  while (churn_ready.load(std::memory_order_acquire) <
         p.background_threads) {
    std::this_thread::yield();
  }

  const auto start = std::chrono::steady_clock::now();
  parallel_phase(p.threads, [&](std::size_t t) {
    const std::size_t id = p.background_threads + t;
    auto session = tmi->make_thread(static_cast<hist::ThreadId>(id), nullptr);
    // Four buffers per privatizer (the async pipeline cycles them with
    // three fences in flight).
    constexpr std::size_t kDepth = 4;
    std::array<hist::RegId, kDepth> bufs;
    for (std::size_t b = 0; b < kDepth; ++b) {
      bufs[b] = static_cast<hist::RegId>(b * all_threads + id);
    }
    hist::Value tag = (static_cast<hist::Value>(id) + 1) << 40;
    const auto work = [&](hist::RegId buf) {
      if (p.work_us != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(p.work_us));
      }
      session->nt_write(buf, ++tag);
    };
    if (mode == StormMode::kAsync) {
      // Depth-3 software pipeline: the ticket issued for buffer i is
      // completed at the top of round i+3, by which point three rounds
      // have elapsed underneath its grace period — a thread keeps several
      // privatizations in flight per grace period, which the blocking
      // per-fence API structurally cannot do.
      constexpr std::size_t kInFlight = kDepth - 1;
      std::array<rt::FenceTicket, kDepth> tickets{};
      for (std::size_t i = 0; i < p.fences_per_thread; ++i) {
        const std::size_t cur = i % kDepth;
        if (i >= kInFlight) {
          const std::size_t done = (i - kInFlight) % kDepth;
          session->fence_wait(tickets[done]);
          work(bufs[done]);
        }
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          tx.write(bufs[cur], ++tag);
        });
        tickets[cur] = session->fence_async();
      }
      // Drain the pipeline tail.
      for (std::size_t i = p.fences_per_thread >= kInFlight
                               ? p.fences_per_thread - kInFlight
                               : 0;
           i < p.fences_per_thread; ++i) {
        const std::size_t done = i % kDepth;
        session->fence_wait(tickets[done]);
        work(bufs[done]);
      }
    } else {
      for (std::size_t i = 0; i < p.fences_per_thread; ++i) {
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          tx.write(bufs[0], ++tag);
        });
        session->fence();
        work(bufs[0]);
      }
    }
  });
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true, std::memory_order_relaxed);
  for (auto& c : churn) c.join();

  FenceRow row;
  row.mode = storm_mode_name(mode);
  row.threads = p.threads;
  row.fences = tmi->stats().total(rt::Counter::kFence);
  row.coalesced = tmi->stats().total(rt::Counter::kFenceCoalesced);
  row.secs = secs;
  row.fences_per_sec =
      secs > 0.0 ? static_cast<double>(row.fences) / secs : 0.0;
  return row;
}

std::vector<FenceRow> run_storm_matrix(bool quick) {
  const std::vector<std::size_t> threads_sweep =
      quick ? std::vector<std::size_t>{2, 8}
            : std::vector<std::size_t>{1, 2, 4, 8};
  StormParams p;
  p.fences_per_thread = quick ? 12 : 30;
  // Best-of-N (scheduler interference only lowers a measurement).
  const int repeats = quick ? 2 : 3;

  std::vector<FenceRow> rows;
  for (const std::size_t threads : threads_sweep) {
    for (const StormMode mode : {StormMode::kScan, StormMode::kAsync}) {
      p.threads = threads;
      (void)run_fence_storm(mode, p);  // warm-up
      FenceRow best = run_fence_storm(mode, p);
      for (int rep = 1; rep < repeats; ++rep) {
        FenceRow r = run_fence_storm(mode, p);
        if (r.fences_per_sec > best.fences_per_sec) best = r;
      }
      rows.push_back(best);
      const auto& r = rows.back();
      std::cout << "storm mode=" << r.mode << " threads=" << r.threads
                << " fences/s=" << r.fences_per_sec
                << " coalesced=" << r.coalesced << "\n";
    }
  }
  return rows;
}

double mode_rate_at(const std::vector<FenceRow>& rows, const char* mode,
                    std::size_t threads) {
  for (const auto& r : rows) {
    if (r.mode == mode && r.threads == threads) return r.fences_per_sec;
  }
  return 0.0;
}

bool write_fence_json(const std::string& path,
                      const std::vector<FenceRow>& rows, double async_ratio,
                      std::size_t top_threads) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"fence_overhead\",\n  \"schema\": 2,\n"
      << "  \"top_threads\": " << top_threads << ",\n"
      << "  \"coalesced_async_vs_scan\": " << async_ratio << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"threads\": " << r.threads
        << ", \"fences\": " << r.fences << ", \"coalesced\": " << r.coalesced
        << ", \"secs\": " << r.secs << ", \"fences_per_sec\": "
        << r.fences_per_sec << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace privstm::bench

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }

  using privstm::bench::FenceRow;
  const std::vector<FenceRow> rows = privstm::bench::run_storm_matrix(quick);
  std::size_t top_threads = 0;
  for (const auto& r : rows) top_threads = std::max(top_threads, r.threads);
  const double scan =
      privstm::bench::mode_rate_at(rows, "scan", top_threads);
  const double async_rate =
      privstm::bench::mode_rate_at(rows, "async", top_threads);
  // The headline number: the coalesced grace-period engine used the way
  // it is meant to be used under multi-privatizer load (deferred tickets,
  // pipelined) against the per-fence-scan baseline.
  const double async_ratio = scan > 0.0 ? async_rate / scan : 0.0;
  std::cout << "coalesced-engine (async, pipelined) vs scan ("
            << top_threads << " threads): " << async_ratio << "x\n";

  // Quick (smoke) results go to a separate file so a pre-push `ci.sh` run
  // never clobbers the committed full-matrix trajectory.
  const char* path =
      quick ? "BENCH_fence_overhead.quick.json" : "BENCH_fence_overhead.json";
  if (privstm::bench::write_fence_json(path, rows, async_ratio,
                                       top_threads)) {
    std::cout << "wrote " << rows.size() << " rows to " << path << "\n";
  } else {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }

  if (check && async_ratio < 1.0) {
    std::cerr << "FAIL: the async fence engine regressed below the "
                 "per-fence-scan mode ("
              << async_ratio << "x at " << top_threads << " threads)\n";
    return 1;
  }
  return 0;
}
