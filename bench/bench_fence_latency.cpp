// Experiment E7 — fence latency as a function of in-flight transaction
// duration (the RCU grace-period cost).
//
// Shape: a transactional fence blocks until every transaction active at
// its start completes, so its latency tracks the length of the longest
// concurrent transaction; with no active transactions it is O(#threads)
// flag loads. Also compares the epoch-counter fence against the
// paper-faithful boolean scan under back-to-back transactions (the boolean
// scan can observe much longer waits because it must catch a thread
// *between* transactions).
#include <atomic>

#include "bench_common.hpp"
#include "runtime/backoff.hpp"

namespace privstm::bench {
namespace {

using tm::FencePolicy;
using tm::TmKind;

/// Fence latency with `workers` threads running transactions of
/// `txn_spins` busy-work each, under the given fence mode.
void fence_latency(benchmark::State& state, rt::FenceMode mode) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto txn_spins = static_cast<std::uint32_t>(state.range(1));

  tm::TmConfig config;
  config.num_registers = 64;
  config.fence_mode = mode;
  auto tmi = tm::make_tm(TmKind::kTl2, config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (std::size_t t = 0; t < workers; ++t) {
    churn.emplace_back([&, t] {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(t + 1),
                                      nullptr);
      hist::Value tag = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        tm::run_tx(*session, [&](tm::TxScope& tx) {
          tx.write(static_cast<hist::RegId>(t), ((tag++) << 8) | (t + 1));
          for (std::uint32_t s = 0; s < txn_spins; ++s) rt::cpu_relax();
        });
      }
    });
  }

  auto fencer = tmi->make_thread(0, nullptr);
  std::uint64_t fences = 0;
  for (auto _ : state) {
    fencer->fence();
    ++fences;
  }
  stop.store(true);
  for (auto& w : churn) w.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(fences));
}

void BM_FenceLatency_Epoch(benchmark::State& state) {
  fence_latency(state, rt::FenceMode::kEpochCounter);
}
void BM_FenceLatency_PaperBoolean(benchmark::State& state) {
  fence_latency(state, rt::FenceMode::kPaperBoolean);
}

void apply_args(benchmark::internal::Benchmark* b) {
  // workers × txn busy-work spins: latency should scale with txn length.
  for (int workers : {1, 2}) {
    for (int spins : {0, 1000, 10000, 100000}) {
      b->Args({workers, spins});
    }
  }
  b->Unit(benchmark::kMicrosecond)->UseRealTime()->MinTime(0.05);
}

BENCHMARK(BM_FenceLatency_Epoch)->Apply(apply_args);
BENCHMARK(BM_FenceLatency_PaperBoolean)->Apply(apply_args);

// Idle fence cost (no transactions at all): the floor.
void BM_FenceLatency_Idle(benchmark::State& state) {
  tm::TmConfig config;
  config.num_registers = 8;
  auto tmi = tm::make_tm(TmKind::kTl2, config);
  auto fencer = tmi->make_thread(0, nullptr);
  for (auto _ : state) fencer->fence();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FenceLatency_Idle)->Unit(benchmark::kNanosecond)->MinTime(0.05);

}  // namespace
}  // namespace privstm::bench
