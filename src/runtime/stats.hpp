// Lightweight per-thread statistics counters for TMs and benchmarks.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "runtime/cacheline.hpp"

namespace privstm::rt {

/// Event classes tallied by the TM implementations. Benchmarks read them to
/// report abort rates and fence counts alongside throughput.
enum class Counter : std::size_t {
  kTxCommit = 0,
  kTxReadOnlyCommit,  ///< subset of kTxCommit taking the no-clock fast path
  kTxAbort,
  kTxReadValidationFail,
  kTxLockFail,
  kFence,
  kFenceCoalesced,    ///< subset of kFence served by another fence's scan
  kFenceAsyncIssued,  ///< fence_async tickets issued (completions → kFence)
  kFenceAsyncOverflow,  ///< fence_async calls past the outstanding-ticket
                        ///< window, degraded to a synchronous fence
  kNtRead,
  kNtWrite,
  kDoomedDetected,
  kPostconditionViolation,
  kAllocSharedRefill,   ///< tm_alloc/tm_free trips to the shared store
                        ///< (magazine refills + uncached slow paths) —
                        ///< the scalability discriminator: thread-local
                        ///< magazine hits never count here
  kLimboBatchRetired,   ///< freed-block batches whose grace period
                        ///< elapsed (one ticket covers a whole batch)
  kAllocCompaction,     ///< incremental compaction steps — each is a
                        ///< *bounded* spill of shard-bin blocks into the
                        ///< extent map (kCompactionSpillBudget blocks per
                        ///< trigger, resumed round-robin across shards),
                        ///< taken under the central lock only when a
                        ///< request cannot be served any other way.
                        ///< Same-size churn must never tick this
                        ///< (asserted in alloc_test).
  kTxRetryBackoff,      ///< contention-manager pauses taken between retry
                        ///< attempts (run_tx_retry; kBackoff/kKarma only)
  kTxEscalated,         ///< retry loops that escalated to the irrevocable
                        ///< serial mode (rt::SerialGate)
  kFaultInjected,       ///< faults injected by rt::FaultInjector (spurious
                        ///< aborts + lost CASes + bounded delays, all sites)
  kClockStampShared,    ///< commit stamps adopted from another committer's
                        ///< CAS (GlobalClock::advance_if_stale share
                        ///< branch) instead of minted by our own RMW —
                        ///< each one is a clock cache-line transfer saved
  kAllocShardSteal,     ///< magazine refills served by a *sibling* shard's
                        ///< bins after the home shard came up empty —
                        ///< sharding working as designed (a steal is still
                        ///< cheaper than falling through to the global
                        ///< extent map)
  kGovernorEpoch,       ///< adaptive-governor epoch evaluations (one per
                        ///< epoch_commits committed transactions under a
                        ///< governed retry loop; runtime/adaptive.hpp)
  kGovernorPolicyShift,  ///< governor epochs whose decision *changed* the
                         ///< live CmPolicy tier (adopted after hysteresis,
                         ///< not merely proposed)
  kFrozenWait,          ///< operations that met a frozen TxHashMap and
                        ///< waited outside any transaction for its
                        ///< unfreeze (TxHashMap::run_unfrozen)
  kAllocCapWait,        ///< allocations that found the arena at its cap
                        ///< and waited out a limbo batch's grace period
                        ///< instead of aborting (alloc::TxAllocator)
  kCount,
};

constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// The one name of a counter, Prometheus base style (no prefix/suffix):
/// kTxCommit => "tx_commits". Used by StatsDomain::summary(), the metrics
/// snapshot rows, and the exporters (`privstm_tx_commits_total`). Unique
/// and non-empty for every real Counter.
const char* counter_name(Counter c) noexcept;

/// Per-thread counter block; aggregate() sums across threads. Each thread's
/// block is cache-line isolated so counting does not perturb scalability
/// measurements.
class StatsDomain {
 public:
  static constexpr std::size_t kMaxThreads = 64;

  /// Single-writer per (thread, counter): a plain load + store pair instead
  /// of an atomic RMW — the lock-prefixed fetch_add costs ~20 cycles on the
  /// TM commit path for no benefit when only the owning thread writes the
  /// slot (readers aggregate with relaxed loads).
  void add(std::size_t thread, Counter c, std::uint64_t n = 1) noexcept {
    auto& v = blocks_[thread]->vals[static_cast<std::size_t>(c)];
    v.store(v.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  std::uint64_t total(Counter c) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& b : blocks_) {
      sum += b->vals[static_cast<std::size_t>(c)].load(
          std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() noexcept {
    for (auto& b : blocks_) {
      for (auto& v : b->vals) v.store(0, std::memory_order_relaxed);
    }
  }

  /// Render a one-line summary "tx_commits=... tx_aborts=... fences=..." for
  /// logs (nonzero counters only).
  std::string summary() const;

 private:
  struct Block {
    std::array<std::atomic<std::uint64_t>, kCounterCount> vals{};
  };
  std::array<CacheAligned<Block>, kMaxThreads> blocks_{};
};

}  // namespace privstm::rt
