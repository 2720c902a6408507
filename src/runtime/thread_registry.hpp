// Thread registry and activity tracking: the substrate for transactional
// fences (Fig 7, lines 33–39 of the paper).
//
// Every TM thread owns a slot holding an *activity word*. A transactional
// fence (`quiesce`) blocks until every transaction that was active when the
// fence began has completed (committed or aborted) — exactly condition 10 of
// Definition 2.1, and the same grace-period semantics as RCU [31].
//
// A synchronous fence runs one of the two per-fence registry scans below
// (FenceMode, DESIGN.md §5). Asynchronous fences and deferred-reclamation
// tickets use the grace-period engine in rt::QuiescenceManager
// (runtime/quiescence.hpp), which owns a registry and drives its words
// with kEpochCounter semantics:
//
//  * kEpochCounter (default): the activity word is a counter; even means
//    quiescent, odd means inside a transaction. tx_enter/tx_exit increment
//    it. The fence snapshots all words and, for each odd snapshot, waits
//    until the word *changes*. This is live even when a thread runs
//    back-to-back transactions, because the word never returns to a
//    previously observed odd value.
//
//  * kPaperBoolean: the literal two-loop algorithm of Fig 7 over a boolean
//    flag (`r[t] := active[t]; ... while (active[t]);`). Faithful to the
//    paper; can starve under continuous transactions (the word oscillates
//    between 0 and 1 and the waiter may keep observing 1). The litmus
//    tests run it to demonstrate faithfulness, and bench_fence_latency
//    measures it as the reference against kEpochCounter.
//
// Scans cover only the claimed-slot prefix: `register_thread` maintains a
// monotonic high-water mark published before a slot's owner can run its
// first transaction, so fences touch high_water() slots, not kMaxThreads.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/cacheline.hpp"

namespace privstm::rt {

enum class FenceMode : std::uint8_t {
  kEpochCounter,  ///< robust parity/grace-period fence (default)
  kPaperBoolean,  ///< literal Fig 7 boolean scan
};

const char* fence_mode_name(FenceMode m) noexcept;

class ThreadRegistry {
 public:
  static constexpr std::size_t kMaxThreads = 64;
  static constexpr int kInvalidSlot = -1;

  ThreadRegistry() = default;
  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// Claim a free slot; returns its index. Aborts if the registry is full
  /// (a configuration error, not a runtime condition).
  int register_thread() noexcept;

  /// Release a slot. The thread must not be inside a transaction.
  void unregister_thread(int slot) noexcept;

  /// Transaction begin: mark the slot active (`active[t] := true`).
  void tx_enter(int slot) noexcept;

  /// Transaction end (commit or abort handler): mark quiescent
  /// (`active[t] := false`).
  void tx_exit(int slot) noexcept;

  /// Direct reference to a slot's activity word, for TM fast paths that
  /// want to inline the tx_enter/tx_exit parity bumps (the word's protocol
  /// is fixed: acq_rel fetch_add(1), odd = inside a transaction).
  std::atomic<std::uint64_t>& activity_word(int slot) noexcept {
    return slots_[static_cast<std::size_t>(slot)]->activity;
  }

  /// True if the slot currently runs a transaction.
  bool is_active(int slot) const noexcept;

  /// The transactional fence: block until every transaction active at the
  /// time of the call has completed. Does NOT wait for transactions that
  /// begin after the fence does (the af-ordering of §3 takes care of those).
  void quiesce(FenceMode mode = FenceMode::kEpochCounter) const noexcept;

  /// Number of currently registered threads (diagnostics only).
  std::size_t registered_count() const noexcept;

  /// Number of slots that are currently inside a transaction.
  std::size_t active_count() const noexcept;

  /// Upper bound on claimed slot indices: every slot that has ever been
  /// registered lies in [0, high_water()). Monotonic — it never shrinks on
  /// unregister — and published before a new slot's owner can start a
  /// transaction, so scanning this prefix is a sound fence.
  std::size_t high_water() const noexcept {
    return high_water_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    /// Parity-counter activity word (see file comment). In kPaperBoolean
    /// mode the fence interprets it as a boolean: nonzero parity == active.
    std::atomic<std::uint64_t> activity{0};
    std::atomic<bool> in_use{false};
  };

  std::array<CacheAligned<Slot>, kMaxThreads> slots_{};
  std::atomic<std::size_t> high_water_{0};  ///< claimed-slot prefix bound
};

/// RAII slot ownership: registers on construction, unregisters on
/// destruction. TM thread contexts hold one of these.
class ThreadSlotGuard {
 public:
  explicit ThreadSlotGuard(ThreadRegistry& registry) noexcept
      : registry_(&registry), slot_(registry.register_thread()) {}

  ~ThreadSlotGuard() {
    if (slot_ != ThreadRegistry::kInvalidSlot) {
      registry_->unregister_thread(slot_);
    }
  }

  ThreadSlotGuard(const ThreadSlotGuard&) = delete;
  ThreadSlotGuard& operator=(const ThreadSlotGuard&) = delete;
  ThreadSlotGuard(ThreadSlotGuard&& other) noexcept
      : registry_(other.registry_), slot_(other.slot_) {
    other.slot_ = ThreadRegistry::kInvalidSlot;
  }
  ThreadSlotGuard& operator=(ThreadSlotGuard&&) = delete;

  int slot() const noexcept { return slot_; }

 private:
  ThreadRegistry* registry_;
  int slot_;
};

}  // namespace privstm::rt
