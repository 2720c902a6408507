// The quiescence subsystem: one shared home for everything a transactional
// fence needs (DESIGN.md §5).
//
// `QuiescenceManager` owns the thread registry, the fence policy/mode
// dispatch and the fence statistics for one TM instance. Backends never
// touch `ThreadRegistry::quiesce` directly — they fence through the
// manager (via `tm::FenceSession`). It runs two kinds of engine:
//
//  * Synchronous fences (`fence`) run one of the two per-fence registry
//    scans, chosen by FenceMode: kEpochCounter (default) or kPaperBoolean
//    (the literal Fig 7 loop). Every fence snapshots the claimed registry
//    slots itself and waits them out (`ThreadRegistry::quiesce`).
//
//  * Asynchronous fences (`fence_async` / `fence_try_complete` /
//    `fence_wait`) and deferred-reclamation tickets (the tm/alloc limbo
//    list) use the grace-period engine, whatever the FenceMode: a ticket
//    must stay valid with no per-fence state. A single global sequence
//    word `seq_` counts grace-period *scans*: even = no scan in flight,
//    odd = a scan is in flight. Issuing reads `s0 = seq_` and computes a
//    ticket (target sequence): `s0 + 2` when `s0` is even — the first
//    scan that *starts after the read* must also *finish*. Any waiter may
//    elect itself the scanner (publish seq odd, then snapshot), and all
//    waiters cooperatively poll the shared scan, so concurrent tickets
//    share one registry scan per grace period instead of one per fence —
//    RCU-style `synchronize` coalescing. Issuing is O(1); completion is
//    polled (`fence_try_complete`) or awaited (`fence_wait`) later, with
//    every poller helping the shared scan forward.
//
//    Soundness of the even-s0 rule: the scanner publishes "scan in
//    flight" (seq odd) *before* taking its snapshot. A ticket issued at
//    an even `s0` therefore read it before that transition, so the
//    covering scan's snapshot postdates the issue; every transaction
//    active at issue is either finished or observed active (odd) by the
//    snapshot and waited out — exactly condition 10 of Definition 2.1.
//
//    When `s0` is odd a scan is in flight whose snapshot may predate the
//    issue, so it cannot cover the ticket as-is — but the ticket may
//    *join* it at `s0 + 1` iff every slot observed active right now is
//    still in the scan's waiting set with the same activity-word value:
//    the scan then completes only once each such word moved past the
//    very value observed, i.e. the observed transaction finished (words
//    are monotonic counters). Joining adds no requirement, so it never
//    delays other tickets and cannot livelock the scan; when the join
//    test fails the ticket falls back to the completion of the *next*
//    scan (`s0 + 3`).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/cacheline.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/trace.hpp"

namespace privstm::rt {

/// Where transactional fences come from (experiments E5/E6/E10). Lives in
/// the runtime layer because the quiescence subsystem owns the dispatch;
/// `tm::FencePolicy` aliases it.
enum class FencePolicy : std::uint8_t {
  kNone,               ///< fences are no-ops — the *unsafe* configuration
  kSelective,          ///< programmer-placed fence() calls quiesce
  kAlways,             ///< additionally auto-fence after every commit
  kSkipAfterReadOnly,  ///< auto-fence after writing commits only — the GCC
                       ///< libitm bug [43]: read-only commits skip quiescence
};

const char* fence_policy_name(FencePolicy p) noexcept;

/// An asynchronous fence handle: the grace-period sequence value whose
/// completion discharges the fence. Plain data — cheap to copy, no
/// per-ticket allocation, monotonic (later issues never get smaller
/// targets, so completion respects issue order).
using FenceTicket = std::uint64_t;

/// Ticket of a no-op fence (FencePolicy::kNone): already complete.
inline constexpr FenceTicket kNullFenceTicket = 0;

class QuiescenceManager {
 public:
  /// `stats` must outlive the manager (the owning TM instance holds both).
  QuiescenceManager(StatsDomain& stats, FencePolicy policy,
                    FenceMode mode) noexcept
      : stats_(stats), policy_(policy), mode_(mode) {}

  QuiescenceManager(const QuiescenceManager&) = delete;
  QuiescenceManager& operator=(const QuiescenceManager&) = delete;

  ThreadRegistry& registry() noexcept { return registry_; }
  const ThreadRegistry& registry() const noexcept { return registry_; }
  FencePolicy policy() const noexcept { return policy_; }
  FenceMode mode() const noexcept { return mode_; }

  /// Blocking transactional fence: the configured registry scan. Counts
  /// kFence. Policy gating (kNone → no-op) is the caller's job
  /// (tm::FenceSession).
  void fence(std::size_t stat_slot) noexcept;

  /// Issue an asynchronous fence: O(1), never blocks. Counts
  /// kFenceAsyncIssued. The ticket completes once every transaction active
  /// at this call has finished.
  FenceTicket fence_async(std::size_t stat_slot) noexcept;

  /// One bounded, non-blocking completion attempt: helps the shared scan
  /// forward and reports whether the ticket's grace periods have elapsed.
  /// Counts the fence (kFence/kFenceCoalesced) when it reports true, so
  /// callers must stop polling a ticket once it completed
  /// (tm::FenceSession enforces this).
  bool fence_try_complete(FenceTicket ticket, std::size_t stat_slot) noexcept;

  /// Block until the ticket completes, scanning/helping as needed. Must
  /// not be called inside a transaction of the waiting thread (the grace
  /// period would wait for the waiter). Counts like fence_try_complete.
  void fence_wait(FenceTicket ticket, std::size_t stat_slot) noexcept;

  /// Current grace-period sequence (diagnostics/tests): number of scan
  /// starts plus scan completions since construction.
  std::uint64_t grace_period_seq() const noexcept {
    return seq_->load(std::memory_order_acquire);
  }

  /// Count an event against this manager's stats domain — for collaborators
  /// that share the domain (tm::FenceSession counts its async-overflow
  /// degradation here).
  void count(std::size_t stat_slot, Counter c,
             std::uint64_t n = 1) noexcept {
    stats_.add(stat_slot, c, n);
  }

  /// Arm grace-period-scan trace spans (null = disabled, the default).
  /// Scan events go to the trace domain's shared slot: the elected scanner
  /// and the completing poller may be different threads, so the span must
  /// live on one stable pseudo-thread stream.
  void set_trace(TraceDomain* trace) noexcept { trace_ = trace; }

  /// Epoch-reclamation hooks (the tm/alloc limbo list). A ticket's
  /// completion guarantees every transaction active at issue time has
  /// finished — the same grace-period engine as fence_async, but *not* a
  /// fence: nothing is recorded and no fence statistics are counted, so
  /// deferred-free bookkeeping never perturbs the fence counters that
  /// experiments assert on.
  ///
  /// Batching: one ticket may cover a whole batch of frees when it is
  /// issued *after* the last free of the batch — any transaction active
  /// at some free() is either finished by issue time or active at issue
  /// time and therefore waited out (tm/alloc/limbo.hpp leans on this).
  /// Counter::kLimboBatchRetired tracks retired batches via count().
  FenceTicket issue_ticket() noexcept { return grace_period_target(); }

  /// One bounded, non-blocking attempt to elapse a reclamation ticket,
  /// helping the shared scan forward. True once the grace period passed.
  bool try_elapse_ticket(FenceTicket ticket) noexcept;

  /// Pure peek: has the ticket's grace period already passed? Never
  /// helps the scan — cheap enough for per-batch front-of-queue probes.
  bool ticket_elapsed(FenceTicket ticket) const noexcept;

 private:
  /// Target sequence for a ticket issued now (see file comment).
  FenceTicket grace_period_target() noexcept;

  /// Elect this thread the scanner if no scan is in flight: publish seq
  /// odd, then snapshot the claimed slots. Returns whether a scan started.
  bool try_start_scan() noexcept;

  /// Re-check the in-flight scan's waiting slots once; completes the scan
  /// (seq odd→even) when none remain. Returns whether THIS call performed
  /// the completing bump (the discriminator behind kFenceCoalesced).
  bool poll_scan() noexcept;

  /// Shared body of fence_try_complete / fence_wait / try_elapse_ticket:
  /// drive the engine until the ticket completes (`block`) or progress
  /// stalls (!`block`); returns whether it completed. `self_finished`
  /// reports whether THIS call performed the bump that reached the
  /// ticket — a fence completing without it rode another thread's scan.
  bool drive(FenceTicket ticket, bool block, bool& self_finished) noexcept;

  /// Fence accounting for a completed ticket: kFence, plus
  /// kFenceCoalesced when another thread's scan (partly) served it.
  void count_fence(std::size_t stat_slot, bool self_finished) noexcept;

  ThreadRegistry registry_;
  StatsDomain& stats_;
  TraceDomain* trace_ = nullptr;  ///< null when tracing is disabled
  const FencePolicy policy_;
  const FenceMode mode_;

  /// Grace-period sequence word; isolated so waiter polling does not drag
  /// the scan state's cache lines around.
  CacheAligned<std::atomic<std::uint64_t>> seq_{};

  /// In-flight scan state, filled by the elected scanner and drained by
  /// cooperative pollers; scan_lock_ protects all of it. The lock is only
  /// ever try_lock'ed from the polling side, so no fence blocks on it.
  SpinLock scan_lock_;
  std::array<std::uint64_t, ThreadRegistry::kMaxThreads> scan_snapshot_{};
  std::array<std::uint8_t, ThreadRegistry::kMaxThreads> scan_waiting_{};
  std::size_t scan_nslots_ = 0;
  std::size_t scan_nwaiting_ = 0;
};

}  // namespace privstm::rt
