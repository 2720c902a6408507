// The dynamic transactional heap: a growable location space with
// privatization-safe reclamation (DESIGN.md §9).
//
// The paper's headline use case for privatization is memory reclamation —
// a thread privatizes a node, fences, and only then reuses or frees the
// memory (§1–2). `TxHeap` is the TM-facing face of that: it owns the
// *value arena* and fronts the *allocation subsystem*:
//
//  * **Locations.** Values live in one flat, lazily-faulted arena: a
//    single anonymous mapping of kMaxLocations packed cells reserved at
//    construction, so `cell(loc)` is one load with no directory
//    indirection and no reallocation ever moves a cell. The kernel
//    materializes (zero) pages only on first touch, so a 2-register
//    litmus TM costs one page, not 32 MiB. Location ids are plain
//    `RegId`s — histories, the DRF/opacity checkers and the litmus
//    interpreter keep working unchanged, and the first `static_prefix`
//    locations are permanently allocated so programs that address raw
//    registers (the paper's figures) still run.
//
//  * **Blocks.** `alloc(n)` hands out a `TxHandle` naming `n` contiguous
//    fresh-or-recycled locations (values vinit: alloc scrubs a recycled
//    block's requested cells itself; retirement writes none). Since PR 4
//    the allocator behind it is the scalable subsystem in
//    `src/tm/alloc/`: requests are rounded to size classes, hot
//    alloc/free take no shared lock thanks to per-thread magazines and
//    batched frees, refills drain a sharded free store (stealing from
//    sibling shards before ever touching the central lock), and freed
//    extents split and merge incrementally so mixed-size churn reuses
//    memory instead of growing the arena forever (allocator.hpp has the
//    architecture tour; DESIGN.md §11 the shards).
//
//  * **Safe reclamation.** `free(h)` never recycles immediately: frees
//    are quarantined until a grace period from the shared quiescence
//    subsystem (`rt::QuiescenceManager`, the same engine behind
//    fence_async) covers them — every transaction active at free() time
//    has finished — so a delayed commit (Fig 1a) can never scribble over
//    memory the allocator has already handed to someone else. One ticket
//    now covers a whole per-thread *batch* of frees (limbo.hpp proves
//    batching sound). Draining stays cooperative and non-blocking, so
//    free() is legal even inside transactions.
//
// Thread safety: everything is safe to call from any thread; `cell()` is
// wait-free. The heap issues no history actions — reclamation is
// TM-internal, not part of the program's interface trace.
#pragma once

#include <atomic>
#include <cstdint>

#include "history/action.hpp"
#include "runtime/quiescence.hpp"
#include "tm/alloc/allocator.hpp"
#include "tm/alloc/handle.hpp"

namespace privstm::tm {

class TxHeap {
 public:
  /// 4M locations (32 MiB of reserved — not resident — address space) is
  /// far past any workload here. An alloc that finds it full waits for
  /// limbo to drain; one that finds limbo empty too aborts
  /// (configuration error, like overflowing the thread registry).
  static constexpr std::size_t kMaxLocations = std::size_t{1} << 22;

  /// The first `static_prefix` locations are permanently allocated (the
  /// legacy register file; litmus programs address them directly). `qm`
  /// drives reclamation grace periods; the owning TM instance holds both
  /// and outlives the heap.
  TxHeap(std::size_t static_prefix, rt::QuiescenceManager& qm,
         const AllocConfig& config = {});
  ~TxHeap();

  TxHeap(const TxHeap&) = delete;
  TxHeap& operator=(const TxHeap&) = delete;

  /// The value cell of a location. Wait-free, one load — the hot path of
  /// every backend's read/write/peek.
  std::atomic<Value>& cell(RegId loc) noexcept {
    return cells_[static_cast<std::size_t>(loc)];
  }
  const std::atomic<Value>& cell(RegId loc) const noexcept {
    return cells_[static_cast<std::size_t>(loc)];
  }

  /// Raw arena base for hot paths that cache it (it never moves).
  std::atomic<Value>* cells() noexcept { return cells_; }

  /// Committed value of `loc`, vinit for out-of-range ids — a harness
  /// utility (TransactionalMemory::peek).
  Value peek(RegId loc) const noexcept {
    if (loc < 0 || static_cast<std::size_t>(loc) >= kMaxLocations) {
      return hist::kVInit;
    }
    return cell(loc).load(std::memory_order_seq_cst);
  }

  /// Allocate a block of `n > 0` locations (rounded up to a size class
  /// internally), recycling freed extents whose grace period elapsed.
  /// All `n` cells hold vinit. Lock-free on a magazine hit. At the arena
  /// cap it waits for pending frees' grace periods instead of failing,
  /// so the caller must then be outside any transaction.
  TxHandle alloc(std::size_t n) { return allocator_.alloc(n); }

  /// Deferred free: the block becomes recyclable only after a quiescence
  /// grace period (every transaction active now has finished) — safe
  /// against the delayed-commit hazard by construction. The handle must
  /// come from alloc() and must not be double-freed; the static prefix
  /// is not freeable. May be called inside a transaction (the grace
  /// period is awaited cooperatively, never blocked on). Lock-free until
  /// the thread's batch fills.
  void free(TxHandle h) { allocator_.free(h); }

  /// Seal the calling thread's free batch and retire every elapsed limbo
  /// batch; one non-blocking pass. Returns the number of blocks recycled.
  std::size_t drain_limbo() { return allocator_.drain_limbo(); }

  /// Restore the heap to its post-construction state: allocator reset to
  /// the static prefix, magazines/free extents/limbo dropped, every
  /// touched cell vinit. Callers must be quiescent and must drop
  /// outstanding handles.
  void reset() { allocator_.reset(); }

  /// Arm fault injection on the allocator's shared-refill path (null
  /// disarms); forwarded from the owning TM at construction.
  void set_fault_injector(rt::FaultInjector* fault) noexcept {
    allocator_.set_fault_injector(fault);
  }

  /// Arm allocator/limbo trace instants (null disarms); forwarded from the
  /// owning TM at construction, same shape as set_fault_injector.
  void set_trace(rt::TraceDomain* trace) noexcept {
    allocator_.set_trace(trace);
  }

  std::size_t static_prefix() const noexcept { return static_prefix_; }

  // Allocator observability (tests and bench reports) — see allocator.hpp.
  std::size_t limbo_size() const { return allocator_.limbo_size(); }
  std::uint64_t alloc_count() const { return allocator_.alloc_count(); }
  std::uint64_t free_count() const { return allocator_.free_count(); }
  std::uint64_t reclaimed_count() const {
    return allocator_.reclaimed_count();
  }
  std::uint64_t magazine_hit_count() const {
    return allocator_.magazine_hit_count();
  }
  std::uint64_t refill_count() const { return allocator_.refill_count(); }
  std::uint64_t batch_retired_count() const {
    return allocator_.batch_retired_count();
  }
  /// Bounded incremental-compaction steps (ShardBins::spill runs; each
  /// also counted as rt::Counter::kAllocCompaction). Same-size churn must
  /// stay at zero.
  std::uint64_t compaction_count() const {
    return allocator_.compaction_count();
  }
  /// Blocks magazine refills stole from sibling shards' bins (also
  /// counted as rt::Counter::kAllocShardSteal).
  std::uint64_t steal_count() const { return allocator_.steal_count(); }
  /// Free-store shards the allocator was built with (power of two).
  std::size_t shard_count() const { return allocator_.shard_count(); }
  /// Shard a block with base id `base` is distributed to on retire.
  std::size_t shard_of(RegId base) const { return allocator_.shard_of(base); }
  std::size_t free_cells() const { return allocator_.free_cells(); }
  /// One-past-the-end of ever-allocated location ids (bump pointer).
  std::size_t allocated_end() const { return allocator_.allocated_end(); }

 private:
  const std::size_t static_prefix_;

  /// The flat cell arena (see file comment). Owned anonymous mapping.
  std::atomic<Value>* cells_ = nullptr;

  alloc::TxAllocator allocator_;
};

}  // namespace privstm::tm
