// Batched limbo: privatization-safe deferred reclamation, one grace
// period per *batch* of frees (DESIGN.md §9).
//
// PR 3 stamped every tm_free with its own grace-period ticket and kept a
// per-block limbo deque; with free-heavy workloads the ticket churn (a
// seq_cst fence plus a sequence-word read per free) and the per-block
// deque traffic were pure overhead, because tickets issued back to back
// almost always share a target grace period anyway. Here frees accumulate
// in a per-thread batch (`ThreadCache::batch_` in magazine.hpp) and the
// batch is *sealed* — moved into this shared list under the allocator's
// central lock with ONE `QuiescenceManager::issue_ticket()` covering all
// of its blocks.
//
// Soundness of ticket-at-seal: the reclamation contract is "a block is
// recycled only after every transaction active at its free() has
// finished". Sealing happens after every free in the batch, so a
// transaction active at some free() time is either already finished at
// seal time (nothing to wait for) or still active and therefore observed
// by the seal-time ticket's grace period. Batching can only *lengthen*
// the quarantine, never shorten it.
//
// When a batch's grace period elapses its blocks are retired: the list
// hands them back to the allocator, which distributes them across the
// shard bins / the coalescing extent map (allocator.cpp) — so a batch of
// neighboring small frees can still come back as one large extent.
// Retirement is list work only: a retired block keeps whatever values
// its last owner left, and alloc() stores vinit into the cells it hands
// out (no handle reaches a block between free and the next alloc).
//
// Sealed batches live in a ring of slots whose buffers are recycled:
// sealing swaps the caller's batch into a slot and hands back that
// slot's drained buffer, capacity intact, so steady-state sealing and
// retiring make no heap allocation.
//
// Thread safety: none here — the owning TxAllocator serializes seal and
// retire under its central lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/quiescence.hpp"
#include "tm/alloc/size_class.hpp"

namespace privstm::tm::alloc {

/// A freed block awaiting its grace period: base plus the *storage* size
/// and class (the class-rounded extent, computed once at free() time so
/// retire does not depend on the caller's requested size or the config).
struct LimboBlock {
  RegId base;
  std::uint32_t storage;
  std::uint32_t cls;  ///< size class, or kHugeClass for exact-size blocks
};

class LimboList {
 public:
  explicit LimboList(rt::QuiescenceManager& qm) noexcept : qm_(qm) {}

  LimboList(const LimboList&) = delete;
  LimboList& operator=(const LimboList&) = delete;

  /// Seal a batch: one ticket for all of its blocks. `blocks` is swapped
  /// into a ring slot and comes back empty, holding a drained buffer of
  /// an earlier batch (its capacity kept for the caller's next batch).
  void seal(std::vector<LimboBlock>& blocks);

  /// Whether a sealed batch waits in the list.
  bool empty() const noexcept { return count_ == 0; }

  /// The oldest sealed batch's ticket. Requires !empty().
  rt::FenceTicket front_ticket() const noexcept {
    return ring_[head_].ticket;
  }

  /// Whether the front batch is ready to retire: a cheap elapsed-peek,
  /// then one bounded helping attempt (scan start/poll). False when
  /// empty.
  bool front_elapsed() noexcept {
    return count_ != 0 && (qm_.ticket_elapsed(ring_[head_].ticket) ||
                           qm_.try_elapse_ticket(ring_[head_].ticket));
  }

  /// Retire every batch whose grace period has elapsed, appending its
  /// blocks to `out` — shard distribution is the calling allocator's
  /// job, still under its central lock. Front-first — tickets are issued
  /// in nearly monotonic order, so the ring elapses front-first. Counts
  /// one Counter::kLimboBatchRetired per batch (the caller holds the
  /// central lock, which keeps the slot-0 stats cell single-writer).
  /// Returns blocks retired.
  std::size_t retire(std::vector<LimboBlock>& out);

  void clear();

  /// Blocks sealed but not yet retired (unsealed per-thread batches are
  /// counted by the allocator, not here).
  std::size_t pending_blocks() const noexcept { return pending_blocks_; }
  std::uint64_t batches_retired() const noexcept { return batches_retired_; }
  std::uint64_t blocks_retired() const noexcept { return blocks_retired_; }

 private:
  struct SealedBatch {
    std::vector<LimboBlock> blocks;
    rt::FenceTicket ticket = rt::kNullFenceTicket;  ///< gates the batch
  };

  /// Double the ring (at least kMinRing slots), keeping batch order and
  /// every slot's buffer.
  void grow();

  static constexpr std::size_t kMinRing = 16;

  rt::QuiescenceManager& qm_;
  /// Power-of-two ring: count_ sealed batches from head_, the remaining
  /// slots hold drained buffers awaiting reuse.
  std::vector<SealedBatch> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pending_blocks_ = 0;
  std::uint64_t batches_retired_ = 0;
  std::uint64_t blocks_retired_ = 0;
};

}  // namespace privstm::tm::alloc
