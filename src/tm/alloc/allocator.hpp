// TxAllocator — the scalable allocation subsystem behind the
// transactional heap (DESIGN.md §9; shard topology §11).
//
// Composition (each piece in its own header):
//   size_class.hpp  — request rounding, per-shard class bins (ShardBins)
//                     and the global free-extent map (best-fit splitting,
//                     neighbor coalescing)
//   magazine.hpp    — per-thread alloc magazines and free batches
//   limbo.hpp       — batched grace-period quarantine for frees
//
// Fast paths:
//   alloc: round to a size class, pop the thread's magazine — no shared
//          state touched on a hit. On a miss the refill walks a tiered
//          store: the thread's HOME SHARD's bins (one shard lock), then
//          *steals* from sibling shards (Counter::kAllocShardSteal), and
//          only when the whole shard tier is dry takes the central lock
//          (seal + retire limbo, extent map, bounded compaction, bump).
//   free:  compute the storage extent, append to the thread's batch — no
//          shared state touched until the batch reaches
//          AllocConfig::limbo_batch blocks (huge blocks seal immediately:
//          quarantining thousands of cells behind an idle thread's
//          unsealed batch would be a leak in practice).
//
// Shard topology: AllocConfig::shards power-of-two shards (≤ kMaxShards),
// each a cache-line-aligned {lock, bins} pair. A thread's home shard is
// its registration ordinal mod the shard count; a retired block's shard
// is a hash of its 64-cell address window — the SAME window hash the
// stripe table uses for region partitioning, so blocks living in shard s
// also validate in stripe region s when the two counts match. Lock order
// (deadlock freedom): cache-link mutex → central lock → ONE shard lock at
// a time; no path acquires the central lock while holding a shard lock.
//
// Compaction is incremental: each trigger spills at most
// kCompactionSpillBudget blocks from the shard bins into the extent map
// (round-robin cursor over shards, each ShardBins resuming at its own
// class cursor), counted per bounded step as Counter::kAllocCompaction —
// never the stop-the-store O(free-blocks) event it used to be.
//
// Values: every block alloc() returns reads vinit in its n requested
// cells. Recycled blocks are scrubbed by alloc itself (magazine hit or
// slow path), outside every lock and on lines the caller is about to
// fill; blocks fresh off the bump pointer are vinit already. Retirement
// from limbo therefore writes no cell — stale values in free blocks are
// never read, because every access goes through a live handle.
//
// Arena cap: when a request finds nothing free and the bump pointer
// would pass max_locations, alloc_slow waits (outside the central lock)
// for the oldest limbo batch's grace period, retires, and retries —
// counted as Counter::kAllocCapWait. Only an empty limbo aborts.
//
// The privatization-safety story is unchanged from PR 3 — a block is
// recycled only after a QuiescenceManager grace period covering its
// free() — batching just amortizes one ticket over many frees
// (limbo.hpp has the soundness argument).
//
// Setting magazine_size = 0 disables caching, limbo_batch = 1 seals every
// free immediately, and shards = 1 collapses the shard tier to a single
// bin set (no stealing, deterministic LIFO bin order), which together
// reproduce the PR 3 allocator's deterministic recycle-on-next-alloc
// behavior; heap_test pins the grace-period semantics in that
// configuration, alloc_test covers the cached one, shard_test the
// cross-shard steal and bounded-compaction behavior.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/cacheline.hpp"
#include "runtime/fault.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/spinlock.hpp"
#include "tm/alloc/handle.hpp"
#include "tm/alloc/limbo.hpp"
#include "tm/alloc/magazine.hpp"
#include "tm/alloc/size_class.hpp"

namespace privstm::tm {

/// Allocator tuning knobs (TmConfig::alloc).
struct AllocConfig {
  /// Upper bound on store shards.
  static constexpr std::size_t kMaxShards = 8;

  /// Blocks a per-thread, per-class magazine may hold; a refill fetches
  /// up to this many (scaled down for big classes, see kRefillCellBudget).
  /// 0 disables magazines entirely — every alloc takes the slow path.
  std::size_t magazine_size = 8;
  /// Frees accumulated per thread before one grace-period ticket seals
  /// them as a batch. 1 = a ticket per free (the PR 3 behavior). Only
  /// meaningful with magazines on: magazine_size = 0 removes the
  /// per-thread cache the batch lives in, so every free seals
  /// immediately regardless of this value.
  std::size_t limbo_batch = 8;
  /// Upper end of the size-class table for this instance: requests above
  /// this are huge (exact-size, uncached). Clamped to alloc::kMaxClassSize.
  std::uint32_t max_class_size = alloc::kMaxClassSize;
  /// Free-store shards (DESIGN.md §11). Rounded DOWN to a power of two
  /// and clamped to [1, kMaxShards]; 1 reproduces the single-store PR 4
  /// behavior exactly.
  std::size_t shards = 4;

  /// The shard count construction actually uses (power of two).
  std::size_t effective_shards() const noexcept {
    std::size_t n = 1;
    while ((n << 1) <= shards && (n << 1) <= kMaxShards) n <<= 1;
    return n;
  }
};

namespace alloc {

/// A refill stops after roughly this many cells however small the class,
/// so a size-4 refill grabs magazine_size blocks while a size-3072 one
/// grabs a single block instead of pinning half the arena in one cache.
inline constexpr std::size_t kRefillCellBudget = 512;

/// Blocks one incremental-compaction step may spill into the extent map.
/// Each step is one Counter::kAllocCompaction tick; a request needing
/// more coalescing runs — and counts — several bounded steps.
inline constexpr std::size_t kCompactionSpillBudget = 64;

class TxAllocator {
 public:
  /// Manages location ids [static_prefix, max_locations); `cells` is the
  /// heap's value arena (alloc() stores vinit into the cells it hands
  /// out). `qm` issues the reclamation grace periods. All three outlive
  /// the allocator (the owning TxHeap / TM instance holds them).
  TxAllocator(std::size_t static_prefix, std::size_t max_locations,
              rt::QuiescenceManager& qm, std::atomic<Value>* cells,
              const AllocConfig& config);
  ~TxAllocator();

  TxAllocator(const TxAllocator&) = delete;
  TxAllocator& operator=(const TxAllocator&) = delete;

  /// A block of `n` cells, each reading vinit. When the arena is at
  /// max_locations and nothing free fits, waits for the oldest limbo
  /// batch's grace period (Counter::kAllocCapWait) and retries; aborts
  /// only when limbo is empty too. The wait needs the caller outside any
  /// transaction — its own would keep the grace period open.
  TxHandle alloc(std::size_t n);
  void free(TxHandle h);

  /// Seal the calling thread's pending free batch and retire every
  /// elapsed limbo batch; one non-blocking pass. Returns blocks recycled.
  std::size_t drain_limbo();

  /// Restore the post-construction state: magazines and batches cleared
  /// (registry epoch bump + direct clear), limbo, shard bins and extents
  /// dropped, touched cells vinit, bump pointer back to the static
  /// prefix. Callers must be quiescent and must drop outstanding handles.
  void reset();

  /// Arm (or disarm, with null) fault injection on the shared-refill path
  /// (FaultSite::kAllocRefill). Called by the owning TM at construction,
  /// before any session can allocate.
  void set_fault_injector(rt::FaultInjector* fault) noexcept {
    fault_ = fault;
  }

  /// Arm (or disarm, with null) allocator trace events — refill, steal,
  /// compaction and cap-wait instants, limbo-retire spans. Events go to
  /// the trace domain's allocator slot (TraceDomain::emit_alloc): they
  /// fire under shard/central locks on behalf of whichever thread hit
  /// the slow path, not a stable session stream.
  void set_trace(rt::TraceDomain* trace) noexcept { trace_ = trace; }

  const AllocConfig& config() const noexcept { return config_; }

  /// Shards this instance was built with (a power of two).
  std::size_t shard_count() const noexcept { return shard_count_; }

  /// Shard a retired block with base id `base` is distributed to — a
  /// hash of its 64-cell address window (the stripe table's region hash,
  /// so a block's shard and its stripe region coincide when the counts
  /// match).
  std::size_t shard_of(RegId base) const noexcept {
    if (shard_bits_ == 0) return 0;
    const auto window = static_cast<std::uint64_t>(base) >> kShardWindowBits;
    return static_cast<std::size_t>((window * kShardMix) >>
                                    (64u - shard_bits_));
  }

  /// The calling thread's home shard (registration ordinal mod shards).
  std::size_t home_shard() const noexcept;

  /// TEST HOOK: sentinel for bind_home_shard — unpin the calling thread.
  static constexpr std::size_t kNoHomeShard = static_cast<std::size_t>(-1);

  /// TEST HOOK: pin the calling thread's home shard across all allocator
  /// instances (deterministic steal scenarios need a requester whose home
  /// provably differs from a seeded block's shard); kNoHomeShard unpins.
  static void bind_home_shard(std::size_t shard) noexcept;

  // Observability (tests and bench reports). Aggregates cover detached
  // caches plus every live one.
  std::size_t limbo_size() const;      ///< sealed + unsealed pending frees
  std::uint64_t alloc_count() const;
  std::uint64_t free_count() const;
  std::uint64_t reclaimed_count() const;  ///< blocks retired from limbo
  std::uint64_t magazine_hit_count() const;
  std::uint64_t refill_count() const;  ///< slow-path refills/allocs
  std::uint64_t batch_retired_count() const;
  std::uint64_t compaction_count() const;  ///< bounded compaction steps
  std::uint64_t steal_count() const;  ///< blocks taken from sibling shards
  std::size_t free_cells() const;     ///< cells in shard bins + extent map
  /// One-past-the-end of ever-allocated location ids (bump pointer).
  std::size_t allocated_end() const;

 private:
  friend alloc::ThreadCache& alloc::local_cache(TxAllocator& a);
  friend void alloc::flush_detached_cache(alloc::ThreadCache& cache);

  /// Same mixer and window as rt::StripeTable's region hash (documented
  /// there); the constants are duplicated so the allocator stays free of
  /// a stripe-table dependency — shard_test pins the equivalence.
  static constexpr std::uint64_t kShardMix = 0x9E3779B97F4A7C15ull;
  static constexpr unsigned kShardWindowBits = 6;

  /// One shard of the free store. The lock guards bins and steals; the
  /// alignment keeps sibling shards off each other's cache lines.
  struct alignas(rt::kCacheLine) AllocShard {
    mutable rt::SpinLock lock;
    ShardBins bins;
    std::uint64_t steals = 0;  ///< blocks stolen FROM this shard
    /// Lock-free mirrors of bins.mask()/bins.cells(), republished before
    /// every unlock of `lock`: steal probes consult `occupancy` to skip
    /// siblings with provably nothing for the requested class, and
    /// shard_bin_cells() sums `cell_mirror` without stopping the tier.
    /// Staleness is benign in both directions — a stale set bit costs
    /// one futile lock, a stale clear bit one missed steal (the request
    /// falls through to the central tier) — and with no concurrent
    /// mutator the mirrors are exact, so deterministic single-threaded
    /// tests see the same decisions as before.
    std::atomic<std::uint32_t> occupancy{0};
    std::atomic<std::size_t> cell_mirror{0};
  };

  /// Republish a shard's lock-free hint mirrors from its bins. Must be
  /// called before releasing the shard lock on any path that mutated the
  /// bins.
  static void publish_mirrors(AllocShard& s) noexcept {
    s.occupancy.store(s.bins.mask(), std::memory_order_relaxed);
    s.cell_mirror.store(s.bins.cells(), std::memory_order_relaxed);
  }

  /// Magazine-miss / uncached path: home shard bins → sibling steal →
  /// central tier (see file comment), waiting at the arena cap (alloc).
  /// `cache` may be null (magazines disabled). Sets `fresh` when the
  /// block came off the bump pointer (cells still vinit, no scrub due).
  RegId alloc_slow(alloc::ThreadCache* cache, std::size_t cls,
                   std::uint32_t storage, bool& fresh);

  /// Store vinit into the first `n` cells of a recycled block.
  void scrub(RegId base, std::size_t n) noexcept;

  /// Pop up to `want` class-`cls` blocks from the shard tier: `home`
  /// first, then siblings in ring order (counting a kAllocShardSteal per
  /// stolen block at the sibling's slot, under the sibling's lock). The
  /// first block lands in `first` (if still kNoReg), the rest in `mag`
  /// (may be null when want == 1). `count_refill` ticks
  /// Counter::kAllocSharedRefill at the home slot under the home lock —
  /// exactly once per alloc_slow. Shard locks are held one at a time,
  /// alone or nested under the central lock, never two at once. Returns
  /// blocks taken.
  std::size_t take_from_shards(std::size_t home, std::uint32_t storage,
                               std::size_t cls, std::size_t want,
                               RegId& first, std::vector<RegId>* mag,
                               bool count_refill);

  /// Distribute one retired/flushed block into the shared store: shard
  /// bins by shard_of(base), or the extent map for huge blocks. Central
  /// lock held (the shard lock nests under it).
  void put_shared_locked(RegId base, std::uint32_t storage, std::size_t cls);

  /// Retire every elapsed limbo batch: blocks distributed across the
  /// shard bins / extent map, no cell written (alloc scrubs). Traced as
  /// a kLimboRetireBegin/End span when anything retires. Central lock
  /// held.
  std::size_t retire_limbo_locked();

  /// One bounded compaction step: spill ≤ kCompactionSpillBudget blocks
  /// from the shard bins (round-robin cursor) into the extent map,
  /// counting Counter::kAllocCompaction iff anything spilled. Central
  /// lock held. Returns blocks spilled (0 ⇔ every bin is empty).
  std::size_t compact_step_locked();

  /// Total cells across all shard bins — a lock-free sum of the
  /// cell_mirror hints (exact when no shard lock is concurrently held).
  std::size_t shard_bin_cells() const;

  /// Move `cache`'s unsealed batch into the limbo list. Central lock held.
  void seal_batch_locked(alloc::ThreadCache& cache);

  /// Registry upkeep (link mutex held inside).
  void register_cache(alloc::ThreadCache& cache);
  void flush_cache(alloc::ThreadCache& cache, bool into_store);

  /// Drop stale contents when `cache` predates the last reset().
  void revalidate_cache(alloc::ThreadCache& cache);

  rt::QuiescenceManager& qm_;
  rt::FaultInjector* fault_ = nullptr;  ///< armed shared-refill injection
  rt::TraceDomain* trace_ = nullptr;    ///< null when tracing is disabled
  const std::size_t static_prefix_;
  const std::size_t max_locations_;
  std::atomic<Value>* const cells_;
  const AllocConfig config_;
  const std::size_t shard_count_;  ///< power of two, [1, kMaxShards]
  const unsigned shard_bits_;      ///< log2(shard_count_)

  /// Bumped by reset(); caches lazily discard contents from older epochs.
  std::atomic<std::uint64_t> reset_epoch_{0};

  /// Registered per-thread caches; guarded by the process-wide link
  /// mutex (see magazine.hpp lifecycle notes).
  std::vector<alloc::ThreadCache*> caches_;

  /// The shard tier: per-shard class bins, each behind its own lock.
  std::array<AllocShard, AllocConfig::kMaxShards> shards_;

  /// Central lock: extent map, limbo list, bump pointer, compaction
  /// state. Taken only when the whole shard tier failed a request, or
  /// when a batch seals/retires. Ordered strictly AFTER the link mutex
  /// and strictly BEFORE any shard lock.
  mutable rt::SpinLock central_lock_;
  alloc::ExtentMap extents_;
  alloc::LimboList limbo_;
  std::size_t bump_;
  std::uint64_t compactions_ = 0;   ///< bounded compaction steps run
  std::size_t compact_cursor_ = 0;  ///< shard the next step resumes at
  std::vector<alloc::LimboBlock> retired_;  ///< retire scratch (central)
  /// Uncached frees' one-block batch; sealing swaps in a recycled buffer
  /// (central).
  std::vector<alloc::LimboBlock> unbatched_;

  /// Slow-path trips (shard tier or central); one increment per
  /// alloc_slow, matching Counter::kAllocSharedRefill by construction.
  std::atomic<std::uint64_t> refills_{0};

  /// Totals folded in from detached caches + cacheless slow-path ops.
  std::atomic<std::uint64_t> base_allocs_{0};
  std::atomic<std::uint64_t> base_frees_{0};
  std::atomic<std::uint64_t> base_hits_{0};
};

}  // namespace alloc
}  // namespace privstm::tm
