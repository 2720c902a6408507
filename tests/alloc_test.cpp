// The allocation subsystem (src/tm/alloc/): size-class rounding and the
// extent store's split/merge, per-thread magazine lifecycle (hit rates,
// flush on thread exit, flush on reset, cross-thread free), and the
// batched limbo's one-ticket-per-batch behavior. heap_test.cpp pins the
// grace-period *semantics* in the deterministic (uncached)
// configuration; this file covers the scalable machinery around it,
// plus the alloc-time vinit scrub on every recycling route and the wait
// at the arena cap.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "tm/alloc/allocator.hpp"
#include "tm/alloc/size_class.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::TmKind;
using tm::TxHandle;
namespace ta = tm::alloc;

std::unique_ptr<tm::TransactionalMemory> make_tm_with(
    tm::AllocConfig alloc = {}) {
  tm::TmConfig config;
  config.alloc = alloc;
  return tm::make_tm(TmKind::kTl2Fused, config);
}

/// The block's previous owner: commit a non-zero value into every cell.
void dirty(tm::TmThread& session, TxHandle h) {
  tm::run_tx_retry(session, [&](tm::TxScope& tx) {
    for (std::uint32_t i = 0; i < h.size; ++i) tx.write(h.loc(i), 0xBAD0 + i);
  });
}

void expect_vinit(const tm::TransactionalMemory& tmi, TxHandle h) {
  for (std::uint32_t i = 0; i < h.size; ++i) {
    EXPECT_EQ(tmi.peek(h.loc(i)), hist::kVInit)
        << "block " << h.base << " cell " << i;
  }
}

/// Retire every freed block into the shared store (a free only seals;
/// its grace period may complete on a later retire attempt).
void drain_until_free(tm::TransactionalMemory& tmi, std::size_t cells) {
  for (int i = 0; i < 8 && tmi.heap().free_cells() < cells; ++i) {
    tmi.heap().drain_limbo();
  }
  ASSERT_EQ(tmi.heap().free_cells(), cells);
}

// ---------------------------------------------------------------------------
// Size classes and the extent store.
// ---------------------------------------------------------------------------

TEST(AllocSizeClass, TableIsMonotonicWithBoundedOverhead) {
  std::uint32_t prev = 0;
  for (std::size_t c = 0; c < ta::kNumClasses; ++c) {
    EXPECT_GT(ta::class_size(c), prev) << "class " << c;
    prev = ta::class_size(c);
  }
  EXPECT_EQ(ta::class_size(ta::kNumClasses - 1), ta::kMaxClassSize);
  for (std::size_t n = 1; n <= ta::kMaxClassSize; ++n) {
    const std::size_t c = ta::class_of(n);
    ASSERT_LT(c, ta::kNumClasses) << n;
    const std::uint32_t s = ta::class_size(c);
    ASSERT_GE(s, n) << "class too small for " << n;
    // Power-of-two-ish spacing bounds internal fragmentation: the class
    // is always < 1.5× the request (for n > 1).
    ASSERT_LT(s, n + (n + 1) / 2 + 1) << "class too big for " << n;
    // And it is the SMALLEST sufficient class.
    if (c > 0) {
      ASSERT_LT(ta::class_size(c - 1), n);
    }
  }
  EXPECT_EQ(ta::class_of(ta::kMaxClassSize + 1), ta::kHugeClass);
  EXPECT_EQ(ta::storage_size(ta::kMaxClassSize + 9), ta::kMaxClassSize + 9);
}

TEST(AllocSizeClass, ExtentMapCoalescesNeighborsAndSplitsBestFit) {
  ta::ExtentMap store;
  // Two adjacent frees merge into one extent; a disjoint one stays apart.
  store.insert(100, 8);
  store.insert(108, 8);
  store.insert(200, 4);
  EXPECT_EQ(store.extent_count(), 2u);
  EXPECT_EQ(store.free_cells(), 20u);
  EXPECT_EQ(store.largest_extent(), 16u);
  // Best fit: a 4-cell request takes the exact-size extent, not a slice
  // of the big one.
  EXPECT_EQ(store.take(4), 200);
  // Splitting: a 6-cell request carves the 16-extent, remainder 10.
  EXPECT_EQ(store.take(6), 100);
  EXPECT_EQ(store.free_cells(), 10u);
  EXPECT_EQ(store.take(10), 106);
  EXPECT_EQ(store.take(1), hist::kNoReg);
  // Middle insert bridges both neighbors into one extent.
  store.insert(300, 5);
  store.insert(310, 5);
  store.insert(305, 5);
  EXPECT_EQ(store.extent_count(), 1u);
  EXPECT_EQ(store.take(15), 300);
}

// ---------------------------------------------------------------------------
// Magazine lifecycle.
// ---------------------------------------------------------------------------

TEST(AllocMagazine, HitsKeepTheFastPathOffTheSharedStore) {
  // The headline scalability property: N alloc/free pairs on one thread
  // touch the shared store (central lock) only for occasional batched
  // refills and batch seals — the fast path is thread-local. Asserted
  // through the stats counter the ISSUE names: shared refills ≪ N.
  constexpr std::uint64_t kOps = 4096;
  auto tmi = make_tm_with();  // shipped defaults: magazines + batching on
  for (std::uint64_t i = 0; i < kOps; ++i) {
    tmi->tm_free(tmi->tm_alloc(4));
  }
  const std::uint64_t hits = tmi->heap().magazine_hit_count();
  const std::uint64_t refills =
      tmi->stats().total(rt::Counter::kAllocSharedRefill);
  EXPECT_EQ(tmi->heap().alloc_count(), kOps);
  EXPECT_EQ(tmi->heap().free_count(), kOps);
  EXPECT_GE(hits, kOps / 2) << "magazine never hit";
  EXPECT_LE(refills, kOps / 4) << "shared store touched per-op";
  EXPECT_GT(refills, 0u);
  EXPECT_EQ(refills, tmi->heap().refill_count());
}

TEST(AllocMagazine, FlushOnThreadExitReturnsCachedBlocksToTheStore) {
  auto tmi = make_tm_with({.magazine_size = 8, .limbo_batch = 64});
  std::thread worker([&] {
    // One miss refills 8 class-4 blocks (1 handed out, 7 cached); the
    // free stays in the unsealed batch (depth 64 is never reached).
    tmi->tm_free(tmi->tm_alloc(4));
  });
  worker.join();
  // Thread exit flushed the 7 cached blocks straight into the extent
  // store and sealed the single-block batch; drain retires it.
  tmi->heap().drain_limbo();
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
  EXPECT_EQ(tmi->heap().free_cells(), 8u * 4u);
  // The flush also folded the dead thread's counters into the totals.
  EXPECT_EQ(tmi->heap().alloc_count(), 1u);
  EXPECT_EQ(tmi->heap().free_count(), 1u);
  // And the flushed memory is genuinely reusable: allocations on THIS
  // thread consume it without growing the arena.
  const std::size_t end = tmi->heap().allocated_end();
  for (int i = 0; i < 8; ++i) (void)tmi->tm_alloc(4);
  EXPECT_EQ(tmi->heap().allocated_end(), end);
}

TEST(AllocMagazine, FlushOnResetDropsEveryCacheViaTheRegistryEpoch) {
  auto tmi = make_tm_with({.magazine_size = 8, .limbo_batch = 64});
  // Populate this thread's magazines and batch, plus a worker's (whose
  // cache is registered but the thread still lives — main's case) — then
  // reset underneath them.
  const TxHandle mine = tmi->tm_alloc(4);
  tmi->tm_free(mine);
  std::thread([&] { tmi->tm_free(tmi->tm_alloc(6)); }).join();
  ASSERT_GT(tmi->heap().limbo_size(), 0u);
  tmi->reset();
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
  EXPECT_EQ(tmi->heap().free_cells(), 0u);
  EXPECT_EQ(tmi->heap().alloc_count(), 0u);
  EXPECT_EQ(tmi->heap().allocated_end(), tmi->config().num_registers);
  // This thread's cache predates the reset: its next use must discard
  // the stale magazine (epoch path) and hand out the arena's first
  // block, not a pre-reset cached base.
  const TxHandle fresh = tmi->tm_alloc(4);
  EXPECT_EQ(static_cast<std::size_t>(fresh.base),
            tmi->config().num_registers);
}

TEST(AllocMagazine, CrossThreadFreeRecyclesThroughTheSharedStore) {
  // Thread A allocates, thread B frees — the classic producer/consumer
  // handoff. B's batch seals on its exit flush; after the grace period
  // the blocks are shared-store extents any thread can reuse.
  auto tmi = make_tm_with();
  std::vector<TxHandle> blocks;
  std::thread producer([&] {
    for (int i = 0; i < 32; ++i) blocks.push_back(tmi->tm_alloc(4));
  });
  producer.join();
  const std::size_t end = tmi->heap().allocated_end();
  std::thread consumer([&] {
    for (const TxHandle& h : blocks) tmi->tm_free(h);
  });
  consumer.join();
  tmi->heap().drain_limbo();
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
  EXPECT_EQ(tmi->heap().free_count(), 32u);
  // All 32 blocks (plus whatever the producer's refills over-fetched)
  // came back into the shared store.
  EXPECT_GE(tmi->heap().free_cells(), 32u * 4u);
  EXPECT_GE(tmi->heap().reclaimed_count(), 32u);
  // Reuse from a third thread: no arena growth.
  std::thread reuser([&] {
    for (int i = 0; i < 32; ++i) (void)tmi->tm_alloc(4);
  });
  reuser.join();
  EXPECT_EQ(tmi->heap().allocated_end(), end);
}

// ---------------------------------------------------------------------------
// Batched limbo.
// ---------------------------------------------------------------------------

TEST(AllocLimbo, OneGracePeriodTicketCoversAWholeBatch) {
  constexpr std::size_t kBatch = 8;
  auto tmi = make_tm_with({.magazine_size = 8, .limbo_batch = kBatch});
  std::vector<TxHandle> blocks;
  for (std::size_t i = 0; i < kBatch; ++i) {
    blocks.push_back(tmi->tm_alloc(4));
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    tmi->tm_free(blocks[i]);
    if (i + 1 < kBatch) {
      EXPECT_EQ(tmi->heap().batch_retired_count(), 0u)
          << "batch sealed early at free " << i;
    }
  }
  // The kBatch-th free sealed the batch and (vacuous grace period)
  // retired it: ONE batch, kBatch blocks, one stats tick.
  EXPECT_EQ(tmi->heap().batch_retired_count(), 1u);
  EXPECT_EQ(tmi->heap().reclaimed_count(), kBatch);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kLimboBatchRetired), 1u);
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
}

TEST(AllocLimbo, BatchedFreesStayQuarantinedWhileATransactionIsLive) {
  // Batching must not weaken the privatization guarantee: blocks freed
  // while a transaction is live stay out of circulation until it ends,
  // whether they sit in the unsealed batch or in a sealed one.
  constexpr std::size_t kBatch = 4;
  auto tmi = make_tm_with({.magazine_size = 2, .limbo_batch = kBatch});
  auto session = tmi->make_thread(0, nullptr);
  (void)session;
  std::vector<TxHandle> blocks;
  for (std::size_t i = 0; i < 2 * kBatch; ++i) {
    blocks.push_back(tmi->tm_alloc(8));
  }
  auto worker = tmi->make_thread(1, nullptr);
  ASSERT_TRUE(worker->tx_begin());
  tm::Value v = 0;
  ASSERT_TRUE(worker->tx_read(blocks[0].loc(0), v));
  std::set<tm::RegId> freed;
  for (std::size_t i = 0; i < 2 * kBatch; ++i) {
    tmi->tm_free(blocks[i]);
    freed.insert(blocks[i].base);
  }
  // Both batches sealed (2·kBatch frees), but the worker's transaction
  // predates every free: nothing may recycle yet.
  tmi->heap().drain_limbo();
  EXPECT_EQ(tmi->heap().reclaimed_count(), 0u);
  EXPECT_EQ(tmi->heap().limbo_size(), 2 * kBatch);
  const TxHandle during = tmi->tm_alloc(8);
  EXPECT_FALSE(freed.contains(during.base))
      << "freed block recycled under a live transaction";
  EXPECT_EQ(worker->tx_commit(), tm::TxResult::kCommitted);
  tmi->heap().drain_limbo();
  EXPECT_EQ(tmi->heap().reclaimed_count(), 2 * kBatch);
}

// ---------------------------------------------------------------------------
// Mixed-size churn: split/merge keeps the arena bounded.
// ---------------------------------------------------------------------------

TEST(AllocChurn, MixedSizeChurnBoundsTheBumpPointer) {
  // The PR 3 exact-size allocator grew the arena forever under this
  // pattern (a freed 16-block could never serve a 5-request). With
  // size-class rounding plus extent split/merge the high-water mark must
  // stabilize after the warm-up lap.
  auto tmi = make_tm_with();
  constexpr std::size_t kSizes[] = {1, 5, 9, 17, 33, 65, 129, 3};
  constexpr std::size_t kLive = 64;
  std::vector<TxHandle> live(kLive);
  std::size_t tick = 0;
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (auto& h : live) {
        if (h.valid()) tmi->tm_free(h);
        h = tmi->tm_alloc(kSizes[tick++ % std::size(kSizes)]);
      }
    }
  };
  churn(4);  // warm-up: magazines filled, steady-state extents seeded
  const std::size_t high_water = tmi->heap().allocated_end();
  churn(40);
  // Everything after warm-up was served from recycled memory; allow one
  // refill-batch of slack per class for scheduling wiggle.
  EXPECT_LE(tmi->heap().allocated_end(), high_water + 2048)
      << "churn grew the arena: split/merge reuse is not working";
  EXPECT_GT(tmi->heap().reclaimed_count(), 0u);
}

TEST(AllocChurn, SameSizeChurnNeverCompacts) {
  // The design promise of the bins-in-front-of-extents store: a steady
  // same-size workload is served bin→magazine→bin forever and never pays
  // for extent merging. kAllocCompaction staying at zero is the
  // regression pin (it is the store's stop-the-world event).
  auto tmi = make_tm_with();
  std::vector<TxHandle> live(32);
  for (int round = 0; round < 64; ++round) {
    for (auto& h : live) {
      if (h.valid()) tmi->tm_free(h);
      h = tmi->tm_alloc(8);
    }
  }
  tmi->heap().drain_limbo();
  EXPECT_EQ(tmi->heap().compaction_count(), 0u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kAllocCompaction), 0u);
  EXPECT_GT(tmi->heap().reclaimed_count(), 0u);  // churn actually recycled
}

TEST(AllocChurn, CrossClassReuseCompactsOnceAndIsCounted) {
  // The positive control for the counter: two adjacent class-4 blocks are
  // freed, then a class-8 request arrives. The bins hold enough cells but
  // no extent fits, so the store must compact (spilling the bins into the
  // extent map merges the neighbors) — exactly one bounded spill step,
  // visible through both the heap accessor and the stats counter.
  // shards = 1 keeps both blocks in the same bin set deterministically
  // (they'd share a shard anyway — same 64-cell window — but the test
  // should not depend on the window hash).
  auto tmi = make_tm_with({.magazine_size = 0, .limbo_batch = 1, .shards = 1});
  const TxHandle a = tmi->tm_alloc(4);
  const TxHandle b = tmi->tm_alloc(4);
  ASSERT_EQ(b.base, a.base + 4) << "bump allocation not adjacent";
  tmi->tm_free(a);
  tmi->tm_free(b);
  const TxHandle merged = tmi->tm_alloc(8);
  EXPECT_EQ(merged.base, a.base) << "cross-class reuse failed";
  EXPECT_EQ(tmi->heap().compaction_count(), 1u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kAllocCompaction), 1u);
}

TEST(AllocChurn, HugeBlocksBypassClassesAndStillRecycle) {
  auto tmi = make_tm_with();
  const std::size_t huge = ta::kMaxClassSize + 100;
  const TxHandle h = tmi->tm_alloc(huge);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.size, huge);
  // Huge frees seal immediately (no batching) so they cannot linger
  // behind an idle thread's batch.
  tmi->tm_free(h);
  tmi->heap().drain_limbo();
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
  const TxHandle again = tmi->tm_alloc(huge);
  EXPECT_EQ(again.base, h.base) << "huge extent not recycled exact-size";
}

// ---------------------------------------------------------------------------
// Recycled blocks: alloc scrubs what the previous owner left.
// ---------------------------------------------------------------------------

TEST(AllocScrub, MagazineHitHandsOutRecycledBlocksAsVInit) {
  auto tmi = make_tm_with({.magazine_size = 8, .limbo_batch = 1, .shards = 1});
  auto session = tmi->make_thread(0, nullptr);
  // One refill fetches 8 class-4 blocks: 1 handed out, 7 magazine hits.
  std::vector<TxHandle> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(tmi->tm_alloc(4));
  std::set<tm::RegId> freed;
  for (const TxHandle& h : blocks) {
    dirty(*session, h);
    tmi->tm_free(h);
    freed.insert(h.base);
  }
  drain_until_free(*tmi, 8u * 4u);
  // The next refill brings the dirty blocks back, 7 of them through the
  // magazine fast path.
  const std::uint64_t hits_before = tmi->heap().magazine_hit_count();
  for (int i = 0; i < 8; ++i) {
    const TxHandle h = tmi->tm_alloc(4);
    EXPECT_TRUE(freed.contains(h.base)) << h.base;
    expect_vinit(*tmi, h);
  }
  EXPECT_EQ(tmi->heap().magazine_hit_count() - hits_before, 7u);
}

TEST(AllocScrub, ShardRefillAndStealHandOutRecycledBlocksAsVInit) {
  // Uncached, so each alloc is a refill: from the home shard when the
  // pinned home owns the block, a steal from every other home.
  auto tmi = make_tm_with({.magazine_size = 0, .limbo_batch = 1, .shards = 4});
  auto session = tmi->make_thread(0, nullptr);
  TxHandle cur = tmi->tm_alloc(6);
  const tm::RegId base = cur.base;
  for (std::size_t home = 0; home < tmi->heap().shard_count(); ++home) {
    dirty(*session, cur);
    tmi->tm_free(cur);
    drain_until_free(*tmi, cur.size);
    ta::TxAllocator::bind_home_shard(home);
    cur = tmi->tm_alloc(6);
    ta::TxAllocator::bind_home_shard(ta::TxAllocator::kNoHomeShard);
    ASSERT_EQ(cur.base, base) << "home " << home;
    expect_vinit(*tmi, cur);
  }
  EXPECT_EQ(tmi->heap().steal_count(), tmi->heap().shard_count() - 1);
}

TEST(AllocScrub, CompactedExtentHandsOutRecycledCellsAsVInit) {
  // Two dirty class-4 neighbors merge into the extent a class-8 request
  // takes (CrossClassReuseCompactsOnceAndIsCounted's shape).
  auto tmi = make_tm_with({.magazine_size = 0, .limbo_batch = 1, .shards = 1});
  auto session = tmi->make_thread(0, nullptr);
  const TxHandle a = tmi->tm_alloc(4);
  const TxHandle b = tmi->tm_alloc(4);
  ASSERT_EQ(b.base, a.base + 4) << "bump allocation not adjacent";
  dirty(*session, a);
  dirty(*session, b);
  tmi->tm_free(a);
  tmi->tm_free(b);
  const TxHandle merged = tmi->tm_alloc(8);
  ASSERT_EQ(merged.base, a.base) << "cross-class reuse failed";
  EXPECT_EQ(tmi->heap().compaction_count(), 1u);
  expect_vinit(*tmi, merged);
}

// ---------------------------------------------------------------------------
// The arena cap: wait out limbo instead of aborting.
// ---------------------------------------------------------------------------

TEST(AllocCapWait, AllocAtTheCapWaitsForTheLiveTransactionToEnd) {
  // A bare allocator over a 64-cell arena, filled by four 16-cell blocks.
  // One block is freed while another thread's transaction is live, so
  // the next alloc finds nothing free and the bump pointer at the cap:
  // it must wait for that transaction, then recycle the block.
  constexpr std::size_t kPrefix = 8;
  constexpr std::size_t kMax = kPrefix + 64;
  rt::StatsDomain stats;
  rt::QuiescenceManager qm(stats, rt::FencePolicy::kSelective,
                           rt::FenceMode::kEpochCounter);
  std::vector<std::atomic<tm::Value>> cells(kMax);
  ta::TxAllocator heap(kPrefix, kMax, qm, cells.data(),
                       {.magazine_size = 0, .limbo_batch = 1, .shards = 1});
  std::vector<TxHandle> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(heap.alloc(16));
  ASSERT_EQ(heap.allocated_end(), kMax);

  const int slot = qm.registry().register_thread();
  std::atomic<bool> in_tx{false};
  std::atomic<bool> ended{false};
  std::thread reader([&] {
    qm.registry().tx_enter(slot);
    in_tx.store(true);
    // Hold the transaction open until the allocator is waiting on it.
    while (stats.total(rt::Counter::kAllocCapWait) == 0) {
      std::this_thread::yield();
    }
    ended.store(true);
    qm.registry().tx_exit(slot);
  });
  while (!in_tx.load()) std::this_thread::yield();
  cells[static_cast<std::size_t>(blocks[0].base)].store(7);
  heap.free(blocks[0]);
  ASSERT_EQ(heap.limbo_size(), 1u);

  const TxHandle again = heap.alloc(16);
  EXPECT_TRUE(ended.load()) << "alloc returned inside the grace period";
  EXPECT_EQ(again.base, blocks[0].base);
  EXPECT_EQ(cells[static_cast<std::size_t>(again.base)].load(),
            hist::kVInit);
  EXPECT_EQ(stats.total(rt::Counter::kAllocCapWait), 1u);
  EXPECT_EQ(heap.allocated_end(), kMax);
  reader.join();
  qm.registry().unregister_thread(slot);
}

}  // namespace
}  // namespace privstm
