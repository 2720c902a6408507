// The PR 7 sharding layer (DESIGN.md §11): the per-shard allocator free
// store (home-bin refill, sibling stealing, bounded incremental
// compaction), the GV4-batched commit clock, and the
// region-partitioned stripe table. alloc_test.cpp covers the magazine and
// limbo machinery; this file pins what PR 7 added around it.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/global_clock.hpp"
#include "runtime/stripe_table.hpp"
#include "tm/alloc/size_class.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::TmKind;
using tm::TxHandle;
namespace ta = tm::alloc;

std::unique_ptr<tm::TransactionalMemory> make_tm_with(tm::TmConfig config) {
  return tm::make_tm(TmKind::kTl2Fused, config);
}

/// Pin the calling thread's home shard for a scope; unpins on exit so
/// later tests (same gtest thread) draw their ordinal home again.
struct HomeShardPin {
  explicit HomeShardPin(std::size_t shard) {
    ta::TxAllocator::bind_home_shard(shard);
  }
  ~HomeShardPin() {
    ta::TxAllocator::bind_home_shard(ta::TxAllocator::kNoHomeShard);
  }
};

/// Retire every freed block into the shard bins (the free itself only
/// seals; the grace-period scan completes on a later retire attempt).
void drain_until_binned(tm::TransactionalMemory& tmi, std::size_t cells) {
  for (int i = 0; i < 8 && tmi.heap().free_cells() < cells; ++i) {
    tmi.heap().drain_limbo();
  }
  ASSERT_EQ(tmi.heap().free_cells(), cells);
}

// ---------------------------------------------------------------------------
// Per-shard free store: refill order and sibling stealing.
// ---------------------------------------------------------------------------

tm::TmConfig sharded_uncached() {
  tm::TmConfig config;
  // No magazines and single-block limbo batches: every alloc consults the
  // shared store and every free retires promptly, so bin contents are
  // exactly observable.
  config.alloc = {.magazine_size = 0, .limbo_batch = 1, .shards = 4};
  return config;
}

TEST(AllocShard, RefillStealsFromSiblingBeforeCentral) {
  auto tmi = make_tm_with(sharded_uncached());
  auto& heap = tmi->heap();
  ASSERT_EQ(heap.shard_count(), 4u);

  TxHandle h = tmi->tm_alloc(4);
  const std::size_t owner = heap.shard_of(h.base);
  const std::size_t end = heap.allocated_end();
  tmi->tm_free(h);
  drain_until_binned(*tmi, 4);

  // An allocator whose home shard is a sibling of the block's shard must
  // serve the request by stealing — before ever taking the central lock's
  // compaction/bump tiers.
  const std::size_t sibling = (owner + 1) % heap.shard_count();
  TxHandle h2;
  {
    HomeShardPin pin(sibling);
    h2 = tmi->tm_alloc(4);
  }
  EXPECT_EQ(h2.base, h.base) << "steal must reuse the binned block";
  EXPECT_EQ(heap.allocated_end(), end) << "steal must not grow the arena";
  EXPECT_EQ(heap.steal_count(), 1u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kAllocShardSteal), 1u);
  EXPECT_EQ(heap.compaction_count(), 0u)
      << "a same-class steal must never trigger compaction";
}

TEST(AllocShard, EmptyHomeShardStealsFromEverySiblingDistance) {
  auto tmi = make_tm_with(sharded_uncached());
  auto& heap = tmi->heap();

  TxHandle cur = tmi->tm_alloc(4);
  const hist::RegId base = cur.base;
  const std::size_t owner = heap.shard_of(base);
  std::uint64_t expected_steals = 0;
  for (std::size_t home = 0; home < heap.shard_count(); ++home) {
    tmi->tm_free(cur);
    drain_until_binned(*tmi, 4);
    HomeShardPin pin(home);
    cur = tmi->tm_alloc(4);
    ASSERT_EQ(cur.base, base) << "home " << home;
    // A home-shard hit is not a steal; every other home must steal,
    // whatever its ring distance to the block's shard.
    if (home != owner) ++expected_steals;
    EXPECT_EQ(heap.steal_count(), expected_steals) << "home " << home;
  }
  EXPECT_EQ(tmi->stats().total(rt::Counter::kAllocShardSteal),
            expected_steals);
  EXPECT_EQ(expected_steals, heap.shard_count() - 1);
}

TEST(AllocShard, SingleShardConfigHasNoStealTier) {
  tm::TmConfig config;
  config.alloc = {.magazine_size = 0, .limbo_batch = 1, .shards = 1};
  auto tmi = make_tm_with(config);
  auto& heap = tmi->heap();
  ASSERT_EQ(heap.shard_count(), 1u);

  TxHandle h = tmi->tm_alloc(8);
  EXPECT_EQ(heap.shard_of(h.base), 0u);
  tmi->tm_free(h);
  drain_until_binned(*tmi, 8);
  TxHandle h2 = tmi->tm_alloc(8);
  EXPECT_EQ(h2.base, h.base) << "single-shard reuse is deterministic LIFO";
  EXPECT_EQ(heap.steal_count(), 0u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kAllocShardSteal), 0u);
}

TEST(AllocShard, ShardHashMatchesStripeRegionHash) {
  // The allocator's shard hash and the stripe table's region hash use the
  // same windowed Fibonacci mix, so when shard count == region count a
  // block's metadata region is its allocating shard (the §11 affinity
  // argument). Pin the agreement.
  tm::TmConfig config;
  config.alloc.shards = 4;
  auto tmi = make_tm_with(config);
  rt::StripeTable table(1024, 4);
  ASSERT_EQ(table.region_count(), 4u);
  for (std::uint64_t loc = 0; loc < 4096; ++loc) {
    ASSERT_EQ(tmi->heap().shard_of(static_cast<hist::RegId>(loc)),
              table.region_of(loc))
        << "loc " << loc;
  }
}

// ---------------------------------------------------------------------------
// Bounded incremental compaction.
// ---------------------------------------------------------------------------

TEST(AllocShard, CompactionIsIncrementalAndBounded) {
  tm::TmConfig config;
  config.alloc = {.magazine_size = 0, .limbo_batch = 1, .shards = 1};
  auto tmi = make_tm_with(config);
  auto& heap = tmi->heap();

  // 150 single-cell blocks, contiguous from the bump pointer.
  constexpr std::size_t kBlocks = 150;
  static_assert(kBlocks > 2 * ta::kCompactionSpillBudget);
  std::vector<TxHandle> handles;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    handles.push_back(tmi->tm_alloc(1));
    if (i > 0) {
      ASSERT_EQ(handles[i].base, handles[i - 1].base + 1)
          << "bump allocation must be contiguous for this scenario";
    }
  }
  for (TxHandle h : handles) tmi->tm_free(h);
  drain_until_binned(*tmi, kBlocks);
  ASSERT_EQ(heap.compaction_count(), 0u)
      << "same-size churn must never compact";

  // A cross-class request forces spills — but only budget-bounded steps,
  // each counted once: 64 blocks coalesce to 64 cells (not enough), 64
  // more reach 128, and the remaining 22 blocks are never touched.
  ASSERT_EQ(ta::storage_size(128), 128u);
  const std::size_t end = heap.allocated_end();
  TxHandle big = tmi->tm_alloc(128);
  EXPECT_EQ(heap.allocated_end(), end)
      << "the request must be served by compaction, not bump growth";
  EXPECT_EQ(heap.compaction_count(), 2u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kAllocCompaction), 2u);
  // LIFO spill order: the top 128 bases [22, 150) merged into one extent.
  EXPECT_EQ(big.base, handles[kBlocks - 2 * ta::kCompactionSpillBudget].base);
  EXPECT_EQ(heap.free_cells(), kBlocks - 128u)
      << "unspilled blocks stay in their bins";
}

TEST(AllocShardBins, SpillResumesMidClassAcrossBudgetedSteps) {
  ta::ShardBins bins;
  ta::ExtentMap extents;
  // Ten non-adjacent single-cell blocks — no coalescing, so spilled cell
  // counts are exact.
  for (hist::RegId base = 0; base < 20; base += 2) bins.put(base, 1, 0);
  ASSERT_EQ(bins.cells(), 10u);

  EXPECT_EQ(bins.spill(extents, 4), 4u);
  EXPECT_EQ(bins.cells(), 6u);
  EXPECT_EQ(extents.free_cells(), 4u);

  // The next step resumes inside class 0 and drains the rest; a further
  // step finds nothing.
  EXPECT_EQ(bins.spill(extents, 100), 6u);
  EXPECT_EQ(bins.cells(), 0u);
  EXPECT_EQ(extents.free_cells(), 10u);
  EXPECT_EQ(bins.spill(extents, 100), 0u);
}

// ---------------------------------------------------------------------------
// GV4 commit-batch clock.
// ---------------------------------------------------------------------------

TEST(ClockGv4, AdvanceFromSharesOnStaleSeen) {
  rt::GlobalClock clock;
  bool shared = true;
  // Fresh seen: the CAS wins and mints seen+1.
  EXPECT_EQ(clock.advance_from(0, shared), 1u);
  EXPECT_FALSE(shared);
  // Stale seen (another committer "won"): the failed CAS's reloaded value
  // is adopted instead of retrying — the deterministic share seam.
  EXPECT_EQ(clock.advance_from(0, shared), 1u);
  EXPECT_TRUE(shared);
  EXPECT_EQ(clock.sample(), 1u) << "sharing must not advance the clock";
  // And a fresh seen mints again.
  EXPECT_EQ(clock.advance_from(1, shared), 2u);
  EXPECT_FALSE(shared);
}

TEST(ClockGv4, BatchedIsIdenticalToFetchAddWithoutContention) {
  rt::GlobalClock fetch_add;
  rt::GlobalClock batched;
  for (int i = 0; i < 100; ++i) {
    bool shared = true;
    EXPECT_EQ(fetch_add.advance(), batched.advance_if_stale(shared));
    EXPECT_FALSE(shared) << "an uncontended CAS never shares";
  }
  EXPECT_EQ(fetch_add.sample(), batched.sample());
}

TEST(ClockContention, SharedStampCounterFiresWhenRivalWinsTheCasWindow) {
  // A committer that loses the GV4 clock CAS adopts the
  // winner's stamp and Counter::kClockStampShared ticks. Two commits
  // never overlap inside the load→CAS window on a single-core box, so
  // the contended branch is staged deterministically instead: the
  // kClockAdvance fault site advances the clock for real between the
  // committer's load and CAS (exactly what a rival disjoint-write-set
  // committer does), and the genuine share path — counter included —
  // runs on every writer commit.
  for (TmKind kind : {TmKind::kTl2, TmKind::kTl2Fused}) {
    tm::TmConfig config;
    config.fault.cas_loss_permille = 1000;
    config.fault.sites = rt::fault_site_bit(rt::FaultSite::kClockAdvance);
    auto tmi = tm::make_tm(kind, config);
    auto session = tmi->make_thread(0, nullptr);
    constexpr std::uint64_t kCommits = 32;
    for (std::uint64_t i = 0; i < kCommits; ++i) {
      tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
        tx.write(static_cast<hist::RegId>(i % 8), 1);
      });
    }
    EXPECT_EQ(tmi->stats().total(rt::Counter::kClockStampShared), kCommits)
        << tm::tm_kind_name(kind)
        << ": every staged-rival commit must adopt the rival's stamp";
    EXPECT_EQ(tmi->fault().injected(rt::FaultSite::kClockAdvance), kCommits)
        << tm::tm_kind_name(kind);
  }
}

// ---------------------------------------------------------------------------
// Region-partitioned stripe table.
// ---------------------------------------------------------------------------

TEST(StripeRegion, SingleRegionIsBitIdenticalToFlatTable) {
  rt::StripeTable flat(1024);
  rt::StripeTable regioned(1024, 1);
  ASSERT_EQ(regioned.region_count(), 1u);
  for (std::uint64_t loc = 0; loc < 100000; loc += 7) {
    ASSERT_EQ(flat.index_of(loc), regioned.index_of(loc)) << loc;
    ASSERT_EQ(regioned.region_of(loc), 0u);
  }
}

TEST(StripeRegion, RegionsPartitionTheTableByWindow) {
  rt::StripeTable table(4096, 8);
  ASSERT_EQ(table.stripe_count(), 4096u);
  ASSERT_EQ(table.region_count(), 8u);
  const auto& g = table.geometry();
  for (std::uint64_t window = 0; window < 512; ++window) {
    const std::size_t region = table.region_of(window << 6);
    ASSERT_LT(region, table.region_count());
    for (std::uint64_t i = 0; i < 64; ++i) {
      const std::uint64_t loc = (window << 6) | i;
      // Every cell of a 64-cell window shares its region, and the stripe
      // index lands inside that region's slice of the table.
      ASSERT_EQ(table.region_of(loc), region) << loc;
      ASSERT_EQ(table.index_of(loc) >> g.per_bits, region) << loc;
      ASSERT_LT(table.index_of(loc), table.stripe_count()) << loc;
    }
  }
}

TEST(StripeRegion, CachedGeometryMatchesIndexOf) {
  // Both TL2 backends cache Geometry by value in their hot paths; the
  // copy must agree with the table's own mapping everywhere.
  for (std::size_t regions : {std::size_t{1}, std::size_t{4},
                              std::size_t{8}}) {
    rt::StripeTable table(2048, regions);
    const rt::StripeTable::Geometry g = table.geometry();
    for (std::uint64_t loc = 0; loc < 50000; loc += 3) {
      ASSERT_EQ(g.index(loc), table.index_of(loc))
          << "regions=" << regions << " loc=" << loc;
    }
  }
}

TEST(StripeRegion, EffectiveRegionsDefaultToAllocShards) {
  // Both TL2 backends partition their stripe table into one region per
  // effective allocator shard (shards = 3 rounds down to 2).
  for (TmKind kind : {TmKind::kTl2, TmKind::kTl2Fused}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{3},
                               std::size_t{8}}) {
      tm::TmConfig config;
      config.alloc.shards = shards;
      const rt::StripeTable expected(config.lock_stripes,
                                     config.alloc.effective_shards());
      auto tmi = tm::make_tm(kind, config);
      for (hist::RegId reg = 0; reg < 50000; reg += 7) {
        ASSERT_EQ(tmi->stripe_of(reg), expected.index_of(
                                           static_cast<std::uint64_t>(reg)))
            << tm::tm_kind_name(kind) << " shards=" << shards
            << " reg=" << reg;
      }
    }
  }
}

}  // namespace
}  // namespace privstm
