// Stripe-count tuning (the remaining ROADMAP half): sweep
// TmConfig::lock_stripes under a contended mixed-churn layout and assert
// the false-conflict rate falls monotonically as the table grows, then
// pin TmConfig::auto_size_stripes — the occupancy-driven sizing rule —
// both as arithmetic and as an end-to-end "auto-sized tables keep false
// conflicts low" property.
//
// Contention is staged deterministically: a reader transaction snapshots
// K cells of ITS OWN blocks, a second session then commits writes to K
// cells of DISJOINT blocks, and the reader's commit-time validation
// either passes (no stripe shared) or aborts — by construction every
// abort is a false conflict. Interleaving the two sessions on one OS
// thread makes the sweep reproducible on any box (a timeshared single
// core would otherwise hide real overlap), and the fixed RNG seed makes
// the rate a pure function of the stripe table, which is what lets the
// monotonicity assertion be strict.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/rng.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::TmKind;
using tm::TxHandle;

/// Mixed-churn heap layout: interleaved mixed-size blocks for the reader
/// and the writer, so cells are stride-aligned the way the size-class
/// allocator really hands them out.
struct Layout {
  std::vector<hist::RegId> reader_cells;
  std::vector<hist::RegId> writer_cells;
};

Layout build_layout(tm::TransactionalMemory& tm) {
  constexpr std::size_t kSizes[] = {5, 17, 33, 65, 9, 3, 129, 49};
  Layout layout;
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t n = kSizes[i % std::size(kSizes)];
    const TxHandle mine = tm.tm_alloc(n);
    const TxHandle theirs = tm.tm_alloc(n);
    for (std::size_t k = 0; k < n; ++k) {
      layout.reader_cells.push_back(mine.loc(k));
      layout.writer_cells.push_back(theirs.loc(k));
    }
  }
  return layout;
}

/// Fraction of reader transactions aborted by commit-time validation
/// although the writer touched only disjoint locations.
double false_conflict_rate(TmKind kind, const tm::TmConfig& config) {
  auto tmi = tm::make_tm(kind, config);
  const Layout layout = build_layout(*tmi);
  auto reader = tmi->make_thread(0, nullptr);
  auto writer = tmi->make_thread(1, nullptr);

  constexpr std::size_t kTrials = 256;
  constexpr std::size_t kAccesses = 12;
  rt::Xoshiro256 rng(12345);
  std::size_t aborts = 0;
  tm::Value tag = 1u << 20;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    bool alive = reader->tx_begin();
    for (std::size_t k = 0; alive && k < kAccesses; ++k) {
      tm::Value v = 0;
      alive = reader->tx_read(
          layout.reader_cells[rng.below(layout.reader_cells.size())], v);
    }
    if (alive) {
      alive = reader->tx_write(
          layout.reader_cells[rng.below(layout.reader_cells.size())], ++tag);
    }
    // The foreign commit the reader must validate against.
    tm::run_tx_retry(*writer, [&](tm::TxScope& tx) {
      for (std::size_t k = 0; k < kAccesses; ++k) {
        tx.write(layout.writer_cells[rng.below(layout.writer_cells.size())],
                 ++tag);
      }
    });
    if (alive) {
      if (reader->tx_commit() == tm::TxResult::kAborted) ++aborts;
    } else {
      ++aborts;  // aborted mid-transaction (counted the same)
    }
  }
  return static_cast<double>(aborts) / kTrials;
}

class StripeSweep : public ::testing::TestWithParam<TmKind> {};

TEST_P(StripeSweep, FalseConflictRateFallsMonotonicallyWithStripeCount) {
  const std::size_t sweep[] = {16, 64, 256, 1024, 4096};
  std::vector<double> rates;
  for (const std::size_t stripes : sweep) {
    tm::TmConfig config;
    config.num_registers = 1;
    config.lock_stripes = stripes;
    rates.push_back(false_conflict_rate(GetParam(), config));
  }
  for (std::size_t i = 0; i + 1 < rates.size(); ++i) {
    // The run is deterministic (fixed seed, single-threaded interleave),
    // so monotonicity holds exactly up to hash luck on one step; the
    // epsilon only forgives a same-rate plateau at the tail.
    EXPECT_LE(rates[i + 1], rates[i] + 0.02)
        << "rate rose from " << sweep[i] << " to " << sweep[i + 1]
        << " stripes: " << rates[i] << " -> " << rates[i + 1];
  }
  // A cramped table must actually hurt and a large one must actually fix
  // it, or the sweep is vacuous.
  EXPECT_GT(rates.front(), 0.30) << "16 stripes showed no contention";
  EXPECT_LT(rates.back(), 0.10) << "4096 stripes still collide";
  EXPECT_LT(rates.back(), rates.front() / 3);
}

TEST_P(StripeSweep, AutoSizedShardedTableKeepsFalseConflictsLow) {
  // The same workload/occupancy on a fully sharded configuration: eight
  // allocator shards, eight stripe regions, auto-sized table. Region
  // partitioning re-maps which stripes an address range can occupy but
  // must not concentrate the live set — the false-conflict ceiling of
  // the unpartitioned table still holds.
  tm::TmConfig config;
  config.num_registers = 1;
  config.alloc.shards = 8;
  const std::size_t expected_cells =
      2 * 4 * (5 + 17 + 33 + 65 + 9 + 3 + 129 + 49);
  const std::size_t chosen = config.auto_size_stripes(expected_cells);
  EXPECT_GE(chosen, 2 * expected_cells);
  EXPECT_LT(false_conflict_rate(GetParam(), config), 0.10);
}

TEST_P(StripeSweep, AutoSizedTableKeepsFalseConflictsLow) {
  // ~2500 live cells across both sides (32 blocks each, 4 full laps of
  // the size cycle); auto-sizing from the total occupancy must land in
  // the flat part of the sweep above.
  tm::TmConfig config;
  config.num_registers = 1;
  const std::size_t expected_cells =
      2 * 4 * (5 + 17 + 33 + 65 + 9 + 3 + 129 + 49);
  const std::size_t chosen = config.auto_size_stripes(expected_cells);
  EXPECT_GE(chosen, 2 * expected_cells);
  EXPECT_LT(false_conflict_rate(GetParam(), config), 0.10);
}

INSTANTIATE_TEST_SUITE_P(Tl2Family, StripeSweep,
                         ::testing::Values(TmKind::kTl2, TmKind::kTl2Fused),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

TEST(StripeAutoSize, TargetsTwoStripesPerCellPowerOfTwoClamped) {
  tm::TmConfig config;
  EXPECT_EQ(config.auto_size_stripes(0), tm::TmConfig::kMinAutoStripes);
  EXPECT_EQ(config.auto_size_stripes(100), 256u);
  EXPECT_EQ(config.lock_stripes, 256u);  // the config field is updated
  EXPECT_EQ(config.auto_size_stripes(1024), 2048u);
  EXPECT_EQ(config.auto_size_stripes(3000), 8192u);
  // Exact powers of two stay exact.
  EXPECT_EQ(config.auto_size_stripes(2048), 4096u);
  // The clamp: a huge expected heap must not demand a gigabyte of locks.
  EXPECT_EQ(config.auto_size_stripes(std::size_t{1} << 30),
            tm::TmConfig::kMaxAutoStripes);
  EXPECT_EQ(config.auto_size_stripes(std::size_t{1} << 19),
            tm::TmConfig::kMaxAutoStripes);
}

TEST(StripeAutoSize, RegionPartitioningPreservesTotalsAndClamp) {
  // Regions are powers of two and the per-region budget is ceil-divided,
  // so the TOTAL auto size is the same whatever the partitioning — the
  // sizing rule and the region count stay independent knobs.
  tm::TmConfig config;
  config.alloc.shards = 8;  // eight stripe regions
  ASSERT_EQ(config.alloc.effective_shards(), 8u);
  EXPECT_EQ(config.auto_size_stripes(100), 256u);
  EXPECT_EQ(config.auto_size_stripes(1024), 2048u);
  // The global clamp applies to the total, not per region.
  EXPECT_EQ(config.auto_size_stripes(std::size_t{1} << 30),
            tm::TmConfig::kMaxAutoStripes);
  // And the floor survives a degenerate single-region table.
  config.alloc.shards = 1;
  EXPECT_EQ(config.auto_size_stripes(0), tm::TmConfig::kMinAutoStripes);
}

}  // namespace
}  // namespace privstm
