// Deterministic fault injection (runtime/fault.hpp, DESIGN.md §10): the
// conformance matrix of ISSUE 6. Every backend × every fence engine re-runs
// the paper's Fig 1 privatization scenarios with a seeded fault plan armed —
// spurious aborts at lock-acquire / read-validation / commit, lost CASes,
// bounded delays at fences and allocator refills — and the existing checker
// pipeline must stay green: injected aborts ride the backends' own clean
// abort paths, so every recorded history is still well-formed, race-free
// and strongly opaque, and the abort-guarded postconditions still hold.
//
// Also here: the injector's unit contract (determinism under a fixed seed,
// suspend/resume used by the serial gate, per-site addressing including the
// allocator shared-refill site).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "lang/litmus.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "tm/factory.hpp"
#include "tm/tm.hpp"

namespace privstm {
namespace {

using tm::FencePolicy;
using tm::TmConfig;
using tm::TmKind;

/// The matrix's fault plan: moderate rates so every run still makes
/// progress, but hundreds of faults land across a litmus campaign.
rt::FaultConfig matrix_plan() {
  rt::FaultConfig plan;
  plan.seed = 0xfa17c0de;
  plan.abort_permille = 100;
  plan.cas_loss_permille = 100;
  plan.delay_permille = 200;
  plan.delay_max_spins = 100;
  return plan;
}

// ---------------------------------------------------------------------------
// Injector unit contract.
// ---------------------------------------------------------------------------

TEST(FaultInjector, DisabledByDefault) {
  rt::StatsDomain stats;
  rt::FaultInjector injector(rt::FaultConfig{}, stats);
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.inject_abort(0, rt::FaultSite::kCommit));
    EXPECT_FALSE(injector.inject_cas_loss(0, rt::FaultSite::kLockAcquire));
    injector.maybe_delay(0, rt::FaultSite::kFence);
  }
  EXPECT_EQ(injector.injected_total(), 0u);
}

TEST(FaultInjector, SameSeedSameSiteStreamIsIdentical) {
  rt::FaultConfig plan = matrix_plan();
  auto drive = [&plan]() {
    rt::StatsDomain stats;
    rt::FaultInjector injector(plan, stats);
    std::vector<bool> rolls;
    for (int i = 0; i < 400; ++i) {
      rolls.push_back(injector.inject_abort(0, rt::FaultSite::kCommit));
      rolls.push_back(
          injector.inject_cas_loss(1, rt::FaultSite::kLockAcquire));
      const std::uint64_t before =
          injector.injected(rt::FaultSite::kFence);
      injector.maybe_delay(2, rt::FaultSite::kFence);
      rolls.push_back(injector.injected(rt::FaultSite::kFence) != before);
    }
    return std::make_pair(rolls, injector.injected_total());
  };
  const auto first = drive();
  const auto second = drive();
  EXPECT_EQ(first.first, second.first)
      << "the per-slot streams must replay exactly under a fixed seed";
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second, 0u) << "the plan's rates must actually fire";
}

TEST(FaultInjector, SiteMaskAndSuspendGateInjection) {
  rt::FaultConfig plan;
  plan.abort_permille = 1000;  // every roll fires...
  plan.sites = rt::fault_site_bit(rt::FaultSite::kCommit);  // ...here only
  rt::StatsDomain stats;
  rt::FaultInjector injector(plan, stats);

  EXPECT_FALSE(injector.inject_abort(0, rt::FaultSite::kReadValidation))
      << "sites outside the mask must stay clean";
  EXPECT_TRUE(injector.inject_abort(0, rt::FaultSite::kCommit));

  // suspend() — what escalate_enter does for the irrevocable session —
  // must silence the slot; resume() re-arms it. Nesting counts.
  injector.suspend(0);
  injector.suspend(0);
  EXPECT_FALSE(injector.inject_abort(0, rt::FaultSite::kCommit));
  injector.resume(0);
  EXPECT_FALSE(injector.inject_abort(0, rt::FaultSite::kCommit));
  injector.resume(0);
  EXPECT_TRUE(injector.inject_abort(0, rt::FaultSite::kCommit));

  EXPECT_EQ(injector.injected(rt::FaultSite::kCommit), 2u);
  EXPECT_EQ(injector.injected(rt::FaultSite::kReadValidation), 0u);
  EXPECT_EQ(stats.total(rt::Counter::kFaultInjected), 2u);
}

TEST(FaultInjector, PerThreadBudgetCapsInjection) {
  rt::FaultConfig plan;
  plan.abort_permille = 1000;
  plan.max_per_thread = 3;
  rt::StatsDomain stats;
  rt::FaultInjector injector(plan, stats);
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (injector.inject_abort(0, rt::FaultSite::kCommit)) ++fired;
  }
  EXPECT_EQ(fired, 3) << "max_per_thread must bound a slot's total";
  EXPECT_TRUE(injector.inject_abort(1, rt::FaultSite::kCommit))
      << "budgets are per-slot, not global";
}

// ---------------------------------------------------------------------------
// The allocator shared-refill site: starve the magazines so every tm_alloc
// takes the central-pool slow path, and arm only kAllocRefill.
// ---------------------------------------------------------------------------

TEST(FaultInjector, AllocatorRefillSiteFires) {
  TmConfig config;
  config.alloc.magazine_size = 0;  // every allocation hits alloc_slow
  config.fault.delay_permille = 1000;
  config.fault.delay_max_spins = 16;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kAllocRefill);
  auto tmi = tm::make_tm(TmKind::kTl2, config);
  auto session = tmi->make_thread(0, nullptr);

  std::vector<tm::TxHandle> blocks;
  for (int i = 0; i < 32; ++i) {
    blocks.push_back(session->tm_alloc(64));
  }
  for (const tm::TxHandle h : blocks) session->tm_free(h);

  EXPECT_GT(tmi->fault().injected(rt::FaultSite::kAllocRefill), 0u);
  EXPECT_EQ(tmi->fault().injected(rt::FaultSite::kCommit), 0u)
      << "nothing outside the armed site may fire";
}

// ---------------------------------------------------------------------------
// The backend × fence-engine conformance matrix under seeded faults.
// ---------------------------------------------------------------------------

enum class FenceVariant {
  kSyncEpoch,  ///< synchronous fences, per-fence scan (the default)
  kAsync,      ///< asynchronous fences (tickets) over grace periods
};

const char* fence_variant_name(FenceVariant v) {
  switch (v) {
    case FenceVariant::kSyncEpoch:
      return "sync_epoch";
    case FenceVariant::kAsync:
      return "async";
  }
  return "?";
}

class FaultConformance
    : public ::testing::TestWithParam<std::tuple<TmKind, bool, FenceVariant>> {
};

TEST_P(FaultConformance, InjectedFig1HistoriesStayOpaqueAndDrf) {
  const auto [kind, doomed, variant] = GetParam();
  const lang::LitmusSpec spec =
      doomed ? lang::make_fig1b(true) : lang::make_fig1a(true);

  lang::LitmusRunOptions options;
  options.async_fences = variant == FenceVariant::kAsync;
  options.fault = matrix_plan();
  options.jitter_max_spins = 200;
  options.commit_pause_spins = 150;

  // Pass 1: postconditions only, across many seeded fault plans (the
  // harness re-seeds the injector per run so each run draws a distinct
  // but reproducible fault pattern).
  options.runs = 120;
  options.seed = 20260807;
  auto stats = lang::run_litmus(spec, kind, FencePolicy::kSelective, options);
  EXPECT_EQ(stats.postcondition_violations, 0u)
      << tm::tm_kind_name(kind) << " violated " << spec.name
      << " under faults (" << fence_variant_name(variant) << ")";
  EXPECT_GT(stats.faults_injected, 0u)
      << "a fault campaign that injects nothing proves nothing";

  // Pass 2: recorded histories through the DRF + strong-opacity pipeline.
  // This is the load-bearing assertion: an injected abort that left a
  // stripe locked, tore a write-back or forged a commit would surface
  // here as a racy or non-opaque history.
  options.runs = 25;
  options.seed = 4242;
  options.check_strong_opacity = true;
  stats = lang::run_litmus(spec, kind, FencePolicy::kSelective, options);
  EXPECT_GT(stats.histories_checked, 0u);
  EXPECT_EQ(stats.racy_histories, 0u)
      << tm::tm_kind_name(kind) << " produced a racy history on "
      << spec.name << " under faults (" << fence_variant_name(variant) << ")";
  EXPECT_EQ(stats.opacity_violations, 0u)
      << tm::tm_kind_name(kind) << " on " << spec.name << " under faults ("
      << fence_variant_name(variant) << "): "
      << stats.first_violation_detail;
  EXPECT_EQ(stats.postcondition_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTms, FaultConformance,
    ::testing::Combine(::testing::ValuesIn(tm::all_tm_kinds()),
                       ::testing::Bool(),
                       ::testing::Values(FenceVariant::kSyncEpoch,
                                         FenceVariant::kAsync)),
    [](const auto& info) {
      return std::string(tm::tm_kind_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_fig1b_doomed" : "_fig1a_delayed") +
             "_" + fence_variant_name(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// TM-level determinism: a single-session workload under a fixed seed and
// slot assignment must reproduce the exact same per-site injection tallies
// across two TM instances — the property that makes a fault-found bug
// replayable. (Single-threaded on purpose: with rivals, *genuine* conflict
// aborts depend on scheduling and shift each stream's consumption point.)
// ---------------------------------------------------------------------------

TEST(FaultInjection, SingleSessionWorkloadReplaysExactly) {
  auto drive = []() {
    TmConfig config;
    config.fault = matrix_plan();
    auto tmi = tm::make_tm(TmKind::kTl2, config);
    auto session = tmi->make_thread(0, nullptr);
    std::size_t commits = 0;
    for (int i = 0; i < 300; ++i) {
      const tm::TxResult r = tm::run_tx(*session, [&](tm::TxScope& tx) {
        tx.write(static_cast<tm::RegId>(i % 8), tx.read(0) + 1);
      });
      if (r == tm::TxResult::kCommitted) ++commits;
      if (i % 16 == 0) session->fence();
    }
    std::array<std::uint64_t, rt::kFaultSiteCount> per_site{};
    for (std::size_t s = 0; s < rt::kFaultSiteCount; ++s) {
      per_site[s] = tmi->fault().injected(static_cast<rt::FaultSite>(s));
    }
    return std::make_tuple(commits, per_site,
                           tmi->stats().total(rt::Counter::kFaultInjected));
  };
  const auto first = drive();
  const auto second = drive();
  EXPECT_EQ(first, second)
      << "same seed + same slot + same operation order must replay exactly";
  EXPECT_GT(std::get<2>(first), 0u) << "the plan's rates must actually fire";
}

}  // namespace
}  // namespace privstm
