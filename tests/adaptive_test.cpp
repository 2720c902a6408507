// Adaptive contention governor (DESIGN.md §14, ROADMAP item 2(a)).
//
// Covers:
//  * epoch accounting: evaluations fire on the commit cadence, land in
//    Counter::kGovernorEpoch and the epoch summary, and the default
//    decision is the steady tier; epoch deltas count from construction,
//    so traffic recorded before the governor existed never reaches it;
//  * hysteresis: one outlier epoch cannot flap the policy — a candidate
//    tier must win `hysteresis_epochs` consecutive evaluations, and
//    alternating candidates never displace the live tier;
//  * the decision table's concentration signature: a mid abort rate reads
//    as kBackoff when the attributed stripes are diffuse and as kStorm
//    (kKarma) when a few sketch cells dominate;
//  * the deterministic storm shift on all four backends: sustained
//    injected aborts must drive the governed retry loop into the storm
//    tier within the hysteresis window;
//  * the governed session store end to end: a seeded hot-key storm under
//    bounded injection must adopt at least one policy shift with zero
//    consistency violations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/adaptive.hpp"
#include "runtime/contention.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"
#include "service/workload.hpp"
#include "tm/factory.hpp"
#include "tm/tm.hpp"

namespace privstm {
namespace {

using rt::AbortReason;
using rt::AdaptiveGovernor;
using rt::CmPolicy;
using rt::GovernorConfig;
using tm::TmConfig;
using tm::TmKind;

// ---------------------------------------------------------------------------
// Unit tests: the governor driven synthetically, no TM involved.
// ---------------------------------------------------------------------------

/// Push exactly one epoch of synthetic traffic through the governor:
/// counter deltas (the rate input), note_abort attributions, then
/// note_commit ticks up to the epoch boundary — the last tick evaluates.
void feed_epoch(rt::StatsDomain& stats, AdaptiveGovernor& gov,
                std::uint64_t aborts,
                const std::vector<std::uint32_t>& stripes = {},
                AbortReason reason = AbortReason::kReadValidation) {
  stats.add(0, rt::Counter::kTxAbort, aborts);
  for (std::uint64_t i = 0; i < aborts; ++i) {
    gov.note_abort(reason,
                   stripes.empty() ? rt::kNoStripe
                                   : stripes[i % stripes.size()]);
  }
  const std::uint32_t commits = gov.config().epoch_commits;
  stats.add(0, rt::Counter::kTxCommit, commits);
  for (std::uint32_t i = 0; i < commits; ++i) gov.note_commit(0);
}

/// The governor's sketch-cell hash (the documented Fibonacci-mix recipe),
/// replicated so tests can construct provably-diffuse stripe sets.
std::size_t sketch_cell(std::uint32_t stripe) {
  return static_cast<std::size_t>((stripe * 0x9E3779B9u) >> 26);
}

/// `n` stripes guaranteed to land in pairwise-distinct sketch cells.
std::vector<std::uint32_t> diffuse_stripes(std::size_t n) {
  std::vector<std::uint32_t> stripes;
  std::vector<bool> used(AdaptiveGovernor::kSketchCells, false);
  for (std::uint32_t s = 1; stripes.size() < n; ++s) {
    const std::size_t cell = sketch_cell(s);
    if (used[cell]) continue;
    used[cell] = true;
    stripes.push_back(s);
  }
  return stripes;
}

TEST(AdaptiveGovernorUnit, EpochAccountingAndSteadyDefault) {
  rt::StatsDomain stats;
  GovernorConfig cfg;
  cfg.epoch_commits = 32;
  AdaptiveGovernor gov(stats, cfg);

  // The construction-time decision is the steady tier.
  const rt::GovernorDecision d0 = gov.decision();
  EXPECT_EQ(d0.policy, CmPolicy::kImmediate);
  EXPECT_EQ(d0.exponent_cap, rt::ContentionManager::kMaxExponent);
  EXPECT_EQ(d0.escalate_after, cfg.steady_escalate_after);
  EXPECT_EQ(gov.epochs(), 0u);

  // Three clean epochs: three evaluations, no shift, steady throughout.
  for (int e = 0; e < 3; ++e) feed_epoch(stats, gov, /*aborts=*/0);
  EXPECT_EQ(gov.epochs(), 3u);
  EXPECT_EQ(gov.shifts(), 0u);
  EXPECT_EQ(stats.total(rt::Counter::kGovernorEpoch), 3u);
  EXPECT_EQ(stats.total(rt::Counter::kGovernorPolicyShift), 0u);

  const rt::GovernorEpochSummary s = gov.last_epoch();
  EXPECT_EQ(s.epoch, 3u);
  EXPECT_EQ(s.commits, 32u);
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(s.abort_permille, 0u);
  EXPECT_EQ(s.candidate, CmPolicy::kImmediate);
  EXPECT_EQ(s.adopted, CmPolicy::kImmediate);
  EXPECT_FALSE(s.shifted);
}

TEST(AdaptiveGovernorUnit, EpochDeltasStartAtConstruction) {
  // A storm's worth of aborts recorded before the governor exists must not
  // leak into its first epoch: deltas count from construction, not from
  // process start.
  rt::StatsDomain stats;
  stats.add(0, rt::Counter::kTxAbort, 10000);
  stats.add(0, rt::Counter::kTxCommit, 100);
  GovernorConfig cfg;
  cfg.epoch_commits = 32;
  AdaptiveGovernor gov(stats, cfg);

  feed_epoch(stats, gov, /*aborts=*/0);
  EXPECT_EQ(gov.epochs(), 1u);
  EXPECT_EQ(gov.last_epoch().commits, 32u);
  EXPECT_EQ(gov.last_epoch().aborts, 0u);
  EXPECT_EQ(gov.last_epoch().candidate, CmPolicy::kImmediate);
}

TEST(AdaptiveGovernorUnit, HysteresisBlocksSingleEpochSpike) {
  rt::StatsDomain stats;
  GovernorConfig cfg;
  cfg.epoch_commits = 32;
  cfg.hysteresis_epochs = 2;
  AdaptiveGovernor gov(stats, cfg);

  // One storm epoch (rate ~750 permille >= high threshold): the candidate
  // is kKarma but hysteresis holds the live policy at steady.
  feed_epoch(stats, gov, /*aborts=*/96);
  EXPECT_EQ(gov.last_epoch().candidate, CmPolicy::kKarma);
  EXPECT_FALSE(gov.last_epoch().shifted);
  EXPECT_EQ(gov.decision().policy, CmPolicy::kImmediate);
  EXPECT_EQ(gov.shifts(), 0u);

  // The second consecutive storm epoch adopts the tier.
  feed_epoch(stats, gov, /*aborts=*/96);
  EXPECT_TRUE(gov.last_epoch().shifted);
  EXPECT_EQ(gov.shifts(), 1u);
  const rt::GovernorDecision d = gov.decision();
  EXPECT_EQ(d.policy, CmPolicy::kKarma);
  EXPECT_EQ(d.escalate_after, cfg.storm_escalate_after);
  EXPECT_EQ(d.exponent_cap, cfg.storm_exponent_cap);
  EXPECT_EQ(stats.total(rt::Counter::kGovernorPolicyShift), 1u);

  // Calm returns: one clean epoch must NOT flap back...
  feed_epoch(stats, gov, /*aborts=*/0);
  EXPECT_EQ(gov.decision().policy, CmPolicy::kKarma);
  EXPECT_EQ(gov.shifts(), 1u);
  // ...the second consecutive clean epoch does.
  feed_epoch(stats, gov, /*aborts=*/0);
  EXPECT_EQ(gov.decision().policy, CmPolicy::kImmediate);
  EXPECT_EQ(gov.shifts(), 2u);
}

TEST(AdaptiveGovernorUnit, SteadySeededTrafficNeverFlaps) {
  // A steady workload with sub-threshold abort noise (rate well under
  // low_abort_permille every epoch) must hold the steady tier across many
  // epochs — zero shifts, the no-flapping half of the hysteresis argument.
  rt::StatsDomain stats;
  GovernorConfig cfg;
  cfg.epoch_commits = 64;
  AdaptiveGovernor gov(stats, cfg);
  const std::vector<std::uint32_t> stripes = diffuse_stripes(12);
  for (int e = 0; e < 20; ++e) {
    // 2 aborts / 66 attempts ≈ 30 permille < low_abort_permille (50).
    feed_epoch(stats, gov, /*aborts=*/2, stripes);
  }
  EXPECT_EQ(gov.epochs(), 20u);
  EXPECT_EQ(gov.shifts(), 0u);
  EXPECT_EQ(gov.decision().policy, CmPolicy::kImmediate);
}

TEST(AdaptiveGovernorUnit, ConcentrationSplitsBackoffFromStorm) {
  rt::StatsDomain stats;
  GovernorConfig cfg;
  cfg.epoch_commits = 90;
  AdaptiveGovernor gov(stats, cfg);

  // Mid rate (10 aborts / 100 attempts = 100 permille, between low and
  // high), attribution diffuse across 10 distinct sketch cells: top-4
  // share is 400 permille < hot_share_permille — a kBackoff epoch.
  feed_epoch(stats, gov, /*aborts=*/10, diffuse_stripes(10));
  EXPECT_EQ(gov.last_epoch().candidate, CmPolicy::kBackoff);
  EXPECT_EQ(gov.last_epoch().hot_share_permille, 400u);
  EXPECT_EQ(gov.last_epoch().attributed, 10u);

  // Same rate, every abort on ONE stripe: the hot-key-storm signature —
  // a kKarma (storm) epoch despite the unchanged rate.
  feed_epoch(stats, gov, /*aborts=*/10,
             std::vector<std::uint32_t>{77});
  EXPECT_EQ(gov.last_epoch().candidate, CmPolicy::kKarma);
  EXPECT_EQ(gov.last_epoch().hot_share_permille, 1000u);

  // Alternating candidates never satisfied hysteresis: still steady.
  EXPECT_EQ(gov.decision().policy, CmPolicy::kImmediate);
  EXPECT_EQ(gov.shifts(), 0u);
}

TEST(AdaptiveGovernorUnit, StormExponentCapBoundsBackoffWindow) {
  // The storm tier's tightened exponent cap flows through on_abort: even a
  // long abort streak may not wait past kUnitSpins << cap.
  rt::ContentionManager cm(5);
  const std::uint32_t cap = 3;
  for (int i = 0; i < 24; ++i) {
    EXPECT_LE(cm.on_abort(CmPolicy::kBackoff, cap),
              std::uint64_t{rt::ContentionManager::kUnitSpins} << cap)
        << "attempt " << i;
  }
}

// ---------------------------------------------------------------------------
// The deterministic storm shift, per backend.
// ---------------------------------------------------------------------------

class AdaptiveGovernorAllTms : public ::testing::TestWithParam<TmKind> {};

TEST_P(AdaptiveGovernorAllTms, ShiftsToStormUnderInjectedStorm) {
  // Every optimistic commit entry fault-aborts, so each governed op costs
  // escalate_after failed attempts before its escalated commit: the epoch
  // abort rate sits near 1000 permille on every backend (injected aborts
  // need no organic conflict), and the governor MUST adopt the storm tier
  // once hysteresis is satisfied. Fully deterministic: permille 1000.
  TmConfig config;
  config.fault.abort_permille = 1000;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kCommit);
  auto tmi = tm::make_tm(GetParam(), config);
  auto session = tmi->make_thread(0, nullptr);

  GovernorConfig gcfg;
  gcfg.epoch_commits = 8;
  gcfg.steady_escalate_after = 24;
  gcfg.storm_escalate_after = 4;
  AdaptiveGovernor governor(tmi->stats(), gcfg, tmi->trace_ptr());
  tm::TxRetryOptions options;
  options.governor = &governor;

  for (int op = 0; op < 64; ++op) {
    const tm::TxRetryResult r = tm::run_tx_retry(
        *session,
        [&](tm::TxScope& tx) { tx.write(0, 100 + op); }, options);
    ASSERT_TRUE(r.committed()) << "op " << op;
  }

  EXPECT_EQ(tmi->peek(0), 163);
  EXPECT_GE(governor.epochs(), 2u);
  EXPECT_GE(governor.shifts(), 1u);
  const rt::GovernorDecision d = governor.decision();
  EXPECT_EQ(d.policy, CmPolicy::kKarma) << "the storm tier must be live";
  EXPECT_EQ(d.escalate_after, gcfg.storm_escalate_after);
  EXPECT_EQ(d.exponent_cap, gcfg.storm_exponent_cap);
  EXPECT_GE(tmi->stats().total(rt::Counter::kGovernorPolicyShift), 1u);
  EXPECT_GE(governor.last_epoch().abort_permille,
            gcfg.high_abort_permille);
}

INSTANTIATE_TEST_SUITE_P(AllTms, AdaptiveGovernorAllTms,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// End to end: the governed session store through a storm-shift schedule.
// ---------------------------------------------------------------------------

TEST(AdaptiveService, StormShiftEndToEndKeepsConsistency) {
  // A bounded injected abort storm (budget per slot) over a governed
  // session store: the storm phase must adopt at least one policy shift,
  // the storm ends before the steady phase, the clean epochs of a final
  // quiet phase bring the governor back to the steady tier, and no phase
  // may report a consistency violation — the feedback loop never trades
  // correctness.
  TmConfig config;
  config.num_registers = 64;
  config.fault.abort_permille = 1000;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kReadValidation);
  config.fault.max_per_thread = 2000;  // the storm's abort budget
  auto tmi = tm::make_tm(TmKind::kTl2Fused, config);

  service::SessionStoreConfig store_cfg;
  store_cfg.buckets = 4;
  store_cfg.bucket_capacity = 256;
  service::SessionStore store(*tmi, store_cfg);

  GovernorConfig gcfg;
  gcfg.epoch_commits = 32;
  gcfg.steady_escalate_after = 12;
  gcfg.storm_escalate_after = 4;
  AdaptiveGovernor governor(tmi->stats(), gcfg, tmi->trace_ptr());

  service::WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.num_keys = 128;
  cfg.ttl_ticks = 512;
  cfg.sweep_every_ticks = 256;
  cfg.governor = &governor;

  service::PhaseConfig storm;
  storm.label = "hot-storm";
  storm.ops_per_thread = 400;
  storm.zipf_s = 0.99;
  storm.hot_permille = 800;
  storm.hot_keys = 8;
  storm.mix.put_permille = 300;

  service::PhaseConfig steady;
  steady.label = "steady";
  steady.ops_per_thread = 400;
  steady.zipf_s = 0.99;

  std::atomic<std::uint64_t> clock{1};
  const auto storm_result =
      service::run_phase(*tmi, store, cfg, storm, /*seed=*/99, clock);
  // End the storm. The budget alone does not: each worker slot stops a
  // little short of it within the storm phase, so the steady phase would
  // start with faults armed, and which slot each new thread claims decides
  // how many. The storm's threads have joined, so no slot owner runs
  // concurrently with these suspends.
  for (std::size_t s = 0; s < rt::StatsDomain::kMaxThreads; ++s) {
    tmi->fault().suspend(s);
  }
  const std::uint64_t storm_faults = tmi->fault().injected_total();
  const auto steady_result =
      service::run_phase(*tmi, store, cfg, steady, /*seed=*/100, clock);
  EXPECT_EQ(tmi->fault().injected_total(), storm_faults)
      << "the steady phase must run fault-free";

  // Fault-free is not abort-free: the steady phase's two workers and its
  // sweeper still conflict now and then, and a couple of aborts in a
  // 32-commit epoch already cross low_abort_permille, so the tier the
  // steady phase ends on depends on scheduling. The quiet phase has one
  // worker and no sweeper, so no transaction can abort and every epoch
  // after its first (which may carry the steady phase's tail) is clean.
  service::WorkloadConfig quiet_cfg = cfg;
  quiet_cfg.threads = 1;
  quiet_cfg.sweep_every_ticks = 0;
  service::PhaseConfig quiet;
  quiet.label = "quiet";
  quiet.ops_per_thread = 400;
  quiet.zipf_s = 0.99;
  const auto quiet_result =
      service::run_phase(*tmi, store, quiet_cfg, quiet, /*seed=*/101, clock);

  EXPECT_EQ(storm_result.consistency_violations, 0u);
  EXPECT_EQ(steady_result.consistency_violations, 0u);
  EXPECT_EQ(quiet_result.consistency_violations, 0u);
  EXPECT_GT(storm_result.governor_epochs, 0u);
  EXPECT_GE(storm_result.governor_shifts, 1u)
      << "the injected storm must drive at least one adopted shift";
  EXPECT_GE(quiet_result.governor_epochs, 3u);
  EXPECT_GE(governor.epochs(), storm_result.governor_epochs +
                                   steady_result.governor_epochs +
                                   quiet_result.governor_epochs);
  // The phase results surface the live policy; after the storm ended
  // and the quiet phase's clean epochs elapsed, the governor must have
  // demoted back off the storm tier (the storm is not sticky).
  EXPECT_EQ(quiet_result.governor_policy, CmPolicy::kImmediate);
}

}  // namespace
}  // namespace privstm
