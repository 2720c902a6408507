// Real-TM litmus tests — the Fundamental Property in action:
//  * fenced (DRF) programs have zero postcondition violations on TL2 and
//    their recorded histories pass the strong-opacity checker;
//  * NOrec and the global lock are safe even for the unfenced programs
//    (NOrec by design, glock trivially);
//  * unfenced (racy) programs on TL2 violate only probabilistically, so
//    here we only assert the checker classifies such histories as racy
//    (tests/explorer_test.cpp proves them racy by enumeration).
#include <gtest/gtest.h>

#include "lang/litmus.hpp"

namespace privstm {
namespace {

using namespace privstm::lang;
using tm::FencePolicy;
using tm::TmKind;

LitmusRunOptions quick(std::size_t runs, bool check = false) {
  LitmusRunOptions options;
  options.runs = runs;
  options.jitter_max_spins = 128;
  options.check_strong_opacity = check;
  return options;
}

TEST(Litmus, FencedSuiteSafeOnTl2) {
  for (const LitmusSpec& spec : all_litmus()) {
    if (spec.name == "fig3_racy") continue;  // racy by design
    SCOPED_TRACE(spec.name);
    const auto stats =
        run_litmus(spec, TmKind::kTl2, FencePolicy::kSelective, quick(300));
    EXPECT_EQ(stats.postcondition_violations, 0u);
    EXPECT_EQ(stats.runs, 300u);
  }
}

TEST(Litmus, FencedSuiteHistoriesStronglyOpaqueOnTl2) {
  for (const LitmusSpec& spec : all_litmus()) {
    if (spec.name == "fig3_racy") continue;
    SCOPED_TRACE(spec.name);
    const auto stats = run_litmus(spec, TmKind::kTl2, FencePolicy::kSelective,
                                  quick(150, /*check=*/true));
    EXPECT_EQ(stats.opacity_violations, 0u) << stats.first_violation_detail;
    EXPECT_EQ(stats.histories_checked, 150u);
  }
}

TEST(Litmus, UnfencedSafeOnNOrec) {
  // NOrec privatizes safely without fences (fence policy kNone turns the
  // program's fence into a no-op).
  for (LitmusSpec spec : {make_fig1a(false), make_fig1b(false), make_fig2(),
                          make_fig6()}) {
    SCOPED_TRACE(spec.name);
    LitmusRunOptions options = quick(300);
    options.commit_pause_spins = 500;
    const auto stats =
        run_litmus(spec, TmKind::kNOrec, FencePolicy::kNone, options);
    EXPECT_EQ(stats.postcondition_violations, 0u);
  }
}

TEST(Litmus, UnfencedSafeOnGlobalLock) {
  // Note: fig3 is excluded — it is racy, and even the global lock violates
  // it (NT reads do not take the lock and can observe a transaction's
  // in-place writes mid-flight). That is exactly why racy programs get no
  // strong-atomicity guarantee from any of our TMs.
  for (LitmusSpec spec : {make_fig1a(false), make_fig1b(false), make_fig2(),
                          make_fig6(), make_fig_ro(false)}) {
    SCOPED_TRACE(spec.name);
    const auto stats =
        run_litmus(spec, TmKind::kGlobalLock, FencePolicy::kNone, quick(300));
    EXPECT_EQ(stats.postcondition_violations, 0u);
  }
}

TEST(Litmus, UnfencedTl2HistoriesClassifiedRacy) {
  // Running Fig 1(a) without fences on TL2: whatever happens, the checker
  // must classify the recorded histories as racy (outside H|DRF) whenever
  // both conflicting accesses occur, and never report an opacity violation
  // for a DRF history.
  LitmusRunOptions options = quick(150, /*check=*/true);
  options.commit_pause_spins = 200;
  const auto stats = run_litmus(make_fig1a(false), TmKind::kTl2,
                                FencePolicy::kNone, options);
  EXPECT_EQ(stats.opacity_violations, 0u) << stats.first_violation_detail;
}

TEST(Litmus, AlwaysPolicySafeWithoutProgramFences) {
  // Conservative fence-after-every-commit makes even the unfenced Fig 1
  // programs safe on TL2 — at the cost of one fence per commit.
  for (LitmusSpec spec : {make_fig1a(false), make_fig1b(false)}) {
    SCOPED_TRACE(spec.name);
    LitmusRunOptions options = quick(300);
    options.commit_pause_spins = 500;
    const auto stats =
        run_litmus(spec, TmKind::kTl2, FencePolicy::kAlways, options);
    EXPECT_EQ(stats.postcondition_violations, 0u);
  }
}

TEST(Litmus, RoFenceBugPolicyComparison) {
  // kAlways quiesces after the read-only privatizing transaction: safe.
  LitmusRunOptions options = quick(300);
  options.commit_pause_spins = 2000;
  const auto safe = run_litmus(make_fig_ro(false), TmKind::kTl2,
                               FencePolicy::kAlways, options);
  EXPECT_EQ(safe.postcondition_violations, 0u);
  // kSkipAfterReadOnly is the buggy GCC behaviour; its violations are
  // probabilistic, so here we just confirm the harness runs it
  // (Explorer.FigRoUnfencedIsRacy proves the program racy).
  const auto buggy = run_litmus(make_fig_ro(false), TmKind::kTl2,
                                FencePolicy::kSkipAfterReadOnly, options);
  EXPECT_EQ(buggy.runs, options.runs);
}

TEST(Litmus, StatsAccumulateAcrossRuns) {
  const auto stats = run_litmus(make_fig2(), TmKind::kTl2,
                                FencePolicy::kSelective, quick(50));
  EXPECT_EQ(stats.runs, 50u);
  EXPECT_GT(stats.committed_txns, 0u);
}

TEST(Litmus, SpecsDescribeThemselves) {
  for (const LitmusSpec& spec : all_litmus()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.description.empty());
    EXPECT_GE(spec.program.threads.size(), 2u);
    EXPECT_GT(spec.program.num_registers, 0u);
  }
}

}  // namespace
}  // namespace privstm
