// Handle-based reclamation litmus programs, model-checked and run end to
// end — the source of truth for the privatization-safe-reclamation claim
// (replacing the hand-written C++ reclamation test this repo started
// with):
//
//  * ReclamationExplorer — the strongly-atomic explorer enumerates every
//    interleaving of each scenario: the deliberately-unfenced variants
//    must be flagged racy with every race attributed to a freed heap
//    block (this is also the CI blindness gate), the fenced variants must
//    be DRF in all outcomes, and the paper postconditions must hold under
//    strong atomicity.
//
//  * ReclamationLitmus — the same programs interpreted against all four
//    real backends: unfenced runs whose handshake completed are flagged
//    racy on the freed block, fenced runs are race-free and strongly
//    opaque across all three fence modes.
#include <gtest/gtest.h>

#include <set>

#include "drf/race.hpp"
#include "history/wellformed.hpp"
#include "lang/explorer.hpp"
#include "lang/interp.hpp"
#include "lang/litmus.hpp"
#include "opacity/atomic_tm.hpp"
#include "opacity/strong_opacity.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using namespace privstm::lang;
using tm::TmKind;

// Handshake spins: single-attempt for exhaustive exploration, generous
// for real threads (the interpreter's jittered yield keeps even a
// one-core box far inside this bound).
constexpr Value kExploreSpin = 1;
constexpr Value kRealSpin = 2000;

// ---------------------------------------------------------------------------
// Explorer: exhaustive model checking (backend independent).
// ---------------------------------------------------------------------------

TEST(ReclamationExplorer, UnfencedScenariosAreRacyOnFreedBlocksOnly) {
  // The CI blindness gate: if the checker ever stops flagging the
  // deliberately-unfenced scenarios, reclamation coverage is gone.
  for (const LitmusSpec& spec : reclamation_litmus(false, kExploreSpin)) {
    SCOPED_TRACE(spec.name);
    const AtomicDrfReport report = check_drf_under_atomic(spec.program);
    EXPECT_TRUE(report.exhaustive);
    EXPECT_FALSE(report.drf)
        << spec.name << " explored " << report.total_outcomes
        << " outcomes without finding the use-after-free race";
    ASSERT_TRUE(report.racy_example.has_value());
    ASSERT_TRUE(report.example_races.has_value());
    const auto on_freed = drf::races_on_freed(report.racy_example->history,
                                              *report.example_races);
    EXPECT_FALSE(on_freed.empty())
        << "races landed outside any freed block:\n"
        << report.example_races->to_string(report.racy_example->history);
    // Registers never race in these programs (handshake and flag are
    // purely transactional): every race is on reclaimed memory.
    EXPECT_EQ(on_freed.size(), report.example_races->races.size());
  }
}

TEST(ReclamationExplorer, FencedScenariosAreDrf) {
  for (const LitmusSpec& spec : reclamation_litmus(true, kExploreSpin)) {
    SCOPED_TRACE(spec.name);
    const AtomicDrfReport report = check_drf_under_atomic(spec.program);
    EXPECT_TRUE(report.exhaustive);
    EXPECT_TRUE(report.drf)
        << "racy example:\n"
        << (report.racy_example ? report.racy_example->history.to_string()
                                : "")
        << (report.example_races
                ? report.example_races->to_string(
                      report.racy_example->history)
                : "");
  }
}

TEST(ReclamationExplorer, PostconditionsHoldUnderStrongAtomicity) {
  // Strong atomicity makes even the unfenced programs correct — the
  // Fundamental Property is about when that transfers to real TMs.
  for (const bool fence : {false, true}) {
    for (const LitmusSpec& spec : reclamation_litmus(fence, kExploreSpin)) {
      SCOPED_TRACE(spec.name);
      const ExplorationResult exploration = explore_atomic(spec.program);
      EXPECT_FALSE(exploration.truncated);
      ASSERT_FALSE(exploration.outcomes.empty());
      std::size_t membership_checked = 0;
      for (const Outcome& outcome : exploration.outcomes) {
        const LitmusState state{outcome.locals, outcome.probes,
                                outcome.registers};
        EXPECT_TRUE(spec.postcondition(state))
            << spec.name << " violated under strong atomicity:\n"
            << outcome.history.to_string();
        // Membership in Hatomic (sampled: the check is quadratic).
        if (membership_checked < 16) {
          ++membership_checked;
          EXPECT_TRUE(opacity::in_atomic_tm(outcome.history))
              << outcome.history.to_string();
        }
      }
    }
  }
}

TEST(ReclamationExplorer, AbaReallocAliasesTheFreedBlock) {
  // The canonical heap's LIFO arena reuse: whenever the owner reclaimed,
  // the re-allocated handle (probe 2) equals the freed one (probe 3).
  const LitmusSpec spec = make_reclaim_aba(false, kExploreSpin);
  const ExplorationResult exploration = explore_atomic(spec.program);
  std::size_t reclaimed = 0;
  for (const Outcome& outcome : exploration.outcomes) {
    if (outcome.probes[0][0] != 1) continue;
    ++reclaimed;
    EXPECT_NE(outcome.probes[0][2], 0u);
    EXPECT_EQ(outcome.probes[0][2], outcome.probes[0][3])
        << "re-alloc did not reuse the freed block:\n"
        << outcome.history.to_string();
  }
  EXPECT_GT(reclaimed, 0u);
}

TEST(ReclamationExplorer, AllocAndFreeActionsAppearInHistories) {
  const LitmusSpec spec = make_reclaim_uaf(true, kExploreSpin);
  const ExplorationResult exploration = explore_atomic(spec.program);
  std::size_t with_free = 0;
  for (const Outcome& outcome : exploration.outcomes) {
    // Every outcome allocated (the owner's first step).
    bool saw_alloc = false;
    for (const hist::Action& a : outcome.history.actions()) {
      if (a.kind == hist::ActionKind::kAllocReq) saw_alloc = true;
    }
    EXPECT_TRUE(saw_alloc);
    const auto freed = hist::freed_blocks(outcome.history);
    if (outcome.probes[0][0] == 1) {
      ++with_free;
      ASSERT_EQ(freed.size(), 1u);
      // The freed block is the handle the owner allocated (local h = 0).
      EXPECT_EQ(freed[0].base,
                static_cast<hist::RegId>(outcome.locals[0][0]));
      EXPECT_EQ(freed[0].size, 1u);
      EXPECT_TRUE(hist::in_freed_block(outcome.history, freed[0].base));
      EXPECT_FALSE(hist::in_freed_block(outcome.history, 0));
    } else {
      EXPECT_TRUE(freed.empty());
    }
    // Well-formedness of every explored history, including the new
    // alloc/free request/response protocol.
    EXPECT_TRUE(hist::check_wellformed(outcome.history).ok())
        << hist::check_wellformed(outcome.history).to_string();
  }
  EXPECT_GT(with_free, 0u);
}

// ---------------------------------------------------------------------------
// Real TMs: all four backends, all fence modes.
// ---------------------------------------------------------------------------

struct RunResult {
  bool reclaimed = false;
  bool wellformed = false;
  bool post_ok = false;
  drf::RaceReport races;
  std::vector<drf::Race> races_on_freed;
  hist::RecordedExecution recorded;
  std::vector<std::vector<Value>> probes;
};

RunResult run_once(const LitmusSpec& spec, TmKind kind, rt::FenceMode mode,
                   std::uint64_t seed, bool deterministic_alloc) {
  tm::TmConfig config;
  config.num_registers = spec.program.num_registers;
  config.fence_policy = tm::FencePolicy::kSelective;
  config.fence_mode = mode;
  if (deterministic_alloc) {
    config.alloc = {.magazine_size = 0, .limbo_batch = 1, .shards = 1};
  }
  auto tmi = tm::make_tm(kind, config);

  ExecOptions options;
  options.record = true;
  options.seed = seed;
  options.jitter_max_spins = 64;
  ExecResult result = execute(spec.program, *tmi, options);

  RunResult out;
  out.reclaimed = result.probes[0][0] == 1;
  out.recorded = result.recorded;
  out.probes = result.probes;
  out.wellformed = hist::check_wellformed(result.recorded.history).ok();
  const LitmusState state{result.locals, result.probes, result.registers};
  out.post_ok = spec.postcondition(state);
  out.races = drf::find_races(result.recorded.history);
  out.races_on_freed =
      drf::races_on_freed(result.recorded.history, out.races);
  return out;
}

class ReclamationLitmus : public ::testing::TestWithParam<TmKind> {};

TEST_P(ReclamationLitmus, UnfencedRunsAreFlaggedRacyOnTheFreedBlock) {
  for (const LitmusSpec& spec : reclamation_litmus(false, kRealSpin)) {
    SCOPED_TRACE(spec.name);
    // The ABA race needs the stale handle to actually alias the re-alloc,
    // which only the uncached allocator makes deterministic (magazines
    // hand out cached blocks while the freed one sits in limbo).
    const bool deterministic_alloc =
        spec.name.find("aba") != std::string::npos;
    constexpr std::size_t kRuns = 8;
    std::size_t reclaimed = 0;
    std::size_t racy = 0;
    for (std::size_t run = 0; run < kRuns; ++run) {
      const RunResult r = run_once(spec, GetParam(),
                                   rt::FenceMode::kEpochCounter, 101 + run,
                                   deterministic_alloc);
      EXPECT_TRUE(r.wellformed);
      if (r.reclaimed) ++reclaimed;
      if (!r.races.drf()) {
        ++racy;
        // Every race lands inside the freed block: the checker is
        // attributing the use-after-free, not tripping on the handshake.
        EXPECT_EQ(r.races_on_freed.size(), r.races.races.size())
            << r.races.to_string(r.recorded.history);
      }
    }
    // The handshake makes the scenario fire on essentially every run
    // (each one-shot transaction aborts only under stripe-collision bad
    // luck); requiring half keeps the test robust.
    EXPECT_GE(reclaimed, kRuns / 2) << "handshake kept timing out";
    EXPECT_GE(racy, 1u)
        << "no unfenced run was flagged racy — the DRF checker has gone "
           "blind to use-after-free";
  }
}

TEST_P(ReclamationLitmus, FencedRunsAreCleanAcrossFenceModes) {
  for (const rt::FenceMode mode :
       {rt::FenceMode::kEpochCounter, rt::FenceMode::kPaperBoolean}) {
    for (const LitmusSpec& spec : reclamation_litmus(true, kRealSpin)) {
      SCOPED_TRACE(spec.name + "/" + rt::fence_mode_name(mode));
      constexpr std::size_t kRuns = 4;
      std::size_t reclaimed = 0;
      for (std::size_t run = 0; run < kRuns; ++run) {
        const RunResult r = run_once(spec, GetParam(), mode, 707 + run,
                                     /*deterministic_alloc=*/false);
        EXPECT_TRUE(r.wellformed);
        EXPECT_TRUE(r.post_ok);
        EXPECT_TRUE(r.races.drf())
            << tm::tm_kind_name(GetParam())
            << ": fenced reclamation must be race-free\n"
            << r.races.to_string(r.recorded.history);
        if (r.reclaimed) {
          ++reclaimed;
          const auto verdict = opacity::check_strong_opacity(r.recorded);
          EXPECT_TRUE(verdict.ok()) << verdict.to_string();
        }
      }
      EXPECT_GE(reclaimed, kRuns / 2) << "handshake kept timing out";
    }
  }
}

TEST_P(ReclamationLitmus, AbaReuseAliasesUnderTheDeterministicAllocator) {
  // With the uncached, unsharded `{magazine_size = 0, limbo_batch = 1,
  // shards = 1}` allocator
  // the freed block is recycled by the very next alloc once its grace
  // period has elapsed, so the ABA handles alias on (almost) every run —
  // the exception is a run where the mutator's stale-handle transaction
  // was still live at free(), which is precisely the quarantine working.
  const LitmusSpec spec = make_reclaim_aba(false, kRealSpin);
  constexpr std::size_t kRuns = 6;
  std::size_t reclaimed = 0;
  std::size_t aliased = 0;
  for (std::size_t run = 0; run < kRuns; ++run) {
    const RunResult r = run_once(spec, GetParam(),
                                 rt::FenceMode::kEpochCounter, 404 + run,
                                 /*deterministic_alloc=*/true);
    if (!r.reclaimed) continue;
    ++reclaimed;
    if (r.probes[0][2] != 0 && r.probes[0][2] == r.probes[0][3]) ++aliased;
  }
  EXPECT_GE(reclaimed, kRuns / 2);
  EXPECT_GE(aliased * 2, reclaimed)
      << "free + re-alloc stopped reusing the block";
}

INSTANTIATE_TEST_SUITE_P(AllTms, ReclamationLitmus,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

}  // namespace
}  // namespace privstm
