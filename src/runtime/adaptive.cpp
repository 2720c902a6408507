#include "runtime/adaptive.hpp"

#include <algorithm>
#include <functional>

namespace privstm::rt {

AdaptiveGovernor::AdaptiveGovernor(StatsDomain& stats, GovernorConfig config,
                                   TraceDomain* trace)
    : config_(config),
      stats_(&stats),
      trace_(trace),
      // Epoch deltas start from construction, not process start.
      base_commits_(stats.total(Counter::kTxCommit)),
      base_aborts_(stats.total(Counter::kTxAbort)),
      base_escalations_(stats.total(Counter::kTxEscalated)) {
  decision_.store(pack(decision_for(Tier::kSteady)),
                  std::memory_order_relaxed);
}

GovernorDecision AdaptiveGovernor::decision_for(Tier tier) const noexcept {
  GovernorDecision d;
  switch (tier) {
    case Tier::kSteady:
      d.policy = CmPolicy::kImmediate;
      d.exponent_cap = ContentionManager::kMaxExponent;
      d.escalate_after = config_.steady_escalate_after;
      break;
    case Tier::kBackoff:
      d.policy = CmPolicy::kBackoff;
      d.exponent_cap = ContentionManager::kMaxExponent;
      d.escalate_after = config_.backoff_escalate_after;
      break;
    case Tier::kStorm:
      d.policy = CmPolicy::kKarma;
      d.exponent_cap = config_.storm_exponent_cap;
      d.escalate_after = config_.storm_escalate_after;
      break;
  }
  return d;
}

std::uint64_t AdaptiveGovernor::take_delta(Counter c,
                                           std::uint64_t& base) noexcept {
  const std::uint64_t now = stats_->total(c);
  // A StatsDomain::reset() can move a total below its baseline.
  const std::uint64_t delta = now >= base ? now - base : 0;
  base = now;
  return delta;
}

void AdaptiveGovernor::evaluate(std::size_t slot) noexcept {
  // TM-wide deltas since the last evaluation (or construction).
  GovernorEpochSummary s;
  s.commits = take_delta(Counter::kTxCommit, base_commits_);
  s.aborts = take_delta(Counter::kTxAbort, base_aborts_);
  s.escalations = take_delta(Counter::kTxEscalated, base_escalations_);
  const std::uint64_t attempts = s.commits + s.aborts;
  s.abort_permille = attempts != 0 ? static_cast<std::uint32_t>(
                                         (1000 * s.aborts) / attempts)
                                   : 0;

  // Drain the epoch accumulators (concurrent note_abort updates between
  // the exchanges slide into the next epoch — relaxed is fine here).
  std::uint64_t reason_max = 0;
  for (std::size_t r = 0; r < kReasonCount; ++r) {
    const std::uint64_t n = reasons_[r].exchange(0, std::memory_order_relaxed);
    if (n > reason_max) {
      reason_max = n;
      s.dominant_reason = static_cast<AbortReason>(r);
    }
  }
  std::array<std::uint64_t, kSketchCells> cells;
  for (std::size_t i = 0; i < kSketchCells; ++i) {
    cells[i] = sketch_[i].exchange(0, std::memory_order_relaxed);
    s.attributed += cells[i];
  }
  std::partial_sort(cells.begin(), cells.begin() + kHotTopCells, cells.end(),
                    std::greater<std::uint64_t>());
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < kHotTopCells; ++i) top += cells[i];
  s.hot_share_permille =
      s.attributed != 0
          ? static_cast<std::uint32_t>((1000 * top) / s.attributed)
          : 0;

  // The decision table (DESIGN.md §14): storm on outright-high abort rate
  // OR mid-rate-but-concentrated; backoff on a diffuse mid rate; steady
  // otherwise.
  const bool concentrated =
      s.attributed >= config_.min_attributed_aborts &&
      s.hot_share_permille >= config_.hot_share_permille;
  Tier tier = Tier::kSteady;
  if (s.abort_permille >= config_.high_abort_permille ||
      (s.abort_permille >= config_.low_abort_permille && concentrated)) {
    tier = Tier::kStorm;
  } else if (s.abort_permille >= config_.low_abort_permille) {
    tier = Tier::kBackoff;
  }
  s.candidate = decision_for(tier).policy;

  // Hysteresis: the candidate must win hysteresis_epochs consecutive
  // evaluations before it displaces the live tier.
  if (tier == current_tier_) {
    pending_count_ = 0;
  } else {
    if (tier == pending_tier_) {
      ++pending_count_;
    } else {
      pending_tier_ = tier;
      pending_count_ = 1;
    }
    if (pending_count_ >= config_.hysteresis_epochs) {
      current_tier_ = tier;
      pending_count_ = 0;
      s.shifted = true;
    }
  }

  const GovernorDecision live = decision_for(current_tier_);
  decision_.store(pack(live), std::memory_order_release);
  s.adopted = live.policy;
  s.epoch = epochs_.fetch_add(1, std::memory_order_relaxed) + 1;

  stats_->add(slot, Counter::kGovernorEpoch);
  if (trace_ != nullptr) {
    trace_->emit(slot, TraceEventKind::kGovernorEpoch,
                 static_cast<std::uint8_t>(s.candidate), s.abort_permille,
                 s.epoch);
  }
  if (s.shifted) {
    shifts_.fetch_add(1, std::memory_order_relaxed);
    stats_->add(slot, Counter::kGovernorPolicyShift);
    if (trace_ != nullptr) {
      trace_->emit(slot, TraceEventKind::kGovernorPolicyShift,
                   static_cast<std::uint8_t>(live.policy),
                   live.escalate_after, s.epoch);
    }
  }
  last_ = s;
}

}  // namespace privstm::rt
