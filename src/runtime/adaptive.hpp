// Adaptive contention governor — the feedback loop over PR 9's telemetry
// (ROADMAP item 2(a), DESIGN.md §14).
//
// PR 6 gave every retry loop a *static* TxRetryOptions{policy,
// escalate_after}; PR 9 gave the stack the signals an auto-tuner needs
// (abort attribution with reasons and faulting stripes, the per-stripe
// conflict heat map, the StatsDomain counters). This class closes the
// loop: an epoch-based controller that, every `epoch_commits` committed
// transactions under governed loops, reads the TM's commit/abort/
// escalation totals straight from the StatsDomain as deltas against its
// own baselines, folds in the per-epoch abort-reason mix and a hashed
// hot-stripe sketch (both fed by run_tx_retry via note_abort, so the
// decision inputs exist even with tracing off), and selects the next
// epoch's contention tier:
//
//   kSteady  — abort rate below `low_abort_permille`: retry immediately
//              (kImmediate); pauses would only tax the common case.
//   kBackoff — aborts climbing but diffuse (read-validation churn across
//              many stripes): bounded randomized backoff (kBackoff)
//              desynchronizes the rivals.
//   kStorm   — a few stripes dominate the attributed aborts (the hot-key
//              flash-crowd signature), or the rate is past
//              `high_abort_permille` outright: karma priority (kKarma) so
//              long-suffering sessions win the hot stripes, an *earlier*
//              serial-gate escalation, and a tightened backoff exponent
//              cap — long pauses in a storm only donate the hot stripes
//              to whoever just aborted us.
//
// Hysteresis: a candidate tier must win `hysteresis_epochs` consecutive
// epoch evaluations before it is adopted, so one unlucky epoch straddling
// a phase boundary cannot flap the policy (the no-flapping argument in
// DESIGN.md §14). Every evaluation counts Counter::kGovernorEpoch and
// emits a kGovernorEpoch trace instant; an adoption counts
// Counter::kGovernorPolicyShift and emits kGovernorPolicyShift.
//
// Concurrency: note_commit/note_abort are called from every governed
// session concurrently (relaxed atomics; the sketch tolerates lost
// updates). Epoch evaluation is serialized by a try-lock — the committing
// thread that crosses the threshold and wins the flag evaluates on its own
// slot (so its trace emissions keep the SPSC ring contract), everyone else
// proceeds without waiting. The packed decision is published with a single
// release store and read per retry attempt with one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "runtime/cacheline.hpp"
#include "runtime/contention.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace privstm::rt {

/// Controller knobs. The defaults suit the session-store service shapes
/// (bench_service); tests shrink epoch_commits to force many epochs.
struct GovernorConfig {
  /// Committed governed transactions per epoch evaluation.
  std::uint32_t epoch_commits = 256;
  /// Consecutive epochs a candidate tier must win before adoption.
  std::uint32_t hysteresis_epochs = 2;
  /// Abort rate (aborts / attempts, permille) below which kSteady holds.
  std::uint32_t low_abort_permille = 50;
  /// Abort rate at/above which the epoch is a storm regardless of stripe
  /// concentration — the fallback that catches storms whose aborts carry
  /// no stripe (NOrec has none; glock never conflict-aborts).
  std::uint32_t high_abort_permille = 500;
  /// Share (permille) of attributed aborts on the sketch's hottest
  /// kHotTopCells cells that reads as "a few stripes dominate".
  std::uint32_t hot_share_permille = 500;
  /// Concentration needs a sample: fewer attributed aborts than this and
  /// the sketch share is noise (one lonely abort is always "100% hot").
  std::uint32_t min_attributed_aborts = 8;
  /// Per-tier escalate_after (0 would mean never escalate — not offered).
  std::uint32_t steady_escalate_after = 96;
  std::uint32_t backoff_escalate_after = 64;
  std::uint32_t storm_escalate_after = 16;
  /// Backoff exponent cap in storm epochs (vs ContentionManager's
  /// kMaxExponent elsewhere): caps one pause at kUnitSpins << this.
  std::uint32_t storm_exponent_cap = 6;
};

/// What a governed run_tx_retry consults per attempt. Packed into one
/// atomic word inside the governor; this is the unpacked view.
struct GovernorDecision {
  CmPolicy policy = CmPolicy::kImmediate;
  std::uint32_t exponent_cap = ContentionManager::kMaxExponent;
  std::uint32_t escalate_after = 96;
};

/// One epoch's evaluation inputs and verdict — telemetry for tests and
/// operators (the bench embeds the last one per cell). Read it only after
/// governed traffic has quiesced; it is written under the epoch lock.
struct GovernorEpochSummary {
  std::uint64_t epoch = 0;    ///< 1-based ordinal
  std::uint64_t commits = 0;  ///< committed txns this epoch (TM-wide delta)
  std::uint64_t aborts = 0;
  std::uint64_t escalations = 0;
  std::uint64_t attributed = 0;  ///< aborts carrying a real stripe
  std::uint32_t abort_permille = 0;
  std::uint32_t hot_share_permille = 0;
  AbortReason dominant_reason = AbortReason::kNone;
  CmPolicy candidate = CmPolicy::kImmediate;  ///< this epoch's raw verdict
  CmPolicy adopted = CmPolicy::kImmediate;    ///< live policy after hysteresis
  bool shifted = false;  ///< this epoch adopted a new tier
};

class AdaptiveGovernor {
 public:
  /// Hot-stripe sketch geometry: stripes hash into kSketchCells counters;
  /// the top kHotTopCells cells' share is the concentration signal.
  static constexpr std::size_t kSketchCells = 64;
  static constexpr std::size_t kHotTopCells = 4;

  /// `stats` is the governed TM's counter domain — both the input (commit/
  /// abort/escalation deltas, counted from construction) and the output
  /// (kGovernorEpoch / kGovernorPolicyShift land there). `trace`, when the
  /// TM traces, carries the governor's epoch/shift instants.
  explicit AdaptiveGovernor(StatsDomain& stats, GovernorConfig config = {},
                            TraceDomain* trace = nullptr);

  AdaptiveGovernor(const AdaptiveGovernor&) = delete;
  AdaptiveGovernor& operator=(const AdaptiveGovernor&) = delete;

  /// The live decision; one relaxed load + unpack (per retry attempt).
  GovernorDecision decision() const noexcept {
    return unpack(decision_.load(std::memory_order_relaxed));
  }

  /// Tick the epoch clock (call once per governed commit, from the
  /// committing thread, with its registry slot). Crossing epoch_commits
  /// triggers an evaluation on this thread if no rival is mid-epoch.
  void note_commit(std::size_t slot) noexcept {
    const std::uint32_t n =
        commits_since_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n < config_.epoch_commits) return;
    if (epoch_lock_.exchange(true, std::memory_order_acquire)) return;
    commits_since_.store(0, std::memory_order_relaxed);
    evaluate(slot);
    epoch_lock_.store(false, std::memory_order_release);
  }

  /// Feed one failed attempt's attribution (TmThread::last_abort()) into
  /// the epoch's reason mix and hot-stripe sketch.
  void note_abort(AbortReason reason, std::uint32_t stripe) noexcept {
    const auto r = static_cast<std::size_t>(reason);
    if (r < kReasonCount) {
      reasons_[r].fetch_add(1, std::memory_order_relaxed);
    }
    if (stripe != kNoStripe) {
      sketch_[sketch_cell(stripe)].fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::uint64_t epochs() const noexcept {
    return epochs_.load(std::memory_order_relaxed);
  }
  std::uint64_t shifts() const noexcept {
    return shifts_.load(std::memory_order_relaxed);
  }
  /// Last epoch's full evaluation record (quiesce governed traffic first).
  GovernorEpochSummary last_epoch() const noexcept { return last_; }
  const GovernorConfig& config() const noexcept { return config_; }

 private:
  enum class Tier : std::uint8_t { kSteady = 0, kBackoff, kStorm };
  static constexpr std::size_t kReasonCount =
      static_cast<std::size_t>(AbortReason::kCount);

  static std::size_t sketch_cell(std::uint32_t stripe) noexcept {
    // Fibonacci mix, top bits — same recipe as the stripe/shard hashes.
    return static_cast<std::size_t>((stripe * 0x9E3779B9u) >> 26);
  }

  static std::uint64_t pack(const GovernorDecision& d) noexcept {
    return (static_cast<std::uint64_t>(d.escalate_after) << 16) |
           (static_cast<std::uint64_t>(d.exponent_cap & 0xFFu) << 8) |
           static_cast<std::uint64_t>(d.policy);
  }
  static GovernorDecision unpack(std::uint64_t w) noexcept {
    GovernorDecision d;
    d.policy = static_cast<CmPolicy>(w & 0xFFu);
    d.exponent_cap = static_cast<std::uint32_t>((w >> 8) & 0xFFu);
    d.escalate_after = static_cast<std::uint32_t>(w >> 16);
    return d;
  }

  GovernorDecision decision_for(Tier tier) const noexcept;

  /// Counter `c`'s total minus `base`, then latch `base` to that total.
  std::uint64_t take_delta(Counter c, std::uint64_t& base) noexcept;

  /// Epoch evaluation: read the counter deltas, drain the reason/sketch
  /// accumulators, classify, apply hysteresis, publish. Runs under
  /// epoch_lock_ on the winning committer's thread.
  void evaluate(std::size_t slot) noexcept;

  GovernorConfig config_;
  StatsDomain* stats_;
  TraceDomain* trace_;
  // Counter totals at the last evaluation (or construction): the epoch
  // delta baselines. Epoch-lock holder only.
  std::uint64_t base_commits_;
  std::uint64_t base_aborts_;
  std::uint64_t base_escalations_;

  alignas(kCacheLine) std::atomic<std::uint64_t> decision_;
  alignas(kCacheLine) std::atomic<std::uint32_t> commits_since_{0};
  std::atomic<bool> epoch_lock_{false};
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> shifts_{0};
  std::array<std::atomic<std::uint64_t>, kReasonCount> reasons_{};
  std::array<std::atomic<std::uint64_t>, kSketchCells> sketch_{};

  // Hysteresis state and the last summary: epoch-lock holder only.
  Tier current_tier_ = Tier::kSteady;
  Tier pending_tier_ = Tier::kSteady;
  std::uint32_t pending_count_ = 0;
  GovernorEpochSummary last_{};
};

}  // namespace privstm::rt
