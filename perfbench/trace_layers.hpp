// Per-layer timing for the traced run. The benchmark times each call it
// makes into the program (store ops, checker stages) as its own spans,
// turns on the TM's existing trace rings (TmConfig::trace) for the layers
// below, and drains both while the run goes on, folding spans into
// histograms as they arrive: a full-load run emits millions of
// transaction spans, far more than fit in memory. The first spans of each
// source are kept for the Perfetto dump written when the run ends.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "runtime/trace.hpp"

namespace perfbench {

class TraceLayers {
 public:
  /// Own-span ring per worker; a full ring drops and counts, like the
  /// TM's rings.
  static constexpr std::size_t kOwnRing = std::size_t{1} << 16;
  /// Events of each source kept for the Perfetto dump.
  static constexpr std::size_t kDumpEvents = 50000;

  TraceLayers(privstm::rt::TraceDomain& trace, std::size_t workers);

  TraceLayers(const TraceLayers&) = delete;
  TraceLayers& operator=(const TraceLayers&) = delete;

  /// Worker `w` runs on TM registry slot `slot` (its trace tid). Call
  /// before the worker's first push_op.
  void bind_worker(std::size_t w, std::size_t slot);

  /// Worker side, single producer per `w`: one completed op.
  void push_op(std::size_t w, Span span, std::uint8_t op_class) noexcept;

  /// Consumer side (the one draining thread): a named span it timed
  /// itself, such as a checker stage.
  void add_stage(const char* name, Span span);

  /// Consumer side: drain own spans, then the TM rings, and fold both.
  /// Own spans go first, so every transaction of a drained op is already
  /// in the TM rings when it is matched to the op.
  void poll();

  /// Consumer side: drain both sources without folding (the warm-up).
  void discard();

  /// The TM is about to reset(), which zeroes its ring drop counters:
  /// carry them over.
  void before_tm_reset() noexcept { carried_drops_ += trace_.dropped(); }

  /// Spans lost to full rings (TM rings + own rings). Nonzero means the
  /// shares below were computed from a sample.
  std::uint64_t dropped() const noexcept;

  bool write_perfetto(const std::string& path) const;

  // Folded results (ns).
  Histogram tx;               ///< tx begin -> commit/abort, every session
  Histogram fence;            ///< synchronous fences
  Histogram grace_scan;       ///< elected grace-period scans
  Histogram sweep_bucket;     ///< per bucket, freeze begin -> republish end
  Histogram sweep_freeze, sweep_fence, sweep_reclaim, sweep_republish;
  std::uint64_t op_ns = 0;           ///< total time inside store ops
  std::uint64_t op_outside_tx_ns = 0;  ///< op self time outside any tx
  std::uint64_t backoff_ns = 0;      ///< contention-manager waits

 private:
  struct OpRec {
    Span span;
    std::uint8_t op_class = 0;
  };
  struct OwnRing {
    alignas(64) std::atomic<std::uint64_t> head{0};
    alignas(64) std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> drops{0};
    std::vector<OpRec> buf;
  };
  /// Open span starts per trace slot; 0 = no span open (or its begin
  /// event was discarded), so a lone end event is ignored.
  struct SlotState {
    std::uint64_t tx_begin = 0;
    std::uint64_t fence_begin = 0;
    std::uint64_t backoff_begin = 0;
    std::uint64_t grace_begin = 0;
    std::uint64_t phase_begin = 0;
  };
  struct Stage {
    const char* name;
    Span span;
  };

  void fold(const privstm::rt::TraceEvent& e);

  privstm::rt::TraceDomain& trace_;
  std::unique_ptr<OwnRing[]> own_;
  std::size_t workers_;
  std::vector<int> worker_of_slot_;
  std::vector<std::size_t> slot_of_worker_;
  std::vector<std::deque<Span>> pending_tx_;  ///< per worker, unmatched
  std::vector<SlotState> slots_;
  std::vector<std::uint64_t> freeze_begin_;   ///< per bucket
  std::vector<privstm::rt::TraceEvent> dump_tm_;
  std::vector<std::pair<std::size_t, OpRec>> dump_ops_;  ///< (slot, op)
  std::vector<Stage> stages_;
  std::uint64_t carried_drops_ = 0;
};

}  // namespace perfbench
