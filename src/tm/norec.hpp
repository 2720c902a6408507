// NOrec [10] — the fence-free privatization-safe baseline (§8 related work).
//
// A single global sequence lock serializes writer commits; transactions
// validate their read sets *by value* whenever the global sequence moves.
// Why this privatizes safely without fences:
//
//  * Delayed commit (Fig 1a): write-backs happen entirely inside the
//    sequence-lock critical section, so a privatizing transaction commits
//    strictly before or strictly after any other writer — no half-flushed
//    transaction can overwrite a post-privatization NT store.
//  * Doomed transactions (Fig 1b): once the privatizing transaction bumps
//    the sequence number, every later transactional read re-validates the
//    whole read set by value and the doomed transaction aborts before it
//    can observe NT stores to privatized data.
//
// The price is serialized commits and O(|rset|) revalidation — the
// TL2-vs-NOrec trade-off measured by experiment E8.
//
// Values live in the shared transactional heap (tm/heap.hpp): NOrec's
// value-based validation needs no per-location metadata at all, so the
// dynamic location space costs it nothing — only the per-thread write-set
// membership bytes grow (on demand) with the highest location touched.
#pragma once

#include <memory>
#include <vector>

#include "runtime/seqlock.hpp"
#include "tm/tm.hpp"

namespace privstm::tm {

class NOrec;

class NOrecThread final : public TmThread {
 public:
  NOrecThread(NOrec& tm, ThreadId thread, hist::Recorder* recorder);
  ~NOrecThread() override;

  bool tx_begin() override;
  bool tx_read(RegId reg, Value& out) override;
  bool tx_write(RegId reg, Value value) override;
  TxResult tx_commit() override;
  void tx_abort() override;
  // fence()/fence_async()/... come from the TmThread base (the shared
  // quiescence subsystem); NOrec does not need them for privatization
  // safety, but honours explicit fence calls like every backend.

 private:
  /// Re-read the read set and compare values; on success updates snapshot_
  /// and returns true, else the transaction must abort.
  bool revalidate();
  void abort_in_flight();

  /// Write-set membership byte of `reg`, growing the array on demand
  /// (the heap's location space is unbounded).
  std::uint8_t& wmark(RegId reg) {
    const auto r = static_cast<std::size_t>(reg);
    if (r >= in_wset_.size()) in_wset_.resize(r + 1, 0);
    return in_wset_[r];
  }
  /// Read-only membership probe: out-of-range means "not in the set",
  /// with no grow — keeps the read fast path allocation-free.
  bool in_wset(RegId reg) const noexcept {
    const auto r = static_cast<std::size_t>(reg);
    return r < in_wset_.size() && in_wset_[r] != 0;
  }
  /// Commit-collapse scratch: the writeback_ slot a location's entry
  /// occupies (valid only while its wmark is 2); grown like wmark.
  std::uint32_t& wslot(RegId reg) {
    const auto r = static_cast<std::size_t>(reg);
    if (r >= wslot_.size()) wslot_.resize(r + 1, 0);
    return wslot_[r];
  }

  NOrec& tm_;
  std::atomic<Value>* const cells_;  ///< heap arena base (never moves)

  rt::SeqLock::Stamp snapshot_ = 0;
  std::vector<std::pair<RegId, Value>> rset_;  ///< value-based validation
  std::vector<std::pair<RegId, Value>> wset_;
  std::vector<std::uint8_t> in_wset_;
  std::vector<std::uint32_t> wslot_;  ///< collapse scratch (slot per reg)
  /// Collapsed write set — (location, final value) in first-write program
  /// order; a member so commits never heap-allocate for it. Built OUTSIDE
  /// the seqlock critical section, shrinking the serialized window to the
  /// stores themselves.
  std::vector<std::pair<RegId, Value>> writeback_;
};

class NOrec final : public TransactionalMemory {
 public:
  explicit NOrec(TmConfig config);

  std::unique_ptr<TmThread> make_thread(ThreadId thread,
                                        hist::Recorder* recorder) override;
  const char* name() const noexcept override { return "norec"; }
  void reset() override;

 private:
  friend class NOrecThread;

  rt::SeqLock seqlock_;
};

}  // namespace privstm::tm
