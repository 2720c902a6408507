// TL2 [12] with transactional fences — the case-study TM of §7 (Fig 9),
// on the striped metadata table of the dynamic heap.
//
// The seed implementation carried one (value, version, lock) triple per
// register in a dense array sized at construction. With the transactional
// heap (tm/heap.hpp) the location space is unbounded, so metadata moves to
// a hashed striped version/lock table (runtime/stripe_table.hpp): per
// *stripe* a fused `rt::VersionedLock` word, per location only the value
// cell in the heap. Locations hashing to the same stripe conflict
// spuriously — an over-approximation, hence still safe (DESIGN.md §9).
//
//   txbegin:  active[t] := true; rver := clock                  (lines 9–12)
//   read:     write-set hit, else stripe-word / value /         (lines 14–24)
//             stripe-word sandwich checked against rver
//   write:    buffer into the write set                         (lines 26–28)
//   txcommit: lock write-set stripes → wver := ++clock →        (lines 30–55)
//             validate read set → write back → release stripes
//             with wver
//   fence:    via the shared quiescence subsystem (TmThread base; the
//             default mode is the Fig 7-shaped two-pass scan)   (lines 30–36)
//   txabort:  explicit user abort — drop the write set, record
//             txabort/aborted (the Fig 4 interface)
//
// Divergences from Fig 9 (documented, tested): commit-time validation
// treats a stripe locked by the *committing transaction itself* as free,
// as in the original TL2 paper; and version+lock share one word per stripe
// instead of separate `ver[x]`/`lock[x]` fields per register — the figure's
// per-register metadata does not survive a dynamic location space. This
// backend keeps the faithful per-access shape (simple vectors plus
// per-location membership bytes, a commit-time write-set collapse — one
// linear pass since PR 7, not the seed's O(|wset|²) rescan — and a
// commit stamp minted with GV4 batched sharing); tm/tl2_fused.hpp is the
// sibling with the optimized fast path (DESIGN.md §6–7, the clock §11).
//
// Non-transactional accesses are uninstrumented single atomic operations:
// they touch neither versions nor locks. This is exactly what makes the
// delayed-commit and doomed-transaction problems of Fig 1 reproducible when
// fences are disabled.
#pragma once

#include <memory>
#include <vector>

#include "runtime/global_clock.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/stripe_table.hpp"
#include "runtime/versioned_lock.hpp"
#include "tm/tm.hpp"
#include "tm/txn_stamp.hpp"

namespace privstm::tm {

class Tl2;

class Tl2Thread final : public TmThread {
 public:
  Tl2Thread(Tl2& tm, ThreadId thread, hist::Recorder* recorder);
  ~Tl2Thread() override;

  bool tx_begin() override;
  bool tx_read(RegId reg, Value& out) override;
  bool tx_write(RegId reg, Value value) override;
  TxResult tx_commit() override;
  void tx_abort() override;
  // fence()/fence_async()/... come from the TmThread base: all fencing is
  // routed through the shared quiescence subsystem (DESIGN.md §5).

 private:
  void abort_in_flight();   ///< record aborted + clear active flag
  void release_stripes();   ///< restore every locked stripe's pre-lock word

  /// Per-location membership bytes, grown on demand (the location space
  /// is unbounded).
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
  std::uint8_t& rmark(RegId reg) {
    const auto r = static_cast<std::size_t>(reg);
    if (r >= in_rset_.size()) in_rset_.resize(r + 1, 0);
    return in_rset_[r];
  }
  /// Commit-collapse scratch: the writeback_ slot a location's entry
  /// occupies (valid only while the location's wmark is 2); grown like
  /// the membership bytes.
  std::uint32_t& wslot(RegId reg) {
    const auto r = static_cast<std::size_t>(reg);
    if (r >= wslot_.size()) wslot_.resize(r + 1, 0);
    return wslot_[r];
  }

  Tl2& tm_;
  TxHeap& heap_;
  rt::OwnerToken token_;

  // Transaction-local state (Fig 9 lines 4–7).
  std::uint64_t rver_ = 0;
  std::uint64_t wver_ = 0;
  bool wver_minted_ = false;
  std::uint64_t txn_ordinal_ = 0;  ///< count of finished transactions
  std::uint64_t reset_epoch_seen_ = 0;
  /// Read set: (location, its stripe index) — the stripe is captured at
  /// tx_read time so commit-time validation never re-hashes.
  std::vector<std::pair<RegId, std::uint32_t>> rset_;
  std::vector<std::pair<RegId, Value>> wset_;  ///< insertion order; last wins
  std::vector<std::uint8_t> in_wset_;          ///< per-location membership
  std::vector<std::uint8_t> in_rset_;
  std::vector<std::uint32_t> wslot_;           ///< collapse scratch (slot/reg)
  /// Commit scratch for the collapsed write set — a member so a writing
  /// commit never pays a heap allocation for it.
  std::vector<std::pair<RegId, Value>> writeback_;
  /// Stripes locked by the in-flight commit, with their pre-lock words
  /// (restored on abort; the self-lock validation reads the old version).
  struct LockedStripe {
    std::size_t stripe;
    rt::VersionedLock::Word prev;
  };
  std::vector<LockedStripe> locked_;
};

class Tl2 final : public TransactionalMemory {
 public:
  explicit Tl2(TmConfig config);

  std::unique_ptr<TmThread> make_thread(ThreadId thread,
                                        hist::Recorder* recorder) override;
  const char* name() const noexcept override { return "tl2"; }
  void reset() override;

  /// The stripe `reg` validates and locks against — the index abort
  /// attribution (TmThread::last_abort) and the conflict heat map report.
  std::uint32_t stripe_of(RegId reg) const noexcept override {
    return static_cast<std::uint32_t>(
        stripes_.index_of(static_cast<std::uint64_t>(reg)));
  }

  /// One entry per finished transaction when config.collect_timestamps —
  /// see tm/txn_stamp.hpp (the struct is shared with Tl2Fused).
  using TxnStamp = tm::TxnStamp;
  std::vector<TxnStamp> timestamp_log() const;

 private:
  friend class Tl2Thread;

  void log_stamp(const TxnStamp& stamp);

  rt::GlobalClock clock_;
  rt::StripeTable stripes_;
  /// Bumped by reset(); sessions re-sync their txn ordinals at tx_begin so
  /// stamp ordinals restart from 0 after a reset.
  std::atomic<std::uint64_t> reset_epoch_{0};
  mutable rt::SpinLock stamp_lock_;
  std::vector<TxnStamp> stamps_;
};

}  // namespace privstm::tm
