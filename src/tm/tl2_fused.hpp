// Tl2Fused — TL2 with transactional fences on the standard fast path.
//
// Protocol-identical to the Fig 9 backend (`Tl2`): the same rver/wver
// discipline, commit-time read-set validation, activity words and fences,
// the same striped version/lock table over the dynamic heap, and the same
// uninstrumented non-transactional accesses. What changes is only the
// fast-path representation of the transaction-local bookkeeping
// (DESIGN.md §7):
//
//  * a read validates with two acquire loads of the location's stripe word
//    sandwiching the value load (word/value/word) — one fused word instead
//    of the faithful backend's separate checks, and commit write-back
//    publishes version-and-unlock in one release store per stripe;
//  * read/write-set membership is epoch-tagged *per stripe* (the orec-set
//    design of production TL2s): a fixed stripe_count-sized uint32_t
//    transaction-ordinal tag array replaces the per-location membership
//    byte arrays, so per-transaction clearing is a single counter bump,
//    the arrays never grow however large the heap gets, and a 64-bit
//    bloom filter screens the read-after-write lookup. Tracking reads per
//    stripe is sound because commit-time validation is per stripe too —
//    the stripe word over-approximates every member location's version;
//  * write-set entries are deduplicated in place at tx_write time (last
//    value wins); a stripe-colliding second location simply appends (the
//    write-back applies in insertion order, so the last value per
//    location still wins), removing the faithful backend's O(|wset|²)
//    commit-time collapse pass;
//  * commit stamps are GV4-batched (one CAS, adopt the concurrent
//    committer's stamp on failure, counted as
//    rt::Counter::kClockStampShared) and read-only commits skip the clock
//    entirely;
//  * TxnStamp collection goes to per-thread buffers merged on
//    timestamp_log(), not a globally locked vector.
//
// Because the protocol is unchanged, the fence-based privatization-safety
// argument of §7 carries over verbatim; the backend-parameterized semantics,
// opacity, litmus and INV.5 suites re-prove it on this implementation.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/global_clock.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/stripe_table.hpp"
#include "runtime/versioned_lock.hpp"
#include "tm/tm.hpp"
#include "tm/txn_stamp.hpp"

namespace privstm::tm {

class Tl2Fused;

class Tl2FusedThread final : public TmThread {
 public:
  Tl2FusedThread(Tl2Fused& tm, ThreadId thread, hist::Recorder* recorder);
  ~Tl2FusedThread() override;

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

  static std::uint64_t bloom_bit(std::size_t s) noexcept {
    return std::uint64_t{1} << ((s * 0x9E3779B97F4A7C15ull) >> 58);
  }

  Tl2Fused& tm_;
  rt::OwnerToken token_;
  // Hot-path caches: config is immutable after TM construction and neither
  // the heap arena nor the stripe table ever moves, so the per-access
  // loops use const-member base pointers the compiler can keep in
  // registers (interleaved atomic stores would otherwise force reloads of
  // the indirections through tm_).
  std::atomic<Value>* const cells_;             ///< heap arena base
  rt::CacheAligned<rt::VersionedLock>* const stripe_base_;
  /// Cached StripeTable geometry (region-partitioned since PR 7): stripe
  /// of r is geometry_.index(r).
  const rt::StripeTable::Geometry geometry_;
  std::atomic<std::uint64_t>* const activity_;  ///< our registry slot's word
  const std::size_t stat_slot_;
  const bool unsafe_skip_validation_;
  const bool collect_timestamps_;
  const std::uint32_t commit_pause_spins_;

  // Transaction-local state.
  std::uint64_t rver_ = 0;
  std::uint64_t wver_ = 0;
  bool wver_minted_ = false;
  std::uint64_t txn_ordinal_ = 0;   ///< count of finished transactions
  std::uint64_t reset_epoch_seen_ = 0;
  std::uint32_t txn_tag_ = 0;       ///< epoch tag; bumping it clears both sets
  std::uint64_t wfilter_ = 0;       ///< bloom filter over write-set stripes
  /// Write-set membership slot: epoch tag plus the wset_ index it points
  /// at while the tag is current — one 8-byte load covers both.
  struct WriteSlot {
    std::uint32_t tag = 0;
    std::uint32_t idx = 0;
  };
  /// Write-set entry; insertion order, last value per location wins. The
  /// stripe index is captured at tx_write time so commit's lock pass
  /// never re-hashes the location.
  struct WriteEntry {
    RegId reg;
    std::uint32_t stripe;
    Value value;
  };
  /// Stripe locked by the in-flight commit plus its pre-lock word.
  struct LockedStripe {
    std::size_t stripe;
    rt::VersionedLock::Word prev;
  };
  std::vector<std::uint32_t> rset_;      ///< read-set *stripe* indices
  std::vector<WriteEntry> wset_;
  std::vector<LockedStripe> locked_;
  std::vector<std::uint32_t> rset_tag_;  ///< per-stripe epoch tags
  std::vector<WriteSlot> wslot_;         ///< per-stripe wset slots
  std::vector<TxnStamp> stamps_;         ///< per-thread stamp buffer
};

class Tl2Fused final : public TransactionalMemory {
 public:
  explicit Tl2Fused(TmConfig config);

  std::unique_ptr<TmThread> make_thread(ThreadId thread,
                                        hist::Recorder* recorder) override;
  const char* name() const noexcept override { return "tl2fused"; }
  void reset() override;

  /// The stripe `reg` validates and locks against (same mapping the
  /// sessions' cached Geometry uses) — the index abort attribution
  /// (TmThread::last_abort) and the conflict heat map report.
  std::uint32_t stripe_of(RegId reg) const noexcept override {
    return static_cast<std::uint32_t>(
        stripes_.index_of(static_cast<std::uint64_t>(reg)));
  }

  /// Merged view of the per-thread stamp buffers plus stamps of already
  /// destroyed sessions. Requires all sessions quiescent (tests call it
  /// after joining their workers).
  std::vector<TxnStamp> timestamp_log() const;

 private:
  friend class Tl2FusedThread;

  void attach_stamp_buffer(std::vector<TxnStamp>* buf);
  void detach_stamp_buffer(std::vector<TxnStamp>* buf);

  rt::GlobalClock clock_;
  rt::StripeTable stripes_;
  std::atomic<std::uint64_t> reset_epoch_{0};
  mutable rt::SpinLock stamp_lock_;  ///< buffer registry only, never per-txn
  std::vector<std::vector<TxnStamp>*> stamp_buffers_;
  std::vector<TxnStamp> retired_stamps_;
};

}  // namespace privstm::tm
