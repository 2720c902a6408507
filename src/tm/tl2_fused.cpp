#include "tm/tl2_fused.hpp"

#include <algorithm>
#include <cassert>

#include "runtime/backoff.hpp"

namespace privstm::tm {

using hist::ActionKind;
using rt::Counter;
using rt::VersionedLock;

Tl2Fused::Tl2Fused(TmConfig config)
    : TransactionalMemory(config),
      stripes_(config.lock_stripes, config.alloc.effective_shards()) {}

std::unique_ptr<TmThread> Tl2Fused::make_thread(ThreadId thread,
                                                hist::Recorder* recorder) {
  return std::make_unique<Tl2FusedThread>(*this, thread, recorder);
}

void Tl2Fused::reset() {
  {
    std::lock_guard<rt::SpinLock> guard(stamp_lock_);
    retired_stamps_.clear();
    for (auto* buf : stamp_buffers_) buf->clear();
  }
  clock_.reset();
  reset_base();  // stats + heap (cells, extents, limbo, per-thread magazines)
  reset_epoch_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t s = 0; s < stripes_.stripe_count(); ++s) {
    assert(!VersionedLock::is_locked(stripes_.stripe(s).load()) &&
           "reset with a stripe lock held");
  }
  stripes_.reset();
}

void Tl2Fused::attach_stamp_buffer(std::vector<TxnStamp>* buf) {
  std::lock_guard<rt::SpinLock> guard(stamp_lock_);
  stamp_buffers_.push_back(buf);
}

void Tl2Fused::detach_stamp_buffer(std::vector<TxnStamp>* buf) {
  std::lock_guard<rt::SpinLock> guard(stamp_lock_);
  retired_stamps_.insert(retired_stamps_.end(), buf->begin(), buf->end());
  std::erase(stamp_buffers_, buf);
}

std::vector<TxnStamp> Tl2Fused::timestamp_log() const {
  std::lock_guard<rt::SpinLock> guard(stamp_lock_);
  std::vector<TxnStamp> out = retired_stamps_;
  for (const auto* buf : stamp_buffers_) {
    out.insert(out.end(), buf->begin(), buf->end());
  }
  return out;
}

Tl2FusedThread::Tl2FusedThread(Tl2Fused& tm, ThreadId thread,
                               hist::Recorder* recorder)
    : TmThread(tm, thread, recorder),
      tm_(tm),
      token_(static_cast<rt::OwnerToken>(slot_.slot()) + 1),
      cells_(tm.heap().cells()),
      stripe_base_(tm.stripes_.data()),
      geometry_(tm.stripes_.geometry()),
      activity_(&registry_.activity_word(slot_.slot())),
      stat_slot_(static_cast<std::size_t>(slot_.slot())),
      unsafe_skip_validation_(tm.config().unsafe_skip_validation),
      collect_timestamps_(tm.config().collect_timestamps),
      commit_pause_spins_(tm.config().commit_pause_spins),
      reset_epoch_seen_(tm.reset_epoch_.load(std::memory_order_relaxed)),
      rset_tag_(tm.stripes_.stripe_count(), 0),
      wslot_(tm.stripes_.stripe_count()) {
  rset_.reserve(64);
  wset_.reserve(64);
  locked_.reserve(64);
  tm_.attach_stamp_buffer(&stamps_);
}

Tl2FusedThread::~Tl2FusedThread() { tm_.detach_stamp_buffer(&stamps_); }

bool Tl2FusedThread::tx_begin() {
  // Block while an escalated (irrevocable) transaction holds the serial
  // gate — before the activity bump, so a gated thread is quiescent and
  // the escalator's drain never waits on it (runtime/serial_gate.hpp).
  serial_gate_wait();
  // Set active[t] *before* logging txbegin, exactly as the faithful backend:
  // a fence whose fbegin is recorded after our txbegin must observe us
  // active and wait (condition 10 of Definition A.1).
  [[maybe_unused]] const std::uint64_t act_prev =
      activity_->fetch_add(1, std::memory_order_acq_rel);  // active := true
  assert((act_prev & 1) == 0 && "tx_begin while already in a transaction");
  rec_.request(ActionKind::kTxBegin);
  const std::uint64_t epoch =
      tm_.reset_epoch_.load(std::memory_order_relaxed);
  if (epoch != reset_epoch_seen_) {
    reset_epoch_seen_ = epoch;
    txn_ordinal_ = 0;
  }
  rver_ = tm_.clock_.sample();  // rver[T] := clock
  wver_minted_ = false;
  // O(1) read/write-set clear: a new epoch tag invalidates every per-location
  // membership slot at once. On the (once per 2^32 transactions) wrap-around
  // the arrays are hard-cleared so stale tags cannot alias.
  if (++txn_tag_ == 0) {
    std::fill(rset_tag_.begin(), rset_tag_.end(), 0u);
    std::fill(wslot_.begin(), wslot_.end(), WriteSlot{});
    txn_tag_ = 1;
  }
  rset_.clear();
  wset_.clear();
  wfilter_ = 0;
  rec_.response(ActionKind::kOk);
  trace_tx_begin();
  return true;
}

void Tl2FusedThread::abort_in_flight() {
  rec_.response(ActionKind::kAborted);
  tm_.stats().add(stat_slot_, Counter::kTxAbort);
  if (collect_timestamps_) {
    // wver stays 0 (the paper's ⊤) unless this very transaction minted one.
    stamps_.push_back({thread_, txn_ordinal_, rver_,
                       wver_minted_ ? wver_ : 0, wver_minted_,
                       /*committed=*/false});
  }
  ++txn_ordinal_;
  // Abort handler: clear active (inlined tx_exit parity bump).
  [[maybe_unused]] const std::uint64_t act_prev =
      activity_->fetch_add(1, std::memory_order_acq_rel);
  assert((act_prev & 1) == 1 && "abort outside a transaction");
}

void Tl2FusedThread::tx_abort() {
  // No stripe is ever locked outside tx_commit; the epoch-tagged sets are
  // invalidated by the next tx_begin's tag bump — nothing else to undo.
  rec_.request(ActionKind::kTxAbort);
  note_abort(rt::AbortReason::kCmInduced);
  abort_in_flight();
}

bool Tl2FusedThread::tx_read(RegId reg, Value& out) {
  rec_.request(ActionKind::kReadReq, reg);
  const auto r = static_cast<std::size_t>(reg);
  const std::size_t s = geometry_.index(r);

  // Read-after-write fast path: the bloom filter screens the common miss
  // with one register-resident test; the tag array is touched only on a
  // filter hit. The slot names the last write to this *stripe*; on the
  // (rare) intra-transaction stripe collision fall back to a wset scan.
  if ((wfilter_ & bloom_bit(s)) != 0) {
    const WriteSlot slot = wslot_[s];
    if (slot.tag == txn_tag_) {
      if (wset_[slot.idx].reg == reg) {
        out = wset_[slot.idx].value;
        rec_.response(ActionKind::kReadRet, reg, out);
        return true;
      }
      for (auto it = wset_.rbegin(); it != wset_.rend(); ++it) {
        if (it->reg == reg) {
          out = it->value;
          rec_.response(ActionKind::kReadRet, reg, out);
          return true;
        }
      }
    }
  }

  // Word / value / word: the value load is sandwiched between two acquire
  // loads of the location's stripe word, which must agree and be unlocked
  // with version ≤ rver. Both checks are required: a lone post-value load
  // would accept a stale value when a racing commit's wver is ≤ rver
  // (reader began after the stamp was minted) and the unlock lands between
  // the two loads. An unchanged unlocked word proves no writer locked the
  // stripe across the value load — a writer must CAS the word locked
  // before storing any value the stripe guards — so the value belongs to
  // a version ≤ version_of(w1) exactly.
  auto& vlock = *stripe_base_[s];
  const VersionedLock::Word w1 = vlock.load(std::memory_order_acquire);
  const Value value = cells_[r].load(std::memory_order_acquire);
  const VersionedLock::Word w2 = vlock.load(std::memory_order_acquire);
  // Injected read-validation faults ride the genuine invalid path (shaped
  // like a spurious stripe collision) — same site as the faithful backend.
  const bool injected =
      fault_ != nullptr &&
      fault_->inject_abort(stat_slot_, rt::FaultSite::kReadValidation);
  const bool invalid = VersionedLock::is_locked(w1) || w1 != w2 ||
                       rver_ < VersionedLock::version_of(w1) || injected;
  if (invalid && !unsafe_skip_validation_) {
    tm_.stats().add(stat_slot_, Counter::kTxReadValidationFail);
    note_abort(injected ? rt::AbortReason::kFaultInjected
                        : rt::AbortReason::kReadValidation,
               static_cast<std::uint32_t>(s));
    abort_in_flight();
    return false;
  }
  if (rset_tag_[s] != txn_tag_) {
    rset_tag_[s] = txn_tag_;
    rset_.push_back(static_cast<std::uint32_t>(s));
  }
  out = value;
  rec_.response(ActionKind::kReadRet, reg, value);
  return true;
}

bool Tl2FusedThread::tx_write(RegId reg, Value value) {
  rec_.request(ActionKind::kWriteReq, reg, value);
  const auto r = static_cast<std::size_t>(reg);
  const std::size_t s = geometry_.index(r);
  const std::uint64_t bit = bloom_bit(s);
  if ((wfilter_ & bit) != 0 && wslot_[s].tag == txn_tag_ &&
      wset_[wslot_[s].idx].reg == reg) {
    wset_[wslot_[s].idx].value = value;  // duplicate write: update in place
  } else {
    // First write to the location (or a stripe-colliding one): append.
    // Write-back flushes in insertion order, so the last value per
    // location wins even when a collision shadowed the slot.
    wslot_[s] = {txn_tag_, static_cast<std::uint32_t>(wset_.size())};
    wset_.push_back({reg, static_cast<std::uint32_t>(s), value});
    wfilter_ |= bit;
  }
  rec_.response(ActionKind::kWriteRet, reg);
  return true;
}

void Tl2FusedThread::release_stripes() {
  // Restore the pre-lock words of the stripes this commit locked.
  for (const LockedStripe& ls : locked_) {
    stripe_base_[ls.stripe]->restore(ls.prev);
  }
  locked_.clear();
}

TxResult Tl2FusedThread::tx_commit() {
  rec_.request(ActionKind::kTxCommit);

  // Injection site: a spurious abort at commit entry, before the read-only
  // fast path and before any stripe is locked — so the injected regime
  // also exercises read-only abort histories the clock-free path never
  // produces on its own.
  if (fault_ != nullptr &&
      fault_->inject_abort(stat_slot_, rt::FaultSite::kCommit)) {
    note_abort(rt::AbortReason::kFaultInjected);
    abort_in_flight();
    auto_fence(false);
    return TxResult::kAborted;
  }

  if (wset_.empty()) {
    // Read-only fast path: every read validated against rver as it happened,
    // so the snapshot is already consistent — no locks, no validation pass
    // and, crucially, no global-clock advance.
    rec_.response(ActionKind::kCommitted);
    tm_.stats().add(stat_slot_, Counter::kTxCommit);
    tm_.stats().add(stat_slot_, Counter::kTxReadOnlyCommit);
    trace_tx_commit();
    if (collect_timestamps_) {
      stamps_.push_back({thread_, txn_ordinal_, rver_, 0,
                         /*has_wver=*/false, /*committed=*/true});
    }
    ++txn_ordinal_;
    [[maybe_unused]] const std::uint64_t act_prev =
        activity_->fetch_add(1, std::memory_order_acq_rel);  // clear active
    assert((act_prev & 1) == 1 && "commit outside a transaction");
    auto_fence(false);
    return TxResult::kCommitted;
  }

  // Acquire the write-set stripes: one CAS per distinct stripe. A stripe
  // revisited by this commit (duplicate location after a collision, or
  // two locations sharing a stripe) shows up as already locked *by us* —
  // cheaper than a dedup pass over the set. The pre-lock word is kept for
  // abort-time restore and self-lock validation.
  locked_.clear();
  bool lock_failed = false;
  std::uint32_t fail_stripe = rt::kNoStripe;
  bool fail_injected = false;
  for (const WriteEntry& entry : wset_) {
    const auto s = static_cast<std::size_t>(entry.stripe);
    auto& vlock = *stripe_base_[s];
    // Injection site: a lost CAS race — skip the attempt (performing it
    // and ignoring a success would leak the stripe lock) and take the
    // normal lock-failed abort path.
    if (fault_ != nullptr &&
        fault_->inject_cas_loss(stat_slot_, rt::FaultSite::kLockAcquire)) {
      lock_failed = true;
      fail_stripe = entry.stripe;
      fail_injected = true;
      break;
    }
    VersionedLock::Word expected = vlock.load(std::memory_order_relaxed);
    if (VersionedLock::is_locked(expected)) {
      if (VersionedLock::owner_of(expected) == token_) continue;  // ours
      lock_failed = true;
      fail_stripe = entry.stripe;
      break;
    }
    if (!vlock.try_lock(expected, token_)) {
      lock_failed = true;
      fail_stripe = entry.stripe;
      break;
    }
    locked_.push_back({s, expected});
  }
  if (lock_failed) {
    release_stripes();
    tm_.stats().add(stat_slot_, Counter::kTxLockFail);
    note_abort(fail_injected ? rt::AbortReason::kFaultInjected
                             : rt::AbortReason::kLockFail,
               fail_stripe);
    abort_in_flight();
    auto_fence(false);
    return TxResult::kAborted;
  }

  // Mint the write timestamp, GV4-batched. The share on CAS failure is
  // sound only because we hold ALL write-set stripes here —
  // global_clock.hpp carries the full argument.
  bool shared = false;
  const rt::GlobalClock::Stamp seen = tm_.clock_.sample();
  if (fault_ != nullptr &&
      fault_->inject_cas_loss(stat_slot_, rt::FaultSite::kClockAdvance)) {
    // A simulated rival commits inside our load→CAS window: advancing
    // the clock for real makes the CAS below genuinely fail, driving
    // the true share path (not a mock). Equivalent to a concurrent
    // disjoint-write-set committer, so the GV4 soundness argument holds
    // unchanged — on single-core boxes this is the only way the share
    // branch is reachable at all.
    tm_.clock_.advance();
  }
  wver_ = tm_.clock_.advance_from(seen, shared);
  if (shared) {
    tm_.stats().add(stat_slot_, Counter::kClockStampShared);
  }
  wver_minted_ = true;

  // Validate the read set: one acquire load per stripe. A stripe locked
  // by this very commit counts as free (original TL2), validated against
  // the version the word carried when we locked it.
  for (const std::uint32_t s : rset_) {
    const VersionedLock::Word w =
        stripe_base_[s]->load(std::memory_order_acquire);
    bool valid;
    if (VersionedLock::is_locked(w)) {
      valid = false;
      if (VersionedLock::owner_of(w) == token_) {
        for (const LockedStripe& ls : locked_) {
          if (ls.stripe == s) {
            valid = rver_ >= VersionedLock::version_of(ls.prev);
            break;
          }
        }
      }
    } else {
      valid = rver_ >= VersionedLock::version_of(w);
    }
    if (!valid && !unsafe_skip_validation_) {
      release_stripes();
      tm_.stats().add(stat_slot_, Counter::kTxReadValidationFail);
      note_abort(rt::AbortReason::kReadValidation, s);
      abort_in_flight();
      auto_fence(false);
      return TxResult::kAborted;
    }
  }

  // Write back: value stores, then one release store per stripe that
  // publishes the new version and releases the lock at once. The optional
  // pause widens the delayed-commit window for the Fig 1(a) litmus
  // harness, exactly as in the faithful backend; an injected delay widens
  // it further with the stripes held.
  if (fault_ != nullptr) {
    fault_->maybe_delay(stat_slot_, rt::FaultSite::kCommit);
  }
  for (const WriteEntry& entry : wset_) {
    for (std::uint32_t i = 0; i < commit_pause_spins_; ++i) {
      rt::cpu_relax();
    }
    cells_[static_cast<std::size_t>(entry.reg)].store(
        entry.value, std::memory_order_release);
    rec_.publish(entry.reg, entry.value);  // TXVIS point (Fig 10)
  }
  for (const LockedStripe& ls : locked_) {
    stripe_base_[ls.stripe]->unlock_with_version(wver_);
  }
  locked_.clear();

  rec_.response(ActionKind::kCommitted);
  tm_.stats().add(stat_slot_, Counter::kTxCommit);
  trace_tx_commit();
  if (collect_timestamps_) {
    stamps_.push_back({thread_, txn_ordinal_, rver_, wver_, wver_minted_,
                       /*committed=*/true});
  }
  ++txn_ordinal_;
  // Commit handler: clear active (inlined tx_exit parity bump).
  [[maybe_unused]] const std::uint64_t act_prev =
      activity_->fetch_add(1, std::memory_order_acq_rel);
  assert((act_prev & 1) == 1 && "commit outside a transaction");
  auto_fence(true);
  return TxResult::kCommitted;
}

}  // namespace privstm::tm
