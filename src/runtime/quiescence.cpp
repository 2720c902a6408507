#include "runtime/quiescence.hpp"

#include "runtime/backoff.hpp"

namespace privstm::rt {

const char* fence_policy_name(FencePolicy p) noexcept {
  switch (p) {
    case FencePolicy::kNone:
      return "none";
    case FencePolicy::kSelective:
      return "selective";
    case FencePolicy::kAlways:
      return "always";
    case FencePolicy::kSkipAfterReadOnly:
      return "skip-after-ro";
  }
  return "?";
}

void QuiescenceManager::fence(std::size_t stat_slot) noexcept {
  registry_.quiesce(mode_);
  stats_.add(stat_slot, Counter::kFence);
}

FenceTicket QuiescenceManager::fence_async(std::size_t stat_slot) noexcept {
  stats_.add(stat_slot, Counter::kFenceAsyncIssued);
  return grace_period_target();
}

bool QuiescenceManager::fence_try_complete(FenceTicket ticket,
                                           std::size_t stat_slot) noexcept {
  if (ticket == kNullFenceTicket) return true;
  bool self_finished = false;
  if (!drive(ticket, /*block=*/false, self_finished)) return false;
  count_fence(stat_slot, self_finished);
  return true;
}

void QuiescenceManager::fence_wait(FenceTicket ticket,
                                   std::size_t stat_slot) noexcept {
  if (ticket == kNullFenceTicket) return;
  bool self_finished = false;
  (void)drive(ticket, /*block=*/true, self_finished);
  count_fence(stat_slot, self_finished);
}

FenceTicket QuiescenceManager::grace_period_target() noexcept {
  // Order the target read after everything the fencing thread did before
  // (in particular its fbegin record): the covering scan's snapshot must
  // postdate any transaction begin the history orders before this fence.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::uint64_t s = seq_->load(std::memory_order_acquire);
  // Even s: the next scan to start also starts after our read — its
  // completion (s + 2) suffices.
  if ((s & 1) == 0) return s + 2;
  // Odd s: a scan is in flight whose snapshot may predate us, so it cannot
  // cover us as-is. But if every slot WE observe active right now is still
  // in that scan's waiting set with the SAME activity value, the scan's
  // completion condition ("word moved past v") is exactly our own
  // requirement, value for value — we can join it and complete at s + 1.
  // Joining adds no requirement, so it never delays other fences and
  // cannot livelock the scan. If any slot disagrees (the scan already
  // retired it, or the word moved and a newer transaction is running),
  // fall back to the completion of the scan after this one (s + 3).
  if (scan_lock_.try_lock()) {
    bool joinable = seq_->load(std::memory_order_relaxed) == s;
    if (joinable) {
      const std::size_t n = registry_.high_water();
      joinable = n <= scan_nslots_;
      for (std::size_t t = 0; joinable && t < n; ++t) {
        const std::uint64_t a =
            registry_.activity_word(static_cast<int>(t))
                .load(std::memory_order_acquire);
        if ((a & 1) == 0) continue;  // quiescent now — nothing to require
        if (!scan_waiting_[t] || scan_snapshot_[t] != a) joinable = false;
      }
    }
    scan_lock_.unlock();
    if (joinable) return s + 1;
  }
  return s + 3;
}

bool QuiescenceManager::try_start_scan() noexcept {
  if ((seq_->load(std::memory_order_acquire) & 1) != 0) return false;
  if (!scan_lock_.try_lock()) return false;
  const std::uint64_t s = seq_->load(std::memory_order_relaxed);
  if ((s & 1) != 0) {  // lost the election while acquiring the lock
    scan_lock_.unlock();
    return false;
  }
  // Publish scan-in-flight BEFORE snapshotting: a fence that read an even
  // seq is thereby guaranteed this snapshot postdates its read (see the
  // header's soundness note). The seq_cst fence pairs with the one in
  // grace_period_target().
  seq_->store(s + 1, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::size_t n = registry_.high_water();
  scan_nslots_ = n;
  scan_nwaiting_ = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t a =
        registry_.activity_word(static_cast<int>(t))
            .load(std::memory_order_acquire);
    scan_snapshot_[t] = a;
    const bool waiting = (a & 1) != 0;
    scan_waiting_[t] = waiting ? 1 : 0;
    if (waiting) ++scan_nwaiting_;
  }
  if (trace_ != nullptr) {
    // Begin the span while still holding scan_lock_, so it is ordered
    // before the completing poller's End (which also holds the lock).
    trace_->emit_shared(TraceEventKind::kGraceScanBegin, 0,
                        static_cast<std::uint32_t>(scan_nwaiting_));
  }
  scan_lock_.unlock();
  return true;
}

bool QuiescenceManager::poll_scan() noexcept {
  if ((seq_->load(std::memory_order_acquire) & 1) == 0) return false;
  if (!scan_lock_.try_lock()) return false;
  if ((seq_->load(std::memory_order_relaxed) & 1) == 0) {
    scan_lock_.unlock();  // the scan completed while we took the lock
    return false;
  }
  // Epoch-counter semantics per slot: the activity word moved on, so the
  // transaction observed by the snapshot has completed — live even under
  // back-to-back transactions.
  for (std::size_t t = 0; t < scan_nslots_; ++t) {
    if (!scan_waiting_[t]) continue;
    const std::uint64_t a =
        registry_.activity_word(static_cast<int>(t))
            .load(std::memory_order_acquire);
    if (a != scan_snapshot_[t]) {
      scan_waiting_[t] = 0;
      --scan_nwaiting_;
    }
  }
  const bool finished = scan_nwaiting_ == 0;
  if (finished) {
    seq_->fetch_add(1, std::memory_order_acq_rel);  // odd → even
    if (trace_ != nullptr) {
      trace_->emit_shared(TraceEventKind::kGraceScanEnd, 0,
                          static_cast<std::uint32_t>(scan_nslots_));
    }
  }
  scan_lock_.unlock();
  return finished;
}

bool QuiescenceManager::drive(FenceTicket ticket, bool block,
                              bool& self_finished) noexcept {
  self_finished = false;
  Backoff backoff;
  while (seq_->load(std::memory_order_acquire) < ticket) {
    bool progressed = try_start_scan();
    if (poll_scan()) {
      progressed = true;
      if (seq_->load(std::memory_order_acquire) >= ticket) {
        self_finished = true;
      }
    }
    if (seq_->load(std::memory_order_acquire) >= ticket) break;
    if (!progressed) {
      if (!block) return false;
      backoff.pause();
    }
  }
  return true;
}

void QuiescenceManager::count_fence(std::size_t stat_slot,
                                    bool self_finished) noexcept {
  stats_.add(stat_slot, Counter::kFence);
  if (!self_finished) stats_.add(stat_slot, Counter::kFenceCoalesced);
}

bool QuiescenceManager::try_elapse_ticket(FenceTicket ticket) noexcept {
  if (ticket == kNullFenceTicket) return true;
  bool self_finished = false;
  return drive(ticket, /*block=*/false, self_finished);
}

bool QuiescenceManager::ticket_elapsed(FenceTicket ticket) const noexcept {
  return ticket == kNullFenceTicket ||
         seq_->load(std::memory_order_acquire) >= ticket;
}

}  // namespace privstm::rt
