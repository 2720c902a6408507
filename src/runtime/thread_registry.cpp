#include "runtime/thread_registry.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "runtime/backoff.hpp"

namespace privstm::rt {

const char* fence_mode_name(FenceMode m) noexcept {
  switch (m) {
    case FenceMode::kEpochCounter:
      return "epoch-counter";
    case FenceMode::kPaperBoolean:
      return "paper-boolean";
  }
  return "?";
}

int ThreadRegistry::register_thread() noexcept {
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slots_[i]->in_use.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      // A fresh owner must start quiescent; force even parity.
      std::uint64_t a = slots_[i]->activity.load(std::memory_order_relaxed);
      if (a & 1) {
        slots_[i]->activity.store(a + 1, std::memory_order_release);
      }
      // Publish the occupancy bound before the caller can run a
      // transaction on this slot, so fence scans over [0, high_water())
      // never miss it.
      std::size_t hw = high_water_.load(std::memory_order_relaxed);
      while (hw < i + 1 &&
             !high_water_.compare_exchange_weak(hw, i + 1,
                                                std::memory_order_acq_rel)) {
      }
      return static_cast<int>(i);
    }
  }
  std::fprintf(stderr,
               "privstm: thread registry exhausted (kMaxThreads=%zu)\n",
               kMaxThreads);
  std::abort();
}

void ThreadRegistry::unregister_thread(int slot) noexcept {
  assert(slot >= 0 && static_cast<std::size_t>(slot) < kMaxThreads);
  assert(!is_active(slot) && "unregistering a thread inside a transaction");
  slots_[static_cast<std::size_t>(slot)]->in_use.store(
      false, std::memory_order_release);
}

void ThreadRegistry::tx_enter(int slot) noexcept {
  auto& word = slots_[static_cast<std::size_t>(slot)]->activity;
  // Relaxed increment + seq_cst fence would also work; acq_rel keeps the
  // parity transition totally ordered with the transaction's later accesses.
  [[maybe_unused]] std::uint64_t prev =
      word.fetch_add(1, std::memory_order_acq_rel);
  assert((prev & 1) == 0 && "tx_enter while already in a transaction");
}

void ThreadRegistry::tx_exit(int slot) noexcept {
  auto& word = slots_[static_cast<std::size_t>(slot)]->activity;
  [[maybe_unused]] std::uint64_t prev =
      word.fetch_add(1, std::memory_order_acq_rel);
  assert((prev & 1) == 1 && "tx_exit without a matching tx_enter");
}

bool ThreadRegistry::is_active(int slot) const noexcept {
  return (slots_[static_cast<std::size_t>(slot)]->activity.load(
              std::memory_order_acquire) &
          1) != 0;
}

void ThreadRegistry::quiesce(FenceMode mode) const noexcept {
  // Order the scan after everything the fencing thread did before, NT
  // stores included (they are release stores, which a later load may pass):
  // a transaction that begins after this fence starts must see them. The
  // async path's grace_period_target() opens with the same fence.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Only the claimed-slot prefix can host transactions; never-claimed
  // slots need no scan.
  const std::size_t nslots = high_water();
  // First loop of Fig 7: record which threads are mid-transaction.
  std::array<std::uint64_t, kMaxThreads> snapshot;  // NOLINT
  std::array<bool, kMaxThreads> waiting;            // NOLINT
  for (std::size_t t = 0; t < nslots; ++t) {
    const std::uint64_t a = slots_[t]->activity.load(std::memory_order_acquire);
    snapshot[t] = a;
    waiting[t] = (a & 1) != 0;
  }
  // Second loop of Fig 7: wait for each recorded thread to pass through a
  // quiescent state.
  for (std::size_t t = 0; t < nslots; ++t) {
    if (!waiting[t]) continue;
    Backoff backoff;
    for (;;) {
      const std::uint64_t a =
          slots_[t]->activity.load(std::memory_order_acquire);
      if (mode != FenceMode::kPaperBoolean) {
        // The counter moved on: the transaction observed in the snapshot has
        // completed (tx_exit bumped parity), regardless of how many
        // transactions the thread has started since.
        if (a != snapshot[t]) break;
      } else {
        // Paper-faithful: `while (active[t]);` — wait to *observe* the
        // thread outside a transaction.
        if ((a & 1) == 0) break;
      }
      backoff.pause();
    }
  }
}

std::size_t ThreadRegistry::registered_count() const noexcept {
  const std::size_t nslots = high_water();
  std::size_t n = 0;
  for (std::size_t t = 0; t < nslots; ++t) {
    if (slots_[t]->in_use.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

std::size_t ThreadRegistry::active_count() const noexcept {
  const std::size_t nslots = high_water();
  std::size_t n = 0;
  for (std::size_t t = 0; t < nslots; ++t) {
    if ((slots_[t]->activity.load(std::memory_order_acquire) & 1) != 0) ++n;
  }
  return n;
}

}  // namespace privstm::rt
