// The TL2 global version clock (`clock` in Fig 9).
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/cacheline.hpp"

namespace privstm::rt {

/// Monotone global counter. `sample()` is the transaction-begin read
/// (rver := clock); `advance()` is the commit-time
/// fetch_and_increment(clock)+1 that mints a write timestamp (wver).
///
/// Lives alone on a cache line: it is the single hottest word in TL2 and
/// sharing it with anything else destroys scalability (ablation E13).
class alignas(kCacheLine) GlobalClock {
 public:
  using Stamp = std::uint64_t;

  Stamp sample() const noexcept {
    return now_.load(std::memory_order_acquire);
  }

  /// fetch_and_increment(clock) + 1 — returns the freshly minted stamp.
  Stamp advance() noexcept {
    return now_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// The GV4 CAS step against a pre-sampled clock value `seen`: try to
  /// install seen+1; if another committer moved the clock past us first,
  /// *share* the fresh stamp the failed CAS reloaded instead of retrying
  /// (`shared` reports which branch ran, for Counter::kClockStampShared).
  ///
  /// Sharing is safe for TL2 because the committer calling this already
  /// holds ALL of its write locks: a concurrent committer whose CAS won
  /// with the same-or-smaller stamp necessarily has a disjoint write set
  /// (overlapping ones collide on a write lock first), and any reader
  /// whose rver equals the shared stamp sampled the clock *after* our
  /// locks were taken — so it either validates against our post-unlock
  /// version (complete writes) or aborts on the locked stripe, never
  /// observes a fracture. Under contention this turns the clock from a
  /// fetch_add-per-writer hotspot into at most one cache-line transfer
  /// per *batch* of concurrent commits.
  ///
  /// Split out from advance_if_stale so tests can force the share branch
  /// deterministically by passing a deliberately stale `seen`.
  Stamp advance_from(Stamp seen, bool& shared) noexcept {
    const Stamp next = seen + 1;
    if (now_.compare_exchange_strong(seen, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      shared = false;
      return next;
    }
    shared = true;
    return seen;  // the failed CAS reloaded a strictly fresher stamp
  }

  /// GV4/GV5-style commit stamp: one CAS attempt to advance the clock,
  /// sharing the reloaded stamp on failure (see advance_from).
  Stamp advance_if_stale(bool& shared) noexcept {
    return advance_from(now_.load(std::memory_order_acquire), shared);
  }

  Stamp advance_if_stale() noexcept {
    bool shared = false;
    return advance_from(now_.load(std::memory_order_acquire), shared);
  }

  void reset() noexcept {
    now_.store(0, std::memory_order_release);
  }

 private:
  std::atomic<Stamp> now_{0};
};

}  // namespace privstm::rt
