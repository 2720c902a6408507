// Fixed-capacity open-addressing transactional hash map with privatized
// iteration.
//
// Storage comes from the owning TM's transactional heap
// (`tm_alloc(2 * capacity + 1)`: freeze flag, then `capacity` (key, value)
// pairs) — no caller-provided register layout; the destructor returns the
// block with the privatization-safe `tm_free`. Keys are nonzero; 0 = empty
// slot, kTombstone = erased. Linear probing.
//
// put/get/erase are single transactions touching only the probed slots, so
// operations on different chains run conflict-free on TL2. Full-table
// iteration — the operation STM papers struggle with — uses the paper's
// privatization idiom instead of a giant transaction: freeze (agreement),
// fence (quiesce in-flight writers), iterate with NT reads, publish back.
//
// NOTE on checking: like the other ADTs this encodes emptiness as 0, so a
// *recorded* run would violate the formal model's unique-writes rule;
// these containers are production-path code, not checker workloads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "tm/tm.hpp"

namespace privstm::adt {

class TxHashMap {
 public:
  static constexpr tm::Value kTombstone = ~tm::Value{0};

  TxHashMap(tm::TransactionalMemory& tm, std::size_t capacity)
      : tm_(&tm),
        handle_(tm.tm_alloc(2 * capacity + 1)),
        freeze_(handle_, 0),
        capacity_(capacity) {}

  ~TxHashMap() {
    if (handle_.valid()) tm_->tm_free(handle_);
  }

  TxHashMap(const TxHashMap&) = delete;
  TxHashMap& operator=(const TxHashMap&) = delete;

  // -------------------------------------------------------------------
  // In-transaction operations: the probe loops exposed on a caller's
  // TxScope, so a service can compose an index lookup with record
  // accesses in ONE transaction (src/service/session_store.hpp). Run such
  // a composed body through run_unfrozen, which owns the freeze protocol:
  // it reads frozen(tx) first and waits outside the transaction while a
  // privatized phase holds the table (the reading of the freeze flag is
  // what orders the operation against the phase's NT mutations). After
  // an abort TxScope reads return 0 — the probe loop then sees "end of
  // chain" and bails; the result is discarded by the retry wrapper either
  // way. The one hazard is the value-slot read *after* a successful key
  // match: if that read is the one that aborts, its 0 must not surface as
  // a found value (callers decode map values into handles before the
  // retry wrapper sees the abort), so every found path re-checks
  // tx.aborted() and reports absence instead.
  // -------------------------------------------------------------------

  /// True while a privatized phase holds the table. Reading the flag
  /// subscribes the transaction to it: a freeze committing later aborts
  /// this transaction instead of mutating under it.
  bool frozen(tm::TxScope& tx) const { return freeze_.get(tx) != 0; }

  /// Run `body(tx)` in one transaction under run_tx_retry once the table
  /// is not frozen. Each attempt reads the freeze flag first and runs the
  /// body only when it is clear. When it is set, the wait happens outside
  /// any transaction: poll the unfreeze epoch, read before the attempt,
  /// until unfreeze() bumps it, then retry. So a waiter commits at most
  /// one read-only transaction per freeze it meets instead of one per
  /// spin. The epoch is only a wake-up hint; the in-transaction flag read
  /// is what orders the operation against the freeze. Each wait counts
  /// one Counter::kFrozenWait.
  template <typename Body>
  void run_unfrozen(tm::TmThread& session, Body&& body,
                    const tm::TxRetryOptions& options = {}) const {
    for (;;) {
      const std::uint64_t epoch =
          unfreeze_epoch_.load(std::memory_order_acquire);
      bool is_frozen = false;
      tm::run_tx_retry(session, [&](tm::TxScope& tx) {
        is_frozen = frozen(tx);
        if (!is_frozen) body(tx);
      }, options);
      if (!is_frozen) return;
      wait_for_unfreeze(session, epoch);
    }
  }

  /// Insert or update inside the caller's transaction. Returns false when
  /// the table is full (probe exhausted). `replaced` (when non-null)
  /// receives the previous value if the key was already present, else is
  /// left untouched — callers that own heap blocks through map values use
  /// it to free the displaced block after commit.
  bool put_in(tm::TxScope& tx, tm::Value key, tm::Value value,
              tm::Value* replaced = nullptr) const {
    std::size_t free_slot = capacity_;
    for (std::size_t probe = 0; probe < capacity_; ++probe) {
      const std::size_t slot = index(key, probe);
      const tm::Value k = tx.read(key_loc(slot));
      if (k == key) {
        if (replaced != nullptr) {
          const tm::Value prev = tx.read(value_loc(slot));
          if (tx.aborted()) return false;
          *replaced = prev;
        }
        tx.write(value_loc(slot), value);
        return true;
      }
      if (k == kTombstone) {
        if (free_slot == capacity_) free_slot = slot;
        continue;  // erased: keep probing, the key may be further on
      }
      if (k == 0) {
        if (free_slot == capacity_) free_slot = slot;
        break;  // end of chain
      }
    }
    if (free_slot == capacity_) return false;  // full
    tx.write(key_loc(free_slot), key);
    tx.write(value_loc(free_slot), value);
    return true;
  }

  std::optional<tm::Value> get_in(tm::TxScope& tx, tm::Value key) const {
    for (std::size_t probe = 0; probe < capacity_; ++probe) {
      const std::size_t slot = index(key, probe);
      const tm::Value k = tx.read(key_loc(slot));
      if (k == key) {
        const tm::Value v = tx.read(value_loc(slot));
        if (tx.aborted()) return std::nullopt;
        return v;
      }
      if (k == 0) return std::nullopt;  // end of chain
      // tombstone or other key: keep probing
    }
    return std::nullopt;
  }

  /// Remove inside the caller's transaction; true if the key was present
  /// (`removed`, when non-null, then receives its value).
  bool erase_in(tm::TxScope& tx, tm::Value key,
                tm::Value* removed = nullptr) const {
    for (std::size_t probe = 0; probe < capacity_; ++probe) {
      const std::size_t slot = index(key, probe);
      const tm::Value k = tx.read(key_loc(slot));
      if (k == key) {
        if (removed != nullptr) {
          const tm::Value prev = tx.read(value_loc(slot));
          if (tx.aborted()) return false;
          *removed = prev;
        }
        tx.write(key_loc(slot), kTombstone);
        return true;
      }
      if (k == 0) return false;
    }
    return false;
  }

  /// Insert or update. Returns false when the table is full (probe
  /// exhausted) — the caller must resize offline (see rebuild_privatized).
  /// Waits (see run_unfrozen) while the table is frozen by a privatized
  /// phase.
  bool put(tm::TmThread& session, tm::Value key, tm::Value value) const {
    bool ok = false;
    run_unfrozen(session, [&](tm::TxScope& tx) {
      ok = put_in(tx, key, value);
    });
    return ok;
  }

  std::optional<tm::Value> get(tm::TmThread& session, tm::Value key) const {
    std::optional<tm::Value> result;
    run_unfrozen(session,
                 [&](tm::TxScope& tx) { result = get_in(tx, key); });
    return result;
  }

  /// Remove the key; true if it was present.
  bool erase(tm::TmThread& session, tm::Value key) const {
    bool found = false;
    run_unfrozen(session,
                 [&](tm::TxScope& tx) { found = erase_in(tx, key); });
    return found;
  }

  /// Privatized full iteration: freeze, fence, visit every live (key,
  /// value) pair with NT reads, publish back. `freeze_token` must be a
  /// fresh nonzero value per call. `visit` is a template parameter (not
  /// std::function): the visitor is called once per live slot on the
  /// privatized scan hot path, where an indirect call plus a possible
  /// capture allocation per sweep would be pure overhead.
  template <typename Visit>
  void for_each_privatized(tm::TmThread& session, tm::Value freeze_token,
                           Visit&& visit) const {
    freeze(session, freeze_token);
    session.fence();
    for (std::size_t slot = 0; slot < capacity_; ++slot) {
      const tm::Value k = session.nt_read(key_loc(slot));
      if (k != 0 && k != kTombstone) {
        visit(k, session.nt_read(value_loc(slot)));
      }
    }
    unfreeze(session);
  }

  /// Grow to at least `new_capacity` slots — the heap-era resize the
  /// fixed-capacity PR 3 map could not do, and an end-to-end showcase of
  /// the paper's fence-then-free idiom: allocate the bigger table with
  /// `tm_alloc`, freeze, **fence** (now every in-flight — possibly
  /// delayed-commit — transaction that touched the old block has
  /// finished), rebuild into the new block with NT accesses only, publish
  /// the new table, and `tm_free` the old block, whose reuse the fence
  /// just made safe.
  ///
  /// Contract: like rebuild_privatized this is a privatized phase, but it
  /// additionally swaps the table identity, so no other operation on this
  /// map may *start* while reserve runs (operations that started before —
  /// including ones whose commits are still in flight — are exactly what
  /// the fence orders before the rebuild). `freeze_token` must be a fresh
  /// nonzero value per call.
  void reserve(tm::TmThread& session, std::size_t new_capacity,
               tm::Value freeze_token) {
    if (new_capacity <= capacity_) return;
    freeze(session, freeze_token);
    session.fence();
    const tm::TxHandle grown = tm_->tm_alloc(2 * new_capacity + 1);
    // The fresh block reads vinit: freeze cell 0 (unfrozen), keys 0
    // (empty) — rehash straight into it with NT writes.
    for (std::size_t slot = 0; slot < capacity_; ++slot) {
      const tm::Value k = session.nt_read(key_loc(slot));
      if (k == 0 || k == kTombstone) continue;
      const tm::Value v = session.nt_read(value_loc(slot));
      for (std::size_t probe = 0; probe < new_capacity; ++probe) {
        const std::size_t s = index_in(k, probe, new_capacity);
        const tm::RegId key_cell = grown.loc(1 + 2 * s);
        if (session.nt_read(key_cell) == 0) {
          session.nt_write(key_cell, k);
          session.nt_write(grown.loc(2 + 2 * s), v);
          break;
        }
      }
    }
    const tm::TxHandle old = handle_;
    handle_ = grown;
    capacity_ = new_capacity;
    freeze_ = tm::TxVar<tm::Value>(grown, 0);  // vinit = unfrozen: published
    unfreeze_epoch_.fetch_add(1, std::memory_order_release);
    tm_->tm_free(old);  // fence-then-free: reuse is safe by construction
  }

  /// Privatized tombstone compaction (the offline "rebuild" of
  /// open-addressing tables): collect all live pairs, clear, reinsert with
  /// NT accesses only.
  void rebuild_privatized(tm::TmThread& session,
                          tm::Value freeze_token) const {
    freeze(session, freeze_token);
    session.fence();
    std::vector<std::pair<tm::Value, tm::Value>> live;
    for (std::size_t slot = 0; slot < capacity_; ++slot) {
      const tm::Value k = session.nt_read(key_loc(slot));
      if (k != 0 && k != kTombstone) {
        live.emplace_back(k, session.nt_read(value_loc(slot)));
      }
      session.nt_write(key_loc(slot), 0);
    }
    for (const auto& [k, v] : live) {
      for (std::size_t probe = 0; probe < capacity_; ++probe) {
        const std::size_t slot = index(k, probe);
        if (session.nt_read(key_loc(slot)) == 0) {
          session.nt_write(key_loc(slot), k);
          session.nt_write(value_loc(slot), v);
          break;
        }
      }
    }
    unfreeze(session);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  tm::TxHandle handle() const noexcept { return handle_; }

  /// Slot layout accessors (benchmarks compare the privatized iteration
  /// against a hand-rolled giant transaction over the same locations).
  tm::RegId key_loc(std::size_t slot) const noexcept {
    return handle_.loc(1 + 2 * slot);
  }
  tm::RegId value_loc(std::size_t slot) const noexcept {
    return handle_.loc(2 + 2 * slot);
  }

  // -------------------------------------------------------------------
  // Privatized-phase bracket. for_each_privatized/rebuild_privatized use
  // it internally with a synchronous fence; services that need a
  // different quiescence discipline (the expiry sweep's async-ticket
  // fence, src/service/session_store.cpp) take the bracket directly:
  // freeze → fence of the caller's choosing → NT scan and mutation of the
  // slots — tombstoning included — → unfreeze (republish). Every
  // transactional operation reads the freeze flag first, so operations
  // either committed before the freeze (the fence then orders their —
  // possibly delayed — write-backs before the NT accesses) or observe the
  // flag and wait (run_unfrozen).
  // -------------------------------------------------------------------

  /// Acquire the freeze flag, waiting out another privatized phase that
  /// holds it. `token` must be a fresh nonzero value per call.
  void freeze(tm::TmThread& session, tm::Value token) const {
    run_unfrozen(session, [&](tm::TxScope& tx) { freeze_.set(tx, token); });
  }

  /// Republish after a privatized phase, then wake the waiters.
  void unfreeze(tm::TmThread& session) const {
    tm::run_tx_retry(session,
                     [&](tm::TxScope& tx) { freeze_.set(tx, 0); });
    unfreeze_epoch_.fetch_add(1, std::memory_order_release);
  }

 private:
  /// Fibonacci hashing + linear probe, parameterized by capacity so
  /// reserve() can probe the not-yet-published grown table with the
  /// exact same formula the lookups will use.
  static std::size_t index_in(tm::Value key, std::size_t probe,
                              std::size_t capacity) noexcept {
    const tm::Value h = key * 11400714819323198485ULL;
    return static_cast<std::size_t>((h >> 32) + probe) % capacity;
  }

  std::size_t index(tm::Value key, std::size_t probe) const noexcept {
    return index_in(key, probe, capacity_);
  }

  /// Poll the unfreeze epoch until it moves past `epoch`: cpu_relax
  /// polls first (a sweep holds a bucket for microseconds, so a doubling
  /// backoff would overshoot the window), then a yield per poll once the
  /// freeze has outlasted kSpinPolls.
  void wait_for_unfreeze(tm::TmThread& session, std::uint64_t epoch) const {
    constexpr std::uint32_t kSpinPolls = 1024;
    tm_->stats().add(session.stat_slot(), rt::Counter::kFrozenWait);
    for (std::uint32_t polls = 0;
         unfreeze_epoch_.load(std::memory_order_acquire) == epoch;) {
      if (polls < kSpinPolls) {
        ++polls;
        rt::cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  tm::TransactionalMemory* tm_;
  tm::TxHandle handle_;
  tm::TxVar<tm::Value> freeze_;
  std::size_t capacity_;
  /// Bumped after every republication. A plain atomic outside the TM
  /// heap, like the registry's activity words: waiters poll it without
  /// running transactions.
  mutable std::atomic<std::uint64_t> unfreeze_epoch_{0};
};

}  // namespace privstm::adt
