// Transactional session store — the service layer of DESIGN.md §12.
//
// A key → session-record cache layered on the transactional heap: the
// index is a set of `adt::TxHashMap` buckets (key-hashed, so traffic on
// different buckets never conflicts and privatized maintenance holds one
// bucket at a time), and every record is a variable-size heap block
// allocated through `tm_alloc` (header + payload), so session churn
// exercises the allocator's size classes, magazines and limbo for real.
//
// Op protocol: every public operation composes the index probe with the
// record access in ONE transaction (TxHashMap's *_in API on the caller's
// TxScope) under run_tx_retry — so the contention manager sees the
// service's true conflict pattern — and checks the bucket's freeze flag
// first, waiting out privatized maintenance phases outside any
// transaction (TxHashMap::run_unfrozen).
//
// The expiry sweep is the paper's privatization idiom as a first-class
// service operation, applied only where it has work: per bucket, a find
// phase of short read-only transactions picks the expired slots; only a
// bucket with at least one is privatized — freeze (agreement) →
// transactional fence (sync, or an async ticket) → NT re-check and
// reclaim of those slots → republish. The fence is what makes the NT
// expiry reads, tombstone writes and frees safe against delayed commits
// (Fig 1a) — the deliberately-unfenced mode exists so tests can show the
// DRF checker flagging exactly that race.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "adt/tx_hashmap.hpp"
#include "runtime/latency.hpp"
#include "tm/tm.hpp"

namespace privstm::service {

/// How sweep_expired quiesces in-flight transactions after freezing a
/// bucket and before touching its records non-transactionally. Only
/// buckets whose find phase found an expired record are fenced.
enum class SweepMode : std::uint8_t {
  kSyncFence,   ///< fence() per privatized bucket
  kAsyncFence,  ///< fence_async() ticket per privatized bucket, waited on
                ///< at once: the grace period runs on the asynchronous
                ///< engine instead of a synchronous registry scan
  kUnfencedUnsafe,  ///< TEST-ONLY: skip the fence. Deliberately unsound —
                    ///< the NT re-check races with delayed commits; used
                    ///< to demonstrate the race machinery catches it.
};

const char* sweep_mode_name(SweepMode mode) noexcept;

struct SessionStoreConfig {
  std::size_t buckets = 8;            ///< rounded up to a power of two
  std::size_t bucket_capacity = 512;  ///< index slots per bucket
};

class SessionStore {
 public:
  /// Record layout: [0] key, [1] expiry tick, [2] tag, [3..] payload.
  static constexpr std::size_t kHeaderCells = 3;

  /// Deterministic payload cell content: every cell is a function of
  /// (key, tag, index), so a reader can verify a whole record against
  /// its header — torn snapshots and use-after-free corruption show up
  /// as a mismatch (the service tests' linearizability-style invariant).
  static constexpr tm::Value payload_cell(tm::Value key, tm::Value tag,
                                          std::size_t i) noexcept {
    return (key * 0x9E3779B97F4A7C15ULL) ^
           (tag + i * 0x100000001B3ULL) ^ 0x5851F42D4C957F2DULL;
  }

  SessionStore(tm::TransactionalMemory& tm, SessionStoreConfig config);
  ~SessionStore();

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  /// Retry options every operation's transaction runs under (default:
  /// TxRetryOptions{} — the legacy static policy). Not thread-safe against
  /// in-flight traffic: configure before serving.
  void set_retry_options(const tm::TxRetryOptions& options) noexcept {
    retry_ = options;
  }
  /// Attach an adaptive governor (runtime/adaptive.hpp): every op's retry
  /// loop then consults its live epoch decision per attempt and feeds its
  /// commit/abort accounting. nullptr detaches.
  void set_governor(rt::AdaptiveGovernor* governor) noexcept {
    retry_.governor = governor;
  }
  const tm::TxRetryOptions& retry_options() const noexcept { return retry_; }

  enum class PutStatus : std::uint8_t { kOk, kFull };

  /// Insert or replace the session record for `key` (nonzero): allocate
  /// header + `payload_cells` through the heap, fill it with NT writes
  /// while unpublished (the publication idiom — the publishing commit
  /// orders the fill before any reader that finds the index entry), then
  /// publish in one transaction. A replaced record is freed through the
  /// privatization-safe tm_free after the commit. kFull = the bucket's
  /// probe chain is exhausted.
  PutStatus put(tm::TmThread& session, tm::Value key, std::uint64_t expiry,
                std::size_t payload_cells, tm::Value tag);

  struct GetResult {
    bool hit = false;         ///< present and not expired
    bool consistent = true;   ///< payload sample matched the header
    tm::Value tag = 0;
    std::size_t payload_cells = 0;
  };

  /// Look up `key`: index probe + expiry check + a payload read (first
  /// and last cells, verified against the header) in one transaction.
  /// An expired record is a miss (reclamation is the sweep's job).
  GetResult get(tm::TmThread& session, tm::Value key, std::uint64_t now);

  /// Refresh the session's expiry; false if the key is absent.
  bool touch(tm::TmThread& session, tm::Value key, std::uint64_t expiry);

  /// Unlink and free the session record; false if absent.
  bool erase(tm::TmThread& session, tm::Value key);

  struct SweepStats {
    std::uint64_t scanned = 0;  ///< live records examined
    std::uint64_t retired = 0;  ///< expired records reclaimed
    std::uint64_t buckets = 0;  ///< buckets visited (all of them)
  };

  /// Sweep the whole store, reclaiming records expired at the find phase
  /// and still expired at the privatized re-check (expiry <= now both
  /// times). Per bucket: find (short read-only transactions collect the
  /// slots whose record has expiry <= now) → only if one was found,
  /// freeze → fence (per `mode`) → NT re-check of those slots (tombstone
  /// + tm_free what is still expired) → republish. A find chunk that
  /// meets a bucket frozen by another privatizer waits for its unfreeze
  /// and then reads it. Safe under full live traffic — operations on the
  /// frozen bucket wait, the rest of the store keeps serving. When
  /// `per_bucket_ns` is non-null each visited bucket's wall time, find
  /// through republish, is recorded into it (the sweep op-class
  /// histogram).
  SweepStats sweep_expired(tm::TmThread& session, std::uint64_t now,
                           SweepMode mode,
                           rt::LatencyHistogram* per_bucket_ns = nullptr);

  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// Fibonacci-mixed top bits, like the stripe/shard hashes elsewhere.
  std::size_t bucket_of(tm::Value key) const noexcept {
    if (buckets_.size() == 1) return 0;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    bucket_shift_);
  }

 private:
  /// Index values pack the record handle: size in the high 32 bits, base
  /// location in the low 32 — never 0 (size > 0) and never kTombstone
  /// (base < 2^32 - 1), so encoded handles coexist with the map's
  /// sentinels.
  static tm::Value encode(tm::TxHandle h) noexcept {
    return (static_cast<tm::Value>(h.size) << 32) |
           static_cast<tm::Value>(static_cast<std::uint32_t>(h.base));
  }
  static tm::TxHandle decode(tm::Value v) noexcept {
    return tm::TxHandle{
        static_cast<tm::RegId>(v & 0xFFFFFFFFULL),
        static_cast<std::uint32_t>(v >> 32)};
  }

  tm::Value next_freeze_token() noexcept {
    return (tm::Value{0xFEE} << 48) |
           token_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Find phase: read-only transactions of kFindChunkSlots slots each
  /// (a constexpr in session_store.cpp), run through run_unfrozen,
  /// collect into `expired` the slots whose record has expiry <= now and
  /// count the live records into `live`.
  void find_expired(tm::TmThread& session, std::size_t bucket,
                    std::uint64_t now, std::vector<std::size_t>& expired,
                    std::uint64_t& live) const;

  /// NT re-check of `slots` in one frozen, fenced bucket: re-read key,
  /// value and expiry, tombstone + tm_free what is expired now.
  void reclaim_privatized(tm::TmThread& session, std::size_t bucket,
                          const std::vector<std::size_t>& slots,
                          std::uint64_t now, SweepStats& stats);

  tm::TransactionalMemory* tm_;
  std::vector<std::unique_ptr<adt::TxHashMap>> buckets_;
  unsigned bucket_shift_;
  std::atomic<tm::Value> token_{1};
  tm::TxRetryOptions retry_{};  ///< per-op retry policy (see set_governor)
};

}  // namespace privstm::service
