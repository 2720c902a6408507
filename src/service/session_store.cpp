#include "service/session_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>

namespace privstm::service {
namespace {

// Slots per find-phase transaction. The find transactions are in flight
// while other threads fence, so a long one stretches every grace period:
// on session-expiry (4-core Xeon) the traced grace-scan p50 was 4.8 us at
// 64 slots and 7.3 us at 128, against 0.40 us with no find phase.
constexpr std::size_t kFindChunkSlots = 64;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* sweep_mode_name(SweepMode mode) noexcept {
  switch (mode) {
    case SweepMode::kSyncFence:
      return "sync";
    case SweepMode::kAsyncFence:
      return "async";
    case SweepMode::kUnfencedUnsafe:
      return "unfenced";
  }
  return "?";
}

SessionStore::SessionStore(tm::TransactionalMemory& tm,
                           SessionStoreConfig config)
    : tm_(&tm) {
  std::size_t buckets = std::bit_ceil(std::max<std::size_t>(config.buckets, 1));
  bucket_shift_ = 64U - static_cast<unsigned>(std::countr_zero(buckets));
  buckets_.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    buckets_.push_back(
        std::make_unique<adt::TxHashMap>(tm, config.bucket_capacity));
  }
}

SessionStore::~SessionStore() {
  // Index blocks are freed by the TxHashMap destructors; live records
  // would leak heap blocks, which is fine for teardown (the owning TM's
  // arena dies with it) — a graceful shutdown sweeps with now = ∞ first.
}

SessionStore::PutStatus SessionStore::put(tm::TmThread& session,
                                          tm::Value key,
                                          std::uint64_t expiry,
                                          std::size_t payload_cells,
                                          tm::Value tag) {
  assert(key != 0 && key != adt::TxHashMap::kTombstone);
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  const tm::TxHandle record =
      session.tm_alloc(kHeaderCells + payload_cells);
  // Pre-publication NT fill: the block is unreachable until the publish
  // transaction commits, and that commit orders these writes before any
  // transactional reader that finds the index entry (the publication
  // idiom, Fig 2). The writes are sequenced before the commit's release
  // stores, so each is a plain release store — no full barrier per cell.
  session.nt_write(record.loc(0), key);
  session.nt_write(record.loc(1), static_cast<tm::Value>(expiry));
  session.nt_write(record.loc(2), tag);
  for (std::size_t i = 0; i < payload_cells; ++i) {
    session.nt_write(record.loc(kHeaderCells + i),
                     payload_cell(key, tag, i));
  }

  bool ok = false;
  tm::Value replaced = 0;
  bucket.run_unfrozen(session, [&](tm::TxScope& tx) {
    replaced = 0;
    ok = bucket.put_in(tx, key, encode(record), &replaced);
  }, retry_);
  if (!ok) {
    session.tm_free(record);  // never published
    return PutStatus::kFull;
  }
  if (replaced != 0) {
    // The displaced record is unlinked as of the commit; tm_free's grace
    // period covers readers whose transactions were still in flight.
    session.tm_free(decode(replaced));
  }
  return PutStatus::kOk;
}

SessionStore::GetResult SessionStore::get(tm::TmThread& session,
                                          tm::Value key,
                                          std::uint64_t now) {
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  GetResult result;
  bucket.run_unfrozen(session, [&](tm::TxScope& tx) {
    result = GetResult{};
    const auto encoded = bucket.get_in(tx, key);
    if (!encoded.has_value()) return;  // miss
    const tm::TxHandle record = decode(*encoded);
    const auto expiry =
        static_cast<std::uint64_t>(tx.read(record.loc(1)));
    if (expiry <= now) return;  // expired: a miss until the sweep runs
    result.hit = true;
    result.tag = tx.read(record.loc(2));
    result.payload_cells = record.size - kHeaderCells;
    // Sample the payload (first and last cells) and verify against the
    // header — opacity makes any committed snapshot consistent, so a
    // mismatch here is store corruption, not benign concurrency.
    const tm::Value rkey = tx.read(record.loc(0));
    const tm::Value first = tx.read(record.loc(kHeaderCells));
    const tm::Value last = tx.read(record.loc(record.size - 1));
    result.consistent =
        rkey == key && first == payload_cell(key, result.tag, 0) &&
        last == payload_cell(key, result.tag, result.payload_cells - 1);
  }, retry_);
  return result;
}

bool SessionStore::touch(tm::TmThread& session, tm::Value key,
                         std::uint64_t expiry) {
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  bool found = false;
  bucket.run_unfrozen(session, [&](tm::TxScope& tx) {
    found = false;
    const auto encoded = bucket.get_in(tx, key);
    if (!encoded.has_value()) return;
    tx.write(decode(*encoded).loc(1), static_cast<tm::Value>(expiry));
    found = true;
  }, retry_);
  return found;
}

bool SessionStore::erase(tm::TmThread& session, tm::Value key) {
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  bool found = false;
  tm::Value removed = 0;
  bucket.run_unfrozen(session, [&](tm::TxScope& tx) {
    removed = 0;
    found = bucket.erase_in(tx, key, &removed);
  }, retry_);
  if (found) session.tm_free(decode(removed));
  return found;
}

void SessionStore::find_expired(tm::TmThread& session, std::size_t bucket,
                                std::uint64_t now,
                                std::vector<std::size_t>& expired,
                                std::uint64_t& live) const {
  const adt::TxHashMap& map = *buckets_[bucket];
  expired.clear();
  live = 0;
  for (std::size_t lo = 0; lo < map.capacity(); lo += kFindChunkSlots) {
    const std::size_t hi = std::min(lo + kFindChunkSlots, map.capacity());
    const std::size_t mark = expired.size();
    std::uint64_t chunk_live = 0;
    map.run_unfrozen(session, [&](tm::TxScope& tx) {
      expired.resize(mark);
      chunk_live = 0;
      for (std::size_t slot = lo; slot < hi; ++slot) {
        const tm::Value k = tx.read(map.key_loc(slot));
        if (k == 0 || k == adt::TxHashMap::kTombstone) continue;
        const tm::Value v = tx.read(map.value_loc(slot));
        if (tx.aborted()) return;  // a 0 from an aborted read is no handle
        ++chunk_live;
        const auto expiry =
            static_cast<std::uint64_t>(tx.read(decode(v).loc(1)));
        if (expiry <= now) expired.push_back(slot);
      }
    });
    live += chunk_live;
  }
}

void SessionStore::reclaim_privatized(tm::TmThread& session,
                                      std::size_t bucket,
                                      const std::vector<std::size_t>& slots,
                                      std::uint64_t now, SweepStats& stats) {
  const adt::TxHashMap& map = *buckets_[bucket];
  for (const std::size_t slot : slots) {
    const tm::Value k = session.nt_read(map.key_loc(slot));
    if (k == 0 || k == adt::TxHashMap::kTombstone) continue;
    const tm::TxHandle record =
        decode(session.nt_read(map.value_loc(slot)));
    const auto expiry =
        static_cast<std::uint64_t>(session.nt_read(record.loc(1)));
    if (expiry > now) continue;
    // Expired: unlink with an NT tombstone (the bucket is privatized —
    // we own its slots), then the privatization-safe deferred free.
    session.nt_write(map.key_loc(slot), adt::TxHashMap::kTombstone);
    session.tm_free(record);
    ++stats.retired;
  }
}

SessionStore::SweepStats SessionStore::sweep_expired(
    tm::TmThread& session, std::uint64_t now, SweepMode mode,
    rt::LatencyHistogram* per_bucket_ns) {
  SweepStats stats;
  // Sweep-phase spans land on the sweeper's own session slot (this thread
  // is the slot's sole producer — the SPSC contract); a32 = bucket index,
  // so a trace viewer can line up the freeze/fence/reclaim/republish
  // phases per bucket. Only privatized buckets emit them.
  rt::TraceDomain* const trace = tm_->trace_ptr();
  const std::size_t tslot = session.stat_slot();
  const auto emit = [&](rt::TraceEventKind kind, std::size_t bucket) {
    if (trace != nullptr) {
      trace->emit(tslot, kind, 0, static_cast<std::uint32_t>(bucket));
    }
  };
  std::vector<std::size_t> slots;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t start = now_ns();
    // Find: short read-only transactions pick the expired slots, so a
    // bucket with none is never frozen or fenced. A chunk that meets a
    // bucket frozen by another privatizer waits it out (run_unfrozen).
    std::uint64_t live = 0;
    find_expired(session, b, now, slots, live);
    stats.scanned += live;
    if (!slots.empty()) {
      // Privatize: freeze → fence → NT re-check and reclaim → republish.
      // The sweep holds one bucket frozen at a time, and only for that
      // bucket's own fence and re-check.
      emit(rt::TraceEventKind::kSweepFreezeBegin, b);
      buckets_[b]->freeze(session, next_freeze_token());
      emit(rt::TraceEventKind::kSweepFreezeEnd, b);
      switch (mode) {
        case SweepMode::kSyncFence:
          emit(rt::TraceEventKind::kSweepFenceBegin, b);
          session.fence();
          emit(rt::TraceEventKind::kSweepFenceEnd, b);
          break;
        case SweepMode::kAsyncFence: {
          emit(rt::TraceEventKind::kSweepFenceBegin, b);
          const rt::FenceTicket ticket = session.fence_async();
          session.fence_wait(ticket);
          emit(rt::TraceEventKind::kSweepFenceEnd, b);
          break;
        }
        case SweepMode::kUnfencedUnsafe:
          // No fence: the NT re-check races with delayed commits of
          // transactions that probed this bucket before the freeze. The
          // service litmus tests exist to show the checker flagging this.
          break;
      }
      emit(rt::TraceEventKind::kSweepReclaimBegin, b);
      reclaim_privatized(session, b, slots, now, stats);
      emit(rt::TraceEventKind::kSweepReclaimEnd, b);
      emit(rt::TraceEventKind::kSweepRepublishBegin, b);
      buckets_[b]->unfreeze(session);
      emit(rt::TraceEventKind::kSweepRepublishEnd, b);
    }
    ++stats.buckets;
    if (per_bucket_ns != nullptr) per_bucket_ns->record(now_ns() - start);
  }
  return stats;
}

}  // namespace privstm::service
