#include "tm/alloc/allocator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace privstm::tm::alloc {

namespace {

/// Class + backing-extent size for a request of `n` cells under this
/// instance's table bound. alloc and free both call this with the same
/// input (free uses TxHandle::size), so they always agree on the extent.
struct Rounded {
  std::size_t cls;
  std::uint32_t storage;
};

Rounded round_request(std::size_t n, std::uint32_t max_class) noexcept {
  const std::size_t c = class_of(n);
  if (c != kHugeClass) {
    const std::uint32_t s = class_size(c);
    if (s <= max_class) return {c, s};
  }
  return {kHugeClass, static_cast<std::uint32_t>(n)};
}

constexpr std::size_t kUnsetShard = static_cast<std::size_t>(-1);

// Bump-pointer cells skip the alloc-time scrub: the arena is zero-filled
// (fresh mapping, reset() memsets what was touched) and never written
// past the bump pointer.
static_assert(hist::kVInit == 0, "bump-fresh cells must read as vinit");

/// Process-wide home-shard ordinals: each thread draws one on first use
/// and keeps it for life, so its home is stable across allocator
/// instances (the instance masks the ordinal by its own shard count).
std::atomic<std::size_t> g_home_counter{0};
thread_local std::size_t t_home_ordinal = kUnsetShard;
thread_local std::size_t t_home_override = kUnsetShard;

}  // namespace

std::size_t TxAllocator::home_shard() const noexcept {
  if (t_home_override != kUnsetShard) {
    return t_home_override & (shard_count_ - 1);
  }
  if (t_home_ordinal == kUnsetShard) {
    t_home_ordinal = g_home_counter.fetch_add(1, std::memory_order_relaxed);
  }
  return t_home_ordinal & (shard_count_ - 1);
}

void TxAllocator::bind_home_shard(std::size_t shard) noexcept {
  t_home_override = shard;  // kNoHomeShard == kUnsetShard unpins
}

TxAllocator::TxAllocator(std::size_t static_prefix, std::size_t max_locations,
                         rt::QuiescenceManager& qm,
                         std::atomic<Value>* cells, const AllocConfig& config)
    : qm_(qm),
      static_prefix_(static_prefix),
      max_locations_(max_locations),
      cells_(cells),
      config_(config),
      shard_count_(config.effective_shards()),
      shard_bits_(static_cast<unsigned>(std::bit_width(shard_count_) - 1)),
      limbo_(qm),
      bump_(static_prefix) {
  if (static_prefix > max_locations) std::abort();  // configuration error
}

TxAllocator::~TxAllocator() {
  // Sever every live cache's link: the arena dies with us, so cached
  // blocks need no flushing — but a later thread-exit flush must find no
  // owner to write into.
  std::lock_guard<std::mutex> link(cache_link_mutex());
  for (ThreadCache* c : caches_) {
    for (auto& m : c->mags_) m.clear();
    c->batch_.clear();
    c->counters_.reset();
    c->owner_.store(nullptr, std::memory_order_release);
  }
  caches_.clear();
}

TxHandle TxAllocator::alloc(std::size_t n) {
  assert(n > 0 && "zero-sized transactional allocation");
  // Release-mode n == 0 degrades to the (never-valid) null handle rather
  // than feeding 0 into the class table.
  if (n == 0) return kNullTxHandle;
  // Reject before the uint32 narrowing below: a silently truncated size
  // could match a small free block and hand back far less memory than
  // requested (and `bump_ + n` could wrap past the arena guard).
  if (n > max_locations_) std::abort();  // configuration error
  const Rounded r = round_request(n, config_.max_class_size);
  ThreadCache* cache = nullptr;
  if (config_.magazine_size > 0) {
    cache = &local_cache(*this);
    revalidate_cache(*cache);
    if (r.cls != kHugeClass) {
      auto& mag = cache->mags_[r.cls];
      if (!mag.empty()) {
        // The whole fast path: two thread-local vector ops, no lock.
        const RegId base = mag.back();
        mag.pop_back();
        CacheCounters::bump(cache->counters_.allocs);
        CacheCounters::bump(cache->counters_.magazine_hits);
        scrub(base, n);
        return TxHandle{base, static_cast<std::uint32_t>(n)};
      }
    }
  }
  bool fresh = false;
  const RegId base = alloc_slow(cache, r.cls, r.storage, fresh);
  if (!fresh) scrub(base, n);
  if (cache != nullptr) {
    CacheCounters::bump(cache->counters_.allocs);
  } else {
    base_allocs_.fetch_add(1, std::memory_order_relaxed);
  }
  return TxHandle{base, static_cast<std::uint32_t>(n)};
}

std::size_t TxAllocator::take_from_shards(std::size_t home,
                                          std::uint32_t storage,
                                          std::size_t cls, std::size_t want,
                                          RegId& first,
                                          std::vector<RegId>* mag,
                                          bool count_refill) {
  std::size_t got = 0;
  {
    AllocShard& h = shards_[home];
    std::lock_guard<rt::SpinLock> g(h.lock);
    if (count_refill) {
      // Slot = home shard id, written only under this shard's lock: the
      // per-slot single-writer discipline StatsDomain requires.
      qm_.count(home, rt::Counter::kAllocSharedRefill);
      if (trace_ != nullptr) {
        trace_->emit_alloc(rt::TraceEventKind::kAllocRefill, 0,
                           static_cast<std::uint32_t>(home));
      }
    }
    while (got < want) {
      const RegId b = h.bins.take(storage, cls);
      if (b == hist::kNoReg) break;
      if (first == hist::kNoReg) {
        first = b;
      } else {
        mag->push_back(b);
      }
      ++got;
    }
    publish_mirrors(h);
  }
  // Home dry (or short): steal from siblings in ring order. Each steal
  // holds exactly one sibling lock; the victim's slot counts the steal.
  const std::uint32_t cls_bit = std::uint32_t{1} << cls;
  for (std::size_t d = 1; d < shard_count_ && got < want; ++d) {
    const std::size_t victim = (home + d) & (shard_count_ - 1);
    AllocShard& s = shards_[victim];
    // Occupancy hint: skip siblings that a moment ago provably had no
    // blocks of this class rather than paying a lock round-trip to learn
    // the same thing. A stale hint only costs a futile probe or a missed
    // steal (the request then falls through to the central tier).
    if ((s.occupancy.load(std::memory_order_relaxed) & cls_bit) == 0) {
      continue;
    }
    std::lock_guard<rt::SpinLock> g(s.lock);
    std::uint64_t stolen = 0;
    while (got < want) {
      const RegId b = s.bins.take(storage, cls);
      if (b == hist::kNoReg) break;
      if (first == hist::kNoReg) {
        first = b;
      } else {
        mag->push_back(b);
      }
      ++got;
      ++stolen;
    }
    if (stolen != 0) {
      s.steals += stolen;
      qm_.count(victim, rt::Counter::kAllocShardSteal, stolen);
      if (trace_ != nullptr) {
        trace_->emit_alloc(rt::TraceEventKind::kAllocSteal, 0,
                           static_cast<std::uint32_t>(victim), stolen);
      }
    }
    publish_mirrors(s);
  }
  return got;
}

void TxAllocator::scrub(RegId base, std::size_t n) noexcept {
  // The block's last owner may have left anything here; the caller is
  // about to write these lines anyway (SessionStore::put fills every
  // cell), so the stores land in cache the fill then hits.
  std::atomic<Value>* const c = cells_ + static_cast<std::size_t>(base);
  for (std::size_t i = 0; i < n; ++i) {
    c[i].store(hist::kVInit, std::memory_order_relaxed);
  }
}

RegId TxAllocator::alloc_slow(ThreadCache* cache, std::size_t cls,
                              std::uint32_t storage, bool& fresh) {
  refills_.fetch_add(1, std::memory_order_relaxed);
  const bool binned = cls != kHugeClass;
  std::vector<RegId>* mag =
      (cache != nullptr && binned) ? &cache->mags_[cls] : nullptr;
  const std::size_t want =
      mag != nullptr
          ? std::min(config_.magazine_size,
                     std::max<std::size_t>(1, kRefillCellBudget / storage))
          : 1;
  RegId first = hist::kNoReg;
  std::size_t got = 0;
  const std::size_t home = home_shard();
  if (binned) {
    // Tier 1+2: home bins, then sibling steal — no central lock. Serving
    // the request is what matters; a partial magazine is fine.
    got = take_from_shards(home, storage, cls, want, first, mag, true);
    if (first != hist::kNoReg) return first;
  } else {
    // Huge requests skip the shard tier, but the refill tick follows the
    // same slot-under-home-lock discipline as the binned path (counting
    // under the central lock instead would race shard 0's writer).
    AllocShard& h = shards_[home];
    std::lock_guard<rt::SpinLock> g(h.lock);
    qm_.count(home, rt::Counter::kAllocSharedRefill);
    if (trace_ != nullptr) {
      trace_->emit_alloc(rt::TraceEventKind::kAllocRefill, 0,
                         static_cast<std::uint32_t>(home));
    }
  }
  // Tier 3: the central lock — seal + retire housekeeping, extent map,
  // bounded compaction, bump pointer. Loops only when the arena is at
  // its cap: then it waits out the oldest limbo batch and retries.
  for (;;) {
    rt::FenceTicket front = rt::kNullFenceTicket;
    {
      std::lock_guard<rt::SpinLock> guard(central_lock_);
      // Injection site: a bounded delay here stretches the central-lock
      // hold time, the allocator's cross-thread choke point of last
      // resort.
      if (fault_ != nullptr) {
        fault_->maybe_delay(0, rt::FaultSite::kAllocRefill);
      }
      if (cache != nullptr) seal_batch_locked(*cache);
      retire_limbo_locked();
      if (binned) {
        // Retired blocks just landed in the shard bins; retry the whole
        // tier (shard locks nest under the central lock — see the lock
        // order in the file comment).
        got = take_from_shards(home, storage, cls, want, first, mag, false);
        if (first != hist::kNoReg && got >= want) return first;
      }
      bool capped = false;
      while (got < want) {
        RegId b = extents_.take(storage);
        if (b == hist::kNoReg && got == 0 && shard_bin_cells() >= storage) {
          // Compaction runs only for the request itself (never the
          // optional prefetch), only when the bins provably hold enough
          // cells, and one bounded, counted step at a time until the
          // take fits or the bins run dry.
          while (compact_step_locked() != 0) {
            b = extents_.take(storage);
            if (b != hist::kNoReg) break;
          }
        }
        if (b == hist::kNoReg) {
          if (bump_ + storage > max_locations_) {
            capped = true;
            break;
          }
          b = static_cast<RegId>(bump_);
          bump_ += storage;
          if (first == hist::kNoReg) fresh = true;
        }
        if (first == hist::kNoReg) {
          first = b;
        } else {
          mag->push_back(b);
        }
        ++got;
      }
      if (!capped || got > 0) return first;  // the prefetch is optional
      // The request itself hit the arena cap. Blocks still in limbo will
      // come back once their grace period ends; with none there, the
      // arena is genuinely too small (configuration error).
      if (limbo_.empty()) std::abort();
      front = limbo_.front_ticket();
      qm_.count(0, rt::Counter::kAllocCapWait);
      if (trace_ != nullptr) {
        trace_->emit_alloc(rt::TraceEventKind::kAllocCapWait, 0, storage,
                           limbo_.pending_blocks());
      }
    }
    // Outside the central lock, so frees and retires go on meanwhile.
    // The caller must not be inside a transaction: its own would hold
    // the grace period open forever.
    while (!qm_.try_elapse_ticket(front)) std::this_thread::yield();
  }
}

void TxAllocator::put_shared_locked(RegId base, std::uint32_t storage,
                                    std::size_t cls) {
  if (cls == kHugeClass) {
    extents_.insert(base, storage);
    return;
  }
  AllocShard& s = shards_[shard_of(base)];
  std::lock_guard<rt::SpinLock> g(s.lock);
  s.bins.put(base, storage, cls);
  publish_mirrors(s);
}

std::size_t TxAllocator::retire_limbo_locked() {
  // The cheap front check keeps a pass with nothing to retire out of the
  // trace: the span brackets actual retirement work only.
  if (!limbo_.front_elapsed()) return 0;
  if (trace_ != nullptr) {
    trace_->emit_alloc(rt::TraceEventKind::kLimboRetireBegin);
  }
  const std::uint64_t batches_before = limbo_.batches_retired();
  const std::size_t n = limbo_.retire(retired_);
  // Pass 1 (no shard locks): route huge blocks straight to the extent
  // map and note which shards the binned blocks belong to. No cell is
  // written here — alloc() scrubs what it hands out.
  std::uint64_t shard_mask = 0;
  for (const LimboBlock& b : retired_) {
    if (b.cls == kHugeClass) {
      extents_.insert(b.base, b.storage);
    } else {
      shard_mask |= std::uint64_t{1} << shard_of(b.base);
    }
  }
  // Pass 2: one lock acquisition per *shard* with retired blocks — a
  // batch of same-shard blocks (the common churn shape) pays a single
  // lock round-trip, not one per block.
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if ((shard_mask & (std::uint64_t{1} << s)) == 0) continue;
    AllocShard& sh = shards_[s];
    std::lock_guard<rt::SpinLock> g(sh.lock);
    for (const LimboBlock& b : retired_) {
      if (b.cls != kHugeClass && shard_of(b.base) == s) {
        sh.bins.put(b.base, b.storage, b.cls);
      }
    }
    publish_mirrors(sh);
  }
  retired_.clear();
  if (trace_ != nullptr) {
    // a32 = batches, a64 = blocks handed back to the shard bins / extent
    // map by this pass.
    trace_->emit_alloc(
        rt::TraceEventKind::kLimboRetireEnd, 0,
        static_cast<std::uint32_t>(limbo_.batches_retired() - batches_before),
        static_cast<std::uint64_t>(n));
  }
  return n;
}

std::size_t TxAllocator::compact_step_locked() {
  std::size_t spilled = 0;
  for (std::size_t probe = 0; probe < shard_count_; ++probe) {
    AllocShard& s = shards_[compact_cursor_];
    std::lock_guard<rt::SpinLock> g(s.lock);
    spilled += s.bins.spill(extents_, kCompactionSpillBudget - spilled);
    publish_mirrors(s);
    if (s.bins.cells() != 0) break;  // budget spent mid-shard; resume here
    compact_cursor_ = (compact_cursor_ + 1) % shard_count_;
    if (spilled >= kCompactionSpillBudget) break;
  }
  if (spilled != 0) {
    ++compactions_;
    qm_.count(0, rt::Counter::kAllocCompaction);
    if (trace_ != nullptr) {
      trace_->emit_alloc(rt::TraceEventKind::kAllocCompaction, 0, 0,
                         static_cast<std::uint64_t>(spilled));
    }
  }
  return spilled;
}

std::size_t TxAllocator::shard_bin_cells() const {
  // Lock-free: sums the per-shard mirrors instead of taking every shard
  // lock. alloc_slow consults this on each central-tier extent miss, so
  // the shard tier must not be stopped just to size up compaction.
  std::size_t sum = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    sum += shards_[i].cell_mirror.load(std::memory_order_relaxed);
  }
  return sum;
}

void TxAllocator::free(TxHandle h) {
  if (!h.valid()) return;
  assert(static_cast<std::size_t>(h.base) >= static_prefix_ &&
         "freeing the static register prefix");
  const Rounded r = round_request(h.size, config_.max_class_size);
  if (config_.magazine_size > 0) {
    ThreadCache& cache = local_cache(*this);
    revalidate_cache(cache);
    CacheCounters::bump(cache.counters_.frees);
    cache.batch_.push_back(
        {h.base, r.storage, static_cast<std::uint32_t>(r.cls)});
    CacheCounters::bump(cache.counters_.pending);
    // Huge blocks seal immediately: parking thousands of cells behind an
    // idle thread's unsealed batch would leak them in practice.
    if (cache.batch_.size() >= config_.limbo_batch ||
        r.cls == kHugeClass) {
      std::lock_guard<rt::SpinLock> guard(central_lock_);
      seal_batch_locked(cache);
      retire_limbo_locked();
    }
    return;
  }
  base_frees_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  unbatched_.push_back({h.base, r.storage, static_cast<std::uint32_t>(r.cls)});
  limbo_.seal(unbatched_);
  retire_limbo_locked();
}

void TxAllocator::seal_batch_locked(ThreadCache& cache) {
  if (cache.batch_.empty()) return;
  // The seal hands back a drained buffer, so the next batch grows into
  // recycled capacity instead of a fresh allocation.
  limbo_.seal(cache.batch_);
  cache.counters_.pending.store(0, std::memory_order_relaxed);
}

std::size_t TxAllocator::drain_limbo() {
  ThreadCache* cache =
      config_.magazine_size > 0 ? &local_cache(*this) : nullptr;
  if (cache != nullptr) revalidate_cache(*cache);
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  if (cache != nullptr) seal_batch_locked(*cache);
  return retire_limbo_locked();
}

void TxAllocator::reset() {
  std::lock_guard<std::mutex> link(cache_link_mutex());
  // Bump the registry epoch first, then clear every registered cache in
  // place (callers are quiescent). The epoch makes the clear robust: a
  // cache this sweep somehow missed discards its stale contents on next
  // use instead of handing out pre-reset blocks.
  const std::uint64_t epoch =
      reset_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (ThreadCache* c : caches_) {
    for (auto& m : c->mags_) m.clear();
    c->batch_.clear();
    c->counters_.reset();
    c->epoch_ = epoch;
  }
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  limbo_.clear();
  extents_.clear();
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<rt::SpinLock> g(shards_[i].lock);
    shards_[i].bins.clear();
    shards_[i].steals = 0;
    publish_mirrors(shards_[i]);
  }
  compactions_ = 0;
  compact_cursor_ = 0;
  retired_.clear();
  // Only [0, bump_) can ever have been written (all accesses go through
  // allocated locations or the static prefix).
  std::memset(static_cast<void*>(cells_), 0, bump_ * sizeof(Value));
  bump_ = static_prefix_;
  refills_.store(0, std::memory_order_relaxed);
  base_allocs_.store(0, std::memory_order_relaxed);
  base_frees_.store(0, std::memory_order_relaxed);
  base_hits_.store(0, std::memory_order_relaxed);
}

void TxAllocator::revalidate_cache(ThreadCache& cache) {
  if (cache.epoch_ == reset_epoch_.load(std::memory_order_relaxed)) return;
  // A reset() ran since this cache last touched the allocator: its
  // contents name pre-reset blocks. Drop them — flushing would poison
  // the fresh store.
  for (auto& m : cache.mags_) m.clear();
  cache.batch_.clear();
  cache.counters_.reset();
  cache.epoch_ = reset_epoch_.load(std::memory_order_relaxed);
}

void TxAllocator::register_cache(ThreadCache& cache) {
  std::lock_guard<std::mutex> link(cache_link_mutex());
  for (auto& m : cache.mags_) m.clear();
  cache.batch_.clear();
  cache.counters_.reset();
  cache.epoch_ = reset_epoch_.load(std::memory_order_relaxed);
  cache.owner_.store(this, std::memory_order_release);
  caches_.push_back(&cache);
}

void TxAllocator::flush_cache(ThreadCache& cache, bool into_store) {
  // Link mutex held by the caller (thread-exit path).
  if (into_store) {
    std::lock_guard<rt::SpinLock> guard(central_lock_);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      // Magazine blocks already passed their grace period — straight
      // back into their home shards' class bins.
      for (const RegId base : cache.mags_[c]) {
        put_shared_locked(base, class_size(c), c);
      }
      cache.mags_[c].clear();
    }
    seal_batch_locked(cache);
    retire_limbo_locked();
  } else {
    for (auto& m : cache.mags_) m.clear();
    cache.batch_.clear();
  }
  base_allocs_.fetch_add(cache.counters_.allocs.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  base_frees_.fetch_add(cache.counters_.frees.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  base_hits_.fetch_add(
      cache.counters_.magazine_hits.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  cache.counters_.reset();
  std::erase(caches_, &cache);
  cache.owner_.store(nullptr, std::memory_order_release);
}

std::size_t TxAllocator::limbo_size() const {
  std::lock_guard<std::mutex> link(cache_link_mutex());
  std::uint64_t unsealed = 0;
  for (const ThreadCache* c : caches_) {
    unsealed += c->counters_.pending.load(std::memory_order_relaxed);
  }
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  return limbo_.pending_blocks() + static_cast<std::size_t>(unsealed);
}

std::uint64_t TxAllocator::alloc_count() const {
  std::lock_guard<std::mutex> link(cache_link_mutex());
  std::uint64_t sum = base_allocs_.load(std::memory_order_relaxed);
  for (const ThreadCache* c : caches_) {
    sum += c->counters_.allocs.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t TxAllocator::free_count() const {
  std::lock_guard<std::mutex> link(cache_link_mutex());
  std::uint64_t sum = base_frees_.load(std::memory_order_relaxed);
  for (const ThreadCache* c : caches_) {
    sum += c->counters_.frees.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t TxAllocator::magazine_hit_count() const {
  std::lock_guard<std::mutex> link(cache_link_mutex());
  std::uint64_t sum = base_hits_.load(std::memory_order_relaxed);
  for (const ThreadCache* c : caches_) {
    sum += c->counters_.magazine_hits.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t TxAllocator::reclaimed_count() const {
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  return limbo_.blocks_retired();
}

std::uint64_t TxAllocator::refill_count() const {
  return refills_.load(std::memory_order_relaxed);
}

std::uint64_t TxAllocator::batch_retired_count() const {
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  return limbo_.batches_retired();
}

std::uint64_t TxAllocator::compaction_count() const {
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  return compactions_;
}

std::uint64_t TxAllocator::steal_count() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<rt::SpinLock> g(shards_[i].lock);
    sum += shards_[i].steals;
  }
  return sum;
}

std::size_t TxAllocator::free_cells() const {
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  return extents_.free_cells() + shard_bin_cells();
}

std::size_t TxAllocator::allocated_end() const {
  std::lock_guard<rt::SpinLock> guard(central_lock_);
  return bump_;
}

}  // namespace privstm::tm::alloc
