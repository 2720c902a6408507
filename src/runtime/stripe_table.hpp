// Hashed striped version/lock table — the TM metadata store behind the
// dynamic transactional heap.
//
// The fixed register file sized every backend's per-location metadata at
// construction (one version/lock per RegId). With tm_alloc()/tm_free() the
// location space is unbounded, so metadata moves to a fixed, power-of-two
// array of `rt::VersionedLock` *stripes*; a location maps to its stripe
// with a Fibonacci multiplicative hash (see index_of). This is the classic
// TL2 lock-table design: several locations may share a stripe, which can
// only cause *false conflicts* (spurious aborts), never missed ones — a
// reader validating stripe(x) observes every version bump any writer of x
// performs, plus possibly bumps by writers of stripe-colliding y, which
// over-approximates the conflict relation and is therefore safe.
//
// Why a mixer and not `loc & mask`: the heap's size-class allocator hands
// out stride-aligned blocks (every class-64 block starts 64 cells apart),
// so the same field of equal-sized nodes sits at `base + k·64` — under a
// plain mask those all fold onto a handful of stripes and unrelated
// commits serialize on them (the false-conflict pathology PR 3's ROADMAP
// flagged). Multiplying by 2^64/φ first diffuses every input bit into the
// high bits, which the shift keeps, so stride-aligned patterns spread as
// well as dense ones (regression-tested in heap_test's StripeTable suite).
//
// Region partitioning (DESIGN.md §11): with `regions` > 1 the table splits
// into equal power-of-two regions and a location's region is chosen by
// hashing its 64-cell *window* (loc >> kRegionWindowBits) — so a whole
// allocator block lands in one region, and blocks served by different
// allocator shards tend to validate and lock disjoint cache-line ranges.
// Within a region the original mix spreads locations as before. Correctness
// is unchanged: region choice is a pure function of the location, so every
// writer and reader of `loc` still meets at the same stripe; the split only
// re-partitions which stripes a given address range can occupy. regions=1
// is bit-for-bit the PR 4 single-table mapping.
//
// Stripes are cache-line padded: the table is written on every commit
// lock/release, and unrelated-stripe traffic must not false-share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/cacheline.hpp"
#include "runtime/versioned_lock.hpp"

namespace privstm::rt {

class StripeTable {
 public:
  /// 2^64 / φ (odd): the Fibonacci-hashing multiplier. Odd makes the
  /// multiplication a bijection on 64-bit words — no two locations merge
  /// before the final shift ever truncates.
  static constexpr std::uint64_t kFibMix = 0x9E3779B97F4A7C15ull;

  /// Locations are grouped into 2^6-cell windows for region selection, so
  /// every cell of a size-class block (max class 4096 = 64 windows) spans
  /// few windows and small blocks (the common case) occupy exactly one —
  /// a block's fields validate inside a single region.
  static constexpr unsigned kRegionWindowBits = 6;

  /// Stripe of `loc` in a table of 2^(64 - shift) stripes. Static so TM
  /// hot paths that cache the table geometry in locals/members (the
  /// fused backend) compute the exact same mapping as index_of().
  static std::size_t mix_index(std::uint64_t loc, unsigned shift) noexcept {
    return static_cast<std::size_t>((loc * kFibMix) >> shift);
  }

  /// The full mapping, cacheable by value in backend hot paths (both TL2
  /// backends keep a copy next to the stripe base pointer). index() must
  /// agree exactly with StripeTable::index_of — asserted in shard_test.
  struct Geometry {
    unsigned within_shift = 63;  ///< 64 - log2(stripes per region)
    unsigned per_bits = 1;       ///< log2(stripes per region)
    unsigned region_shift = 64;  ///< 64 - log2(regions); 64 ⇔ regions=1
    unsigned region_bits = 0;    ///< log2(regions)

    std::size_t index(std::uint64_t loc) const noexcept {
      std::size_t idx =
          static_cast<std::size_t>((loc * kFibMix) >> within_shift);
      if (region_bits != 0) {
        const auto region = static_cast<std::size_t>(
            ((loc >> kRegionWindowBits) * kFibMix) >> region_shift);
        idx |= region << per_bits;
      }
      return idx;
    }
  };

  /// `stripes` is the TOTAL table size, rounded up to a power of two
  /// (minimum 2) so the map is one multiply and one shift; `regions` is
  /// likewise rounded to a power of two and clamped so each region keeps
  /// at least two stripes. Collisions only ever *add* conflicts (see file
  /// comment); a pathological workload can still be tuned via
  /// TmConfig::lock_stripes. The TL2-family backends pass the allocator's
  /// effective shard count as `regions`.
  explicit StripeTable(std::size_t stripes, std::size_t regions = 1) {
    std::size_t n = 2;
    unsigned bits = 1;
    while (n < stripes) {
      n <<= 1;
      ++bits;
    }
    std::size_t r = 1;
    unsigned rbits = 0;
    while ((r << 1) <= regions && rbits + 1 < bits) {
      r <<= 1;
      ++rbits;
    }
    table_ = std::vector<CacheAligned<VersionedLock>>(n);
    geometry_.per_bits = bits - rbits;
    geometry_.within_shift = 64 - geometry_.per_bits;
    geometry_.region_bits = rbits;
    geometry_.region_shift = 64 - rbits;  // only read when region_bits != 0
    regions_ = r;
  }

  StripeTable(const StripeTable&) = delete;
  StripeTable& operator=(const StripeTable&) = delete;

  std::size_t stripe_count() const noexcept { return table_.size(); }
  /// Power-of-two region count the table was partitioned into (1 = none).
  std::size_t region_count() const noexcept { return regions_; }
  /// Right-shift applied after the within-region multiply.
  unsigned shift() const noexcept { return geometry_.within_shift; }
  const Geometry& geometry() const noexcept { return geometry_; }

  /// Stripe index of location `loc`.
  std::size_t index_of(std::uint64_t loc) const noexcept {
    return geometry_.index(loc);
  }

  /// Region of location `loc` (0 when the table is unpartitioned).
  std::size_t region_of(std::uint64_t loc) const noexcept {
    if (geometry_.region_bits == 0) return 0;
    return static_cast<std::size_t>(
        ((loc >> kRegionWindowBits) * kFibMix) >> geometry_.region_shift);
  }

  VersionedLock& stripe(std::size_t index) noexcept { return *table_[index]; }
  const VersionedLock& stripe(std::size_t index) const noexcept {
    return *table_[index];
  }

  /// Stripe guarding location `loc`.
  VersionedLock& stripe_for(std::uint64_t loc) noexcept {
    return *table_[index_of(loc)];
  }

  /// Raw entry array (cache-line stride) for hot paths that cache the
  /// base pointer and geometry in locals/members.
  CacheAligned<VersionedLock>* data() noexcept { return table_.data(); }

  /// Clear every stripe to version 0, unlocked. Callers must be quiescent.
  void reset() noexcept {
    for (auto& s : table_) s->reset();
  }

 private:
  std::vector<CacheAligned<VersionedLock>> table_;
  Geometry geometry_;
  std::size_t regions_ = 1;
};

}  // namespace privstm::rt
