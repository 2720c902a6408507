// Metric arithmetic of the repo benchmark: a fine-grained latency
// histogram with interpolated quantiles, the "highest percentile with at
// least ten samples beyond it" rule, span self time, and the failed-share
// base. Kept free of any TM dependency so metrics_test can pin it down.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Log-linear histogram of nanosecond values: exact below 128, then 128
/// linear sub-buckets per power of two (bucket width <= 0.8% of the
/// value). quantile() interpolates inside the bucket, so two runs whose
/// distributions differ by less than a bucket still read differently.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kGroups = 40;  // up to ~2^46 ns
  static constexpr std::size_t kBuckets = kGroups * kSub;

  static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63U - static_cast<unsigned>(std::countl_zero(v));
    const std::size_t group = msb - kSubBits + 1;
    if (group >= kGroups) return kBuckets - 1;
    const std::uint64_t sub = (v >> (msb - kSubBits)) - kSub;
    return group * kSub + static_cast<std::size_t>(sub);
  }
  static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
    const std::size_t group = i / kSub;
    const std::uint64_t sub = i % kSub;
    if (group == 0) return sub;
    return (kSub + sub) << (group - 1);
  }
  static constexpr std::uint64_t bucket_width(std::size_t i) noexcept {
    const std::size_t group = i / kSub;
    return group == 0 ? 1 : std::uint64_t{1} << (group - 1);
  }

  void record(std::uint64_t v) noexcept {
    ++counts_[bucket_of(v)];
    ++count_;
  }
  void merge(const Histogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const noexcept { return count_; }

  /// q-quantile (q in [0,1]) by rank q*(n-1), with the samples of the
  /// bucket holding that rank spread evenly across the bucket's width.
  /// 0 on an empty histogram.
  double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(before + c) > rank) {
        const double within = (rank - static_cast<double>(before) + 0.5) /
                              static_cast<double>(c);
        return static_cast<double>(bucket_lower(i)) +
               within * static_cast<double>(bucket_width(i));
      }
      before += c;
    }
    return static_cast<double>(bucket_lower(kBuckets - 1));
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Samples strictly above the p-th percentile of n samples, p given in
/// tenths of a percent (990 = p99): n - ceil(n * p / 1000).
constexpr std::uint64_t samples_beyond(std::uint64_t n,
                                       std::uint32_t p_tenths) noexcept {
  const std::uint64_t at = (n * p_tenths + 999) / 1000;
  return n - at;
}

/// The highest of p50/p90/p99 (tenths of a percent) that has at least ten
/// samples beyond it, never above `cap_tenths`; 0 when even the median has
/// fewer than ten. The benchmark reports tails no higher than p99: p99.9
/// on a 4-vCPU VM is scheduler preemption, not the program.
constexpr std::uint32_t highest_supported_percentile(
    std::uint64_t n, std::uint32_t cap_tenths = 990) noexcept {
  constexpr std::uint32_t kCandidates[] = {990, 900, 500};
  for (const std::uint32_t p : kCandidates) {
    if (p <= cap_tenths && samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

/// The percentile to report when `p_tenths` is asked of n samples: the
/// median always, a tail only as high as ten samples beyond it allow.
constexpr std::uint32_t reported_percentile(std::uint64_t n,
                                            std::uint32_t p_tenths) noexcept {
  const std::uint32_t supported = highest_supported_percentile(n, p_tenths);
  return supported > 500 ? supported : 500;
}

/// A timed interval, nanoseconds on one steady clock.
struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t duration() const noexcept {
    return end > start ? end - start : 0;
  }
};

/// Self time of `parent`: its duration minus the part of it covered by the
/// union of `children` (children may overlap each other or stick out of
/// the parent; only covered parent time is subtracted, once).
inline std::uint64_t self_time(Span parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;  // covered up to here
  for (const Span& c : children) {
    const std::uint64_t s = std::max(c.start, reach);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return parent.duration() - std::min(covered, parent.duration());
}

/// Operation accounting of one run. Every op the benchmark starts is
/// attempted; it then either succeeds or fails, so the failed share is
/// taken over attempted ops, not over successes.
struct OpCounts {
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempted() const noexcept { return succeeded + failed; }
  double failed_share() const noexcept {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(attempted());
  }
};

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
