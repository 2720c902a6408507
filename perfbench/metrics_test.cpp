// Unit tests of the benchmark's own metric code (metrics.hpp). Plain
// main(): prints each failed check and exits nonzero, so run.py can gate
// every benchmark run on it without a test framework.
#include <cmath>
#include <cstdio>

#include "metrics.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

void test_supported_percentile() {
  using perfbench::highest_supported_percentile;
  using perfbench::samples_beyond;
  check(samples_beyond(1000, 990) == 10, "1000 samples: 10 beyond p99");
  check(samples_beyond(999, 990) == 9, "999 samples: 9 beyond p99");
  check(samples_beyond(100, 900) == 10, "100 samples: 10 beyond p90");
  check(highest_supported_percentile(1000) == 990, "p99 needs 1000");
  check(highest_supported_percentile(999) == 900, "999 falls back to p90");
  check(highest_supported_percentile(100) == 900, "p90 needs 100");
  check(highest_supported_percentile(99) == 500, "99 falls back to p50");
  check(highest_supported_percentile(20) == 500, "p50 needs 20");
  check(highest_supported_percentile(19) == 0, "19 supports nothing");
  check(highest_supported_percentile(0) == 0, "empty supports nothing");
  check(highest_supported_percentile(1000000, 900) == 900, "cap holds");
  using perfbench::reported_percentile;
  check(reported_percentile(5000, 990) == 990, "p99 reported when supported");
  check(reported_percentile(500, 990) == 900, "p99 falls back to p90");
  check(reported_percentile(5, 990) == 500, "a tail never drops below p50");
  check(reported_percentile(5, 500) == 500, "the median is always reported");
}

void test_histogram() {
  perfbench::Histogram h;
  check(h.quantile(0.5) == 0.0, "empty histogram reads 0");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  check(std::fabs(p50 - 500500.0) / 500500.0 < 0.01, "p50 within 1%");
  check(std::fabs(p99 - 990010.0) / 990010.0 < 0.01, "p99 within 1%");
  check(p50 < p99, "quantiles are monotone");
  perfbench::Histogram a, b;
  a.record(10);
  b.record(20);
  a.merge(b);
  check(a.count() == 2 && a.quantile(0.0) < 11.0 && a.quantile(1.0) >= 20.0,
        "merge adds both sides' samples");
  perfbench::Histogram exact;
  for (int i = 0; i < 7; ++i) exact.record(42);
  check(exact.quantile(0.5) >= 42.0 && exact.quantile(0.5) < 43.0,
        "exact small values stay inside their unit bucket");
}

void test_self_time() {
  using perfbench::self_time;
  using perfbench::Span;
  check(self_time({100, 200}, {}) == 100, "no children: all self");
  check(self_time({100, 200}, {{110, 130}, {150, 160}}) == 70,
        "disjoint children subtract");
  check(self_time({100, 200}, {{110, 150}, {140, 170}}) == 40,
        "overlapping children count once");
  check(self_time({100, 200}, {{50, 120}, {190, 260}}) == 70,
        "children are clipped to the parent");
  check(self_time({100, 200}, {{150, 160}, {110, 130}}) == 70,
        "unsorted children");
  check(self_time({100, 200}, {{0, 300}}) == 0, "fully covered parent");
}

void test_failed_share() {
  perfbench::OpCounts c;
  check(c.failed_share() == 0.0, "no ops: share 0");
  c.succeeded = 95;
  c.failed = 5;
  check(c.attempted() == 100, "attempted = succeeded + failed");
  check(c.failed_share() == 0.05, "share is over attempted, not succeeded");
}

void test_median() {
  check(perfbench::median({}) == 0.0, "empty median");
  check(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
}

}  // namespace

int main() {
  test_supported_percentile();
  test_histogram();
  test_self_time();
  test_failed_share();
  test_median();
  if (g_failures != 0) {
    std::printf("metrics_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("metrics_test: all checks passed\n");
  return 0;
}
