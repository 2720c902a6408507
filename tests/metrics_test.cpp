// Metrics registry + exporter tests (DESIGN.md §13): counter naming is
// total (unique and non-empty for every Counter), snapshots report counter
// totals, and the JSON / Prometheus exporters carry the series the ci.sh
// smoke greps for.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "runtime/metrics.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace privstm {
namespace {

using rt::Counter;
using rt::kCounterCount;

TEST(Metrics, CounterNamesUniqueAndNonEmpty) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const char* name = rt::counter_name(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr) << "counter " << i;
    EXPECT_STRNE(name, "") << "counter " << i;
    EXPECT_STRNE(name, "?") << "counter " << i << " missing a name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate counter name: " << name;
  }
  // The name ci.sh greps the exposition for is load-bearing.
  EXPECT_STREQ(rt::counter_name(Counter::kTxCommit), "tx_commits");
}

TEST(Metrics, PrometheusNamesUniqueAndNonEmpty) {
  // The exposition turns every counter name into one `privstm_<name>_total`
  // series; each must be a legal, distinct Prometheus metric name.
  rt::StatsDomain stats;
  rt::MetricsRegistry reg;
  reg.add_counters(&stats);
  const rt::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), kCounterCount);
  const std::string prom = rt::to_prometheus(snap);
  std::set<std::string> seen;
  for (const auto& row : snap.counters) {
    ASSERT_FALSE(row.name.empty());
    for (const char ch : row.name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
                  ch == '_')
          << "illegal prometheus name: " << row.name;
    }
    const std::string series = "privstm_" + row.name + "_total";
    EXPECT_TRUE(seen.insert(series).second)
        << "duplicate prometheus name: " << series;
    EXPECT_NE(prom.find("\n" + series + " 0\n"), std::string::npos)
        << series << " missing from\n" << prom;
  }
}

TEST(Metrics, SnapshotReportsCountersAndMarkDeltas) {
  rt::StatsDomain stats;
  stats.add(0, Counter::kTxCommit, 10);
  stats.add(1, Counter::kTxAbort, 3);

  rt::MetricsRegistry reg;
  reg.add_counters(&stats);

  auto find = [](const rt::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& row : snap.counters) {
      if (row.name == name) return row.value;
    }
    return std::uint64_t{0};
  };

  // Totals: every real counter appears, summed across slots.
  const rt::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), kCounterCount);
  EXPECT_EQ(find(snap, "tx_commits"), 10u);
  EXPECT_EQ(find(snap, "tx_aborts"), 3u);
}

TEST(Metrics, HistogramAndGaugeRows) {
  rt::LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<std::uint64_t>(i));

  rt::MetricsRegistry reg;
  reg.add_histogram("op_latency", &hist);
  reg.add_gauge("arena_cells", [] { return 42.0; });

  const rt::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "op_latency");
  EXPECT_EQ(snap.histograms[0].count, 1000u);
  EXPECT_LE(snap.histograms[0].p50, snap.histograms[0].p99);
  EXPECT_LE(snap.histograms[0].p99, snap.histograms[0].p999);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "arena_cells");
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 42.0);
}

TEST(Metrics, HeatMapRowsFromTraceDomain) {
  rt::TraceConfig cfg;
  cfg.enabled = true;
  cfg.heat_stripes = 64;
  cfg.top_n = 2;
  rt::TraceDomain trace(cfg);
  for (int i = 0; i < 7; ++i) trace.note_conflict(5);
  for (int i = 0; i < 3; ++i) trace.note_conflict(9);
  trace.note_conflict(1);
  trace.note_conflict(rt::kNoStripe);  // must be ignored

  rt::MetricsRegistry reg;
  reg.set_trace(&trace);
  const rt::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.total_conflicts, 11u);
  // top_n = 2: the two hottest stripes, descending.
  ASSERT_EQ(snap.hot_stripes.size(), 2u);
  EXPECT_EQ(snap.hot_stripes[0].stripe, 5u);
  EXPECT_EQ(snap.hot_stripes[0].aborts, 7u);
  EXPECT_EQ(snap.hot_stripes[1].stripe, 9u);
  EXPECT_EQ(snap.hot_stripes[1].aborts, 3u);
}

TEST(Metrics, ExportersCarryTheSmokeSeries) {
  rt::StatsDomain stats;
  stats.add(0, Counter::kTxCommit, 4824);

  rt::TraceConfig cfg;
  cfg.enabled = true;
  cfg.heat_stripes = 16;
  rt::TraceDomain trace(cfg);
  trace.note_conflict(3);

  rt::LatencyHistogram hist;
  hist.record(100);

  rt::MetricsRegistry reg;
  reg.add_counters(&stats);
  reg.set_trace(&trace);
  reg.add_histogram("get_latency", &hist);
  reg.add_gauge("arena_cells", [] { return 7.0; });
  const rt::MetricsSnapshot snap = reg.snapshot();

  const std::string prom = rt::to_prometheus(snap);
  EXPECT_NE(prom.find("privstm_tx_commits_total 4824"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("privstm_stripe_aborts{stripe=\"3\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("privstm_get_latency_ns"), std::string::npos) << prom;
  EXPECT_NE(prom.find("privstm_conflicts_total 1"), std::string::npos)
      << prom;

  const std::string json = rt::to_json(snap);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"tx_commits\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hot_stripes\""), std::string::npos) << json;
}

}  // namespace
}  // namespace privstm
