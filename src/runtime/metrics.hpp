// Unified metrics registry: one snapshot API over Counter deltas,
// LatencyHistograms, gauges, and the trace-domain conflict heat map, with
// JSON and Prometheus-text exporters. DESIGN.md §13.
//
// The registry holds *pointers* to live instruments (a StatsDomain, named
// histograms, gauge closures, an optional TraceDomain) and materializes an
// owning MetricsSnapshot on demand. Counter rows are totals, named by
// rt::counter_name; a consumer that wants per-phase deltas reads
// StatsDomain::total directly and keeps its own baselines (the adaptive
// governor does).
//
// Exporters:
//  - to_json(): a plain JSON object, embeddable into the BENCH_*.json
//    perf logs (schema 6 / schema 2 carry one under "metrics").
//  - to_prometheus(): text exposition format. Every series is prefixed
//    `privstm_`; counters get the conventional `_total` suffix
//    (kTxCommit => `privstm_tx_commits_total`); histograms export
//    quantile-labelled gauges plus `_count`; the heat map exports
//    `privstm_stripe_aborts{stripe="N"}`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/latency.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace privstm::rt {

/// Owning, immutable view of every registered instrument at one instant.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;     ///< counter_name
    std::uint64_t value;  ///< total across every thread slot
  };
  struct HistRow {
    std::string name;
    std::uint64_t count;
    std::uint64_t p50;
    std::uint64_t p99;
    std::uint64_t p999;
    std::uint64_t max;  ///< p100 bucket upper bound
  };
  struct GaugeRow {
    std::string name;
    double value;
  };

  std::vector<CounterRow> counters;
  std::vector<HistRow> histograms;
  std::vector<GaugeRow> gauges;
  std::vector<StripeHeat> hot_stripes;  ///< top-N conflict heat map rows
  std::uint64_t total_conflicts = 0;    ///< whole-map abort sum
  std::uint64_t trace_dropped = 0;      ///< ring overflow drops
};

class MetricsRegistry {
 public:
  /// Register a counter domain; at most one. Not owned.
  void add_counters(const StatsDomain* stats) { stats_ = stats; }

  /// Register a named histogram. Not owned; must outlive snapshot() calls.
  void add_histogram(std::string name, const LatencyHistogram* h) {
    histograms_.push_back({std::move(name), h});
  }

  /// Register a named gauge sampled at snapshot time.
  void add_gauge(std::string name, std::function<double()> fn) {
    gauges_.push_back({std::move(name), std::move(fn)});
  }

  /// Register the trace domain for heat-map / drop-count rows. Not owned.
  void set_trace(const TraceDomain* trace) { trace_ = trace; }

  MetricsSnapshot snapshot() const;

 private:
  struct NamedHist {
    std::string name;
    const LatencyHistogram* hist;
  };
  struct NamedGauge {
    std::string name;
    std::function<double()> fn;
  };

  const StatsDomain* stats_ = nullptr;
  const TraceDomain* trace_ = nullptr;
  std::vector<NamedHist> histograms_;
  std::vector<NamedGauge> gauges_;
};

/// Render a snapshot as a JSON object (no trailing newline) — embeddable
/// in a larger document or usable standalone.
std::string to_json(const MetricsSnapshot& snap);

/// Render a snapshot in the Prometheus text exposition format.
std::string to_prometheus(const MetricsSnapshot& snap);

}  // namespace privstm::rt
