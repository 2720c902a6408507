// Shared types of the repo benchmark binary: run options, the
// result every workload returns, and the per-layer metric assembly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "runtime/stats.hpp"
#include "trace_layers.hpp"

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< traced-run artifacts (Perfetto + layer summary)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< human-readable qualifier (samples, "sampled")
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< one line per failed gate
  OpCounts ops;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;     ///< human-readable report lines
  std::string threads;                ///< thread layout, for the fingerprint

  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
};

/// TM counter totals; deltas across a measured window feed the layer
/// metrics.
struct CounterSnap {
  std::uint64_t v[privstm::rt::kCounterCount] = {};
  static CounterSnap of(const privstm::rt::StatsDomain& stats) {
    CounterSnap s;
    for (std::size_t c = 0; c < privstm::rt::kCounterCount; ++c) {
      s.v[c] = stats.total(static_cast<privstm::rt::Counter>(c));
    }
    return s;
  }
  std::uint64_t operator[](privstm::rt::Counter c) const noexcept {
    return v[static_cast<std::size_t>(c)];
  }
  CounterSnap minus(const CounterSnap& before) const {
    CounterSnap d;
    for (std::size_t c = 0; c < privstm::rt::kCounterCount; ++c) {
      d.v[c] = v[c] - before.v[c];
    }
    return d;
  }
  CounterSnap plus(const CounterSnap& other) const {
    CounterSnap d;
    for (std::size_t c = 0; c < privstm::rt::kCounterCount; ++c) {
      d.v[c] = v[c] + other.v[c];
    }
    return d;
  }
};

/// Everything a traced window measured, in the form layer_metrics needs.
/// Fields a workload does not exercise stay zero.
struct LayerInputs {
  CounterSnap counters;          ///< deltas over the traced window
  const TraceLayers* trace = nullptr;
  std::uint64_t ops = 0;         ///< completed store / recorded ops
  std::uint64_t put_full = 0;
  double window_s = 0.0;
  std::uint64_t sweeps = 0;
  std::uint64_t sweep_retired = 0;
  std::uint64_t sweep_busy_ns = 0;
  std::uint64_t arena_cells = 0;
  double overhead_share = 0.0;
  // Checker stages, one sample per history (ns).
  Histogram collect, wellformed, hb, races, check, check_self;
};

/// The per_layer metric set of BENCHMARK.json, in its order.
void add_layer_metrics(RunResult& out, const LayerInputs& in);

/// Median over slices of each slice's quantile (p in tenths of a percent,
/// capped per slice at the highest percentile with ten samples beyond it),
/// in microseconds; notes the sample counts and per-slice values.
double slice_quantile_us(const std::vector<Histogram>& per_slice,
                         std::uint32_t p_tenths, const char* what,
                         RunResult& out);

/// Peak resident set of this process (VmHWM), MB, since the last
/// reset_peak_rss() (which resets it to the current resident set where the
/// kernel allows).
double peak_rss_mb();
void reset_peak_rss();

RunResult run_session_workload(const Options& opt);
RunResult run_checker_workload(const Options& opt);
bool is_session_workload(const std::string& name);

}  // namespace perfbench
