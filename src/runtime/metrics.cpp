#include "runtime/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace privstm::rt {

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  if (stats_ != nullptr) {
    snap.counters.reserve(kCounterCount);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      snap.counters.push_back({counter_name(c), stats_->total(c)});
    }
  }
  for (const NamedHist& h : histograms_) {
    snap.histograms.push_back({h.name, h.hist->count(), h.hist->p50(),
                               h.hist->p99(), h.hist->p999(),
                               h.hist->percentile(1.0)});
  }
  for (const NamedGauge& g : gauges_) {
    snap.gauges.push_back({g.name, g.fn()});
  }
  if (trace_ != nullptr) {
    snap.hot_stripes = trace_->top_n();
    snap.total_conflicts = trace_->total_conflicts();
    snap.trace_dropped = trace_->dropped();
  }
  return snap;
}

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string to_json(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snap.counters) {
    appendf(out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",",
            c.name.c_str(), c.value);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    appendf(out,
            "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"p50\": %" PRIu64
            ", \"p99\": %" PRIu64 ", \"p999\": %" PRIu64 ", \"max\": %" PRIu64
            "}",
            first ? "" : ",", h.name.c_str(), h.count, h.p50, h.p99, h.p999,
            h.max);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& g : snap.gauges) {
    appendf(out, "%s\n    \"%s\": %.6g", first ? "" : ",", g.name.c_str(),
            g.value);
    first = false;
  }
  out += "\n  },\n  \"hot_stripes\": [";
  first = true;
  for (const auto& s : snap.hot_stripes) {
    appendf(out, "%s\n    {\"stripe\": %u, \"aborts\": %" PRIu64 "}",
            first ? "" : ",", s.stripe, s.aborts);
    first = false;
  }
  appendf(out,
          "\n  ],\n  \"total_conflicts\": %" PRIu64
          ",\n  \"trace_dropped\": %" PRIu64 "\n}",
          snap.total_conflicts, snap.trace_dropped);
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& c : snap.counters) {
    appendf(out, "# TYPE privstm_%s_total counter\n", c.name.c_str());
    appendf(out, "privstm_%s_total %" PRIu64 "\n", c.name.c_str(), c.value);
  }
  for (const auto& h : snap.histograms) {
    appendf(out, "# TYPE privstm_%s_ns summary\n", h.name.c_str());
    appendf(out, "privstm_%s_ns{quantile=\"0.5\"} %" PRIu64 "\n",
            h.name.c_str(), h.p50);
    appendf(out, "privstm_%s_ns{quantile=\"0.99\"} %" PRIu64 "\n",
            h.name.c_str(), h.p99);
    appendf(out, "privstm_%s_ns{quantile=\"0.999\"} %" PRIu64 "\n",
            h.name.c_str(), h.p999);
    appendf(out, "privstm_%s_ns{quantile=\"1\"} %" PRIu64 "\n",
            h.name.c_str(), h.max);
    appendf(out, "privstm_%s_ns_count %" PRIu64 "\n", h.name.c_str(),
            h.count);
  }
  for (const auto& g : snap.gauges) {
    appendf(out, "# TYPE privstm_%s gauge\n", g.name.c_str());
    appendf(out, "privstm_%s %.6g\n", g.name.c_str(), g.value);
  }
  if (!snap.hot_stripes.empty()) {
    out += "# TYPE privstm_stripe_aborts counter\n";
    for (const auto& s : snap.hot_stripes) {
      appendf(out, "privstm_stripe_aborts{stripe=\"%u\"} %" PRIu64 "\n",
              s.stripe, s.aborts);
    }
  }
  appendf(out, "# TYPE privstm_conflicts_total counter\n");
  appendf(out, "privstm_conflicts_total %" PRIu64 "\n", snap.total_conflicts);
  appendf(out, "# TYPE privstm_trace_dropped_total counter\n");
  appendf(out, "privstm_trace_dropped_total %" PRIu64 "\n",
          snap.trace_dropped);
  return out;
}

}  // namespace privstm::rt
