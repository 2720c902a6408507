// perfbench: the repo benchmark's binary. Runs one workload for a
// fixed time from a seed and prints, last, one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Lines before it are the human-readable report
// and a "fingerprint" JSON line. Usually run through run.py, which builds
// this binary first.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using privstm::rt::Counter;

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

double slice_quantile_us(const std::vector<Histogram>& per_slice,
                         std::uint32_t p_tenths, const char* what,
                         RunResult& out) {
  std::vector<double> v;
  std::uint64_t fewest = ~std::uint64_t{0};
  for (const Histogram& h : per_slice) {
    if (h.count() == 0) continue;
    fewest = std::min(fewest, h.count());
    v.push_back(h.quantile(reported_percentile(h.count(), p_tenths) /
                           1000.0) /
                1000.0);
  }
  char note[160];
  std::snprintf(note, sizeof note,
                "%s: median of %zu slices, >= %llu samples per slice%s:", what,
                v.size(), static_cast<unsigned long long>(v.empty() ? 0 : fewest),
                reported_percentile(fewest, p_tenths) < p_tenths
                    ? " (tail capped at the supported percentile)"
                    : "");
  std::string line = note;
  for (const double x : v) {
    std::snprintf(note, sizeof note, " %.3f", x);
    line += note;
  }
  out.notes.push_back(line);
  return median(v);
}

void add_layer_metrics(RunResult& out, const LayerInputs& in) {
  const TraceLayers& t = *in.trace;
  const CounterSnap& c = in.counters;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto n = [&](Counter k) { return static_cast<double>(c[k]); };
  const double ops = static_cast<double>(in.ops);
  const double commits = n(Counter::kTxCommit);
  // A share built from spans is a sample when a ring dropped events.
  const std::string share_note =
      t.dropped() != 0 ? "sampled: the trace dropped events" : "";
  // Medians of layer spans and tails capped at the highest percentile with
  // ten samples beyond it, in us or ms.
  const auto pct = [&](const Histogram& h, std::uint32_t p_tenths,
                       double scale) {
    return h.quantile(reported_percentile(h.count(), p_tenths) / 1000.0) /
           scale;
  };
  const auto samples = [&](const Histogram& h, std::uint32_t p_tenths) {
    std::string note = std::to_string(h.count()) + " samples";
    const std::uint32_t p = reported_percentile(h.count(), p_tenths);
    if (p < p_tenths) note += ", reported at p" + std::to_string(p / 10);
    return note;
  };
  const auto us = [&](const char* name, const Histogram& h,
                      std::uint32_t p_tenths) {
    out.add(name, pct(h, p_tenths, 1e3), "us", samples(h, p_tenths));
  };
  const auto ms = [&](const char* name, const Histogram& h) {
    out.add(name, pct(h, 500, 1e6), "ms", samples(h, 500));
  };

  out.add("service.commits_per_op", ratio(commits, ops), "1/op");
  out.add("service.op_outside_tx_share",
          ratio(static_cast<double>(t.op_outside_tx_ns),
                static_cast<double>(t.op_ns)),
          "share", share_note);
  out.add("service.sweep_busy_share",
          ratio(static_cast<double>(in.sweep_busy_ns), in.window_s * 1e9),
          "share");
  out.add("service.retired_per_sweep",
          ratio(static_cast<double>(in.sweep_retired),
                static_cast<double>(in.sweeps)),
          "1/sweep");
  out.add("service.put_full", static_cast<double>(in.put_full), "count");
  out.add("service.failed_share",
          OpCounts{in.ops - in.put_full, in.put_full}.failed_share(), "share");

  us("sweep.bucket_us_p50", t.sweep_bucket, 500);
  us("sweep.bucket_us_p99", t.sweep_bucket, 990);
  us("sweep.freeze_us_p50", t.sweep_freeze, 500);
  us("sweep.fence_wait_us_p50", t.sweep_fence, 500);
  us("sweep.reclaim_us_p50", t.sweep_reclaim, 500);
  us("sweep.republish_us_p50", t.sweep_republish, 500);

  us("tm.tx_us_p50", t.tx, 500);
  us("tm.tx_us_p99", t.tx, 990);
  out.add("tm.commit_share", ratio(commits, commits + n(Counter::kTxAbort)),
          "share");
  out.add("tm.ro_commit_share", ratio(n(Counter::kTxReadOnlyCommit), commits),
          "share");
  out.add("tm.aborts_validation_per_kcommit",
          ratio(1e3 * n(Counter::kTxReadValidationFail), commits),
          "1/kcommit");
  out.add("tm.aborts_lock_per_kcommit",
          ratio(1e3 * n(Counter::kTxLockFail), commits), "1/kcommit");
  out.add("tm.nt_access_per_op",
          ratio(n(Counter::kNtRead) + n(Counter::kNtWrite), ops), "1/op");

  out.add("alloc.shared_refill_per_kop",
          ratio(1e3 * n(Counter::kAllocSharedRefill), ops), "1/kop");
  out.add("alloc.shard_steals", n(Counter::kAllocShardSteal), "count");
  out.add("alloc.compactions", n(Counter::kAllocCompaction), "count");
  out.add("alloc.limbo_batches_retired", n(Counter::kLimboBatchRetired),
          "count");
  out.add("alloc.arena_cells", static_cast<double>(in.arena_cells), "cells");

  out.add("quiescence.fences", n(Counter::kFence), "count");
  us("quiescence.fence_us_p50", t.fence, 500);
  us("quiescence.fence_us_p99", t.fence, 990);
  us("quiescence.grace_scan_us_p50", t.grace_scan, 500);
  out.add("quiescence.coalesced_share",
          ratio(n(Counter::kFenceCoalesced), n(Counter::kFence)), "share");
  out.add("quiescence.async_overflows", n(Counter::kFenceAsyncOverflow),
          "count");

  out.add("contention.retries_per_commit",
          ratio(n(Counter::kTxAbort), commits), "1/commit");
  out.add("contention.backoff_us_share",
          ratio(static_cast<double>(t.backoff_ns),
                static_cast<double>(t.op_ns)),
          "share", share_note);
  out.add("contention.escalations", n(Counter::kTxEscalated), "count");
  out.add("contention.governor_epochs", n(Counter::kGovernorEpoch), "count");
  out.add("contention.governor_shifts", n(Counter::kGovernorPolicyShift),
          "count");

  out.add("trace.events_dropped", static_cast<double>(t.dropped()), "count");
  out.add("trace.overhead_share", in.overhead_share, "share",
          "1 - traced/untraced throughput, same run");

  ms("history.collect_ms", in.collect);
  ms("history.wellformed_ms", in.wellformed);
  ms("drf.hb_ms", in.hb);
  ms("drf.races_ms", in.races);
  ms("opacity.check_ms", in.check);
  ms("opacity.self_ms", in.check_self);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    o += ch;
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The result object: correct, attempted, failed and each metric's value
/// and unit (and its note, for the layer summary). A non-finite value
/// prints as null, which run.py rejects.
std::string result_json(const RunResult& r, bool notes) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.ops.attempted());
  json += ", \"failed\": " + std::to_string(r.ops.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"";
    if (notes) json += ", \"note\": \"" + json_escape(m.note) + "\"";
    json += "}";
  }
  return json + "}}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  const bool session = is_session_workload(opt.workload);
  if (!session && opt.workload != "checker") {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  const RunResult r =
      session ? run_session_workload(opt) : run_checker_workload(opt);

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("%-36s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  }
  std::printf(
      "fingerprint {\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\","
      "\"flags\":\"%s\",\"build_type\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%d,\"threads\":\"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, json_escape(PERFBENCH_FLAGS).c_str(),
      PERFBENCH_BUILD_TYPE, opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, json_escape(r.threads).c_str());

  if (opt.trace && !opt.out_dir.empty()) {
    // The per-layer summary: every metric with its note, so a share taken
    // from a run that dropped trace events stays labelled as sampled.
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".layers.json";
    std::ofstream f(path);
    f << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"succeeded\": " << r.ops.succeeded << ", "
      << result_json(r, true).substr(1) << "\n";
    if (f) std::printf("layer summary: %s\n", path.c_str());
  }
  std::printf("%s\n", result_json(r, false).c_str());
  return 0;
}
