// Quickstart for the transactional session-store service layer
// (DESIGN.md §12): a tiny web-session cache on the STM heap.
//
// Three app threads serve zipfian-skewed session traffic (lookups,
// logins, refreshes, logouts) while a maintenance thread periodically
// runs the privatizing expiry sweep — the paper's freeze → fence → NT
// reclaim → republish idiom as a service operation — in both fence
// modes. At the end we print per-op-class latency percentiles from the
// mergeable log-bucketed histograms (rt::LatencyHistogram) and verify
// that no reader ever saw a torn or reclaimed record.
//
// Lifecycle tracing (DESIGN.md §13) is switched on, so the run also
// prints the hottest conflict stripes plus a metrics snapshot, and
// dumps session_service.trace.json — open it in Perfetto or
// chrome://tracing to see the tx / fence / sweep-phase spans.
//
// Build & run:  ./examples/session_service
#include <atomic>
#include <cstdio>

#include "runtime/metrics.hpp"
#include "service/workload.hpp"
#include "tm/factory.hpp"

using namespace privstm;

namespace {

void print_phase(const char* mode, const service::PhaseResult& r) {
  std::printf("%-5s  %8.0f ops/s  hits %llu  misses %llu  sweeps %llu "
              "(retired %llu)\n",
              mode, static_cast<double>(r.throughput_ops()) / r.seconds,
              static_cast<unsigned long long>(r.get_hits),
              static_cast<unsigned long long>(r.get_misses),
              static_cast<unsigned long long>(r.sweeps),
              static_cast<unsigned long long>(r.sweep_retired));
  for (std::size_t c = 0; c < service::kOpClassCount; ++c) {
    const auto& h = r.latency[c];
    if (h.count() == 0) continue;
    std::printf("       %-6s p50 %8llu ns   p99 %8llu ns   p999 %8llu ns"
                "   (%llu samples)\n",
                service::op_class_name(static_cast<service::OpClass>(c)),
                static_cast<unsigned long long>(h.p50()),
                static_cast<unsigned long long>(h.p99()),
                static_cast<unsigned long long>(h.p999()),
                static_cast<unsigned long long>(h.count()));
  }
}

}  // namespace

int main() {
  tm::TmConfig config;
  config.num_registers = 64;
  config.trace.enabled = true;  // lifecycle rings + conflict heat map
  config.trace.ring_capacity = 1 << 16;  // keep more of the run; full
                                         // rings drop-and-count, never block
  auto tmi = tm::make_tm(tm::TmKind::kTl2Fused, config);

  service::SessionStore store(*tmi, {.buckets = 8, .bucket_capacity = 512});

  service::WorkloadConfig cfg;
  cfg.threads = 3;       // app threads; the sweeper rides along
  cfg.num_keys = 1024;   // user population
  cfg.ttl_ticks = 1024;  // session lifetime in logical ticks
  cfg.sweep_every_ticks = 512;

  service::PhaseConfig phase;
  phase.ops_per_thread = 20000;
  phase.zipf_s = 0.99;          // a few users are very active
  phase.mix.put_permille = 250; // logins
  phase.mix.touch_permille = 100;  // keep-alives
  phase.mix.erase_permille = 50;   // logouts

  std::printf("session service on %s, %zu keys, %zu app threads\n\n",
              tmi->name(), cfg.num_keys, cfg.threads);

  std::atomic<std::uint64_t> clock{1};
  std::uint64_t violations = 0;

  // Phase 1: expiry sweeps with the synchronous per-bucket fence.
  cfg.sweep_mode = service::SweepMode::kSyncFence;
  const auto sync_result =
      service::run_phase(*tmi, store, cfg, phase, /*seed=*/1, clock);
  print_phase("sync", sync_result);
  violations += sync_result.consistency_violations;

  // Phase 2: async-ticket fences — each privatized bucket's grace period
  // runs on the asynchronous engine; as in phase 1, only buckets whose
  // find phase saw an expired record are frozen and fenced.
  cfg.sweep_mode = service::SweepMode::kAsyncFence;
  const auto async_result =
      service::run_phase(*tmi, store, cfg, phase, /*seed=*/2, clock);
  print_phase("async", async_result);
  violations += async_result.consistency_violations;

  if (violations != 0) {
    std::printf("\nFAIL: %llu records disagreed with their headers\n",
                static_cast<unsigned long long>(violations));
    return 1;
  }

  // Observability wrap-up: where did the contention land, and what did
  // the whole run cost? The heat map names the stripes worth sharding;
  // the Prometheus text is what a scrape endpoint would serve.
  rt::MetricsRegistry registry;
  registry.add_counters(&tmi->stats());
  registry.set_trace(tmi->trace_ptr());
  const rt::MetricsSnapshot snap = registry.snapshot();
  std::printf("\nconflicts: %llu total",
              static_cast<unsigned long long>(snap.total_conflicts));
  for (const rt::StripeHeat& h : snap.hot_stripes) {
    std::printf("  stripe %u x%llu", h.stripe,
                static_cast<unsigned long long>(h.aborts));
  }
  std::printf("\n%s\n", rt::to_prometheus(snap).c_str());

  const char* trace_path = "session_service.trace.json";
  if (rt::write_chrome_trace(trace_path, tmi->trace().drain(),
                             tmi->trace().dropped())) {
    std::printf("trace written to %s (load it in Perfetto)\n", trace_path);
  }
  std::printf("all reads consistent; expired sessions reclaimed safely\n");
  return 0;
}
