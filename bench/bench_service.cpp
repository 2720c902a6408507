// Experiment E14 — the session-store service macro-benchmark
// (DESIGN.md §12): zipfian KV traffic with payload churn and privatizing
// expiry sweeps, per-op-class latency percentiles per phase.
//
// Matrix: backend × sweep fence mode {sync, async} × phase {steady
// zipfian, hot-key storm}. Each (backend, mode) cell runs both phases
// back-to-back against one live store — the storm inherits the steady
// phase's resident sessions — and reports p50/p99/p999 per op class plus
// the TM's counter deltas for that phase.
//
// Shape expectations:
//  * async sweeps beat sync on sweep p50 at >1 bucket: the fence's grace
//    period overlaps the previous bucket's scan instead of sitting on the
//    critical path (PR 2's deferred-privatization pipeline);
//  * the storm phase moves put/get p999 far more than p50 — the hot set
//    serializes through the contention manager while the zipfian tail
//    stays uncontended;
//  * glock's percentiles are flat across phases (everything serializes
//    anyway); the TL2 family pays for the storm in aborts, not latency
//    floor.
//
// This binary has its own main(): it sweeps the matrix, runs the governed
// traced cell and the storm-shift schedule (adaptive governor vs each
// static CmPolicy, experiment E17), and persists BENCH_service.json
// (schema 3). `--quick` runs a smaller matrix to BENCH_service.quick.json
// and self-gates — the sweeps must actually retire expired sessions, every
// op class must report percentiles, and the adaptive column must hold its
// storm-shift gates — returning nonzero on violation (the CI smoke).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "runtime/adaptive.hpp"
#include "runtime/metrics.hpp"
#include "service/workload.hpp"
#include "tm/factory.hpp"

namespace privstm::bench {
namespace {

using service::OpClass;
using service::kOpClassCount;

struct OpClassCell {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

struct ServiceRow {
  std::string backend;
  std::string fence_mode;
  std::string phase;
  std::size_t threads = 0;
  OpClassCell op[kOpClassCount];
  double ops_per_sec = 0.0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t put_failures = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t sweep_scanned = 0;
  std::uint64_t sweep_retired = 0;
  std::uint64_t consistency_violations = 0;
  // TM counter deltas across the phase.
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t escalations = 0;
  std::uint64_t shard_steals = 0;
  std::uint64_t fences = 0;
};

struct MatrixShape {
  std::size_t threads;
  std::size_t num_keys;
  std::size_t ops_per_thread;
  std::size_t buckets;
  std::size_t bucket_capacity;
  std::uint64_t ttl_ticks;
  std::uint64_t sweep_every_ticks;
};

constexpr MatrixShape kFullShape{8, 4096, 6000, 8, 2048, 4096, 2048};
constexpr MatrixShape kQuickShape{4, 512, 600, 4, 512, 512, 256};

/// Snapshot the counters a phase delta is computed over.
struct CounterSnap {
  std::uint64_t commits, aborts, backoffs, escalations, steals, fences;
  static CounterSnap of(tm::TransactionalMemory& tmi) {
    auto& s = tmi.stats();
    return {s.total(rt::Counter::kTxCommit), s.total(rt::Counter::kTxAbort),
            s.total(rt::Counter::kTxRetryBackoff),
            s.total(rt::Counter::kTxEscalated),
            s.total(rt::Counter::kAllocShardSteal),
            s.total(rt::Counter::kFence)};
  }
};

ServiceRow make_row(tm::TmKind kind, service::SweepMode mode,
                    const service::PhaseConfig& phase,
                    const service::WorkloadConfig& cfg,
                    const service::PhaseResult& r, const CounterSnap& before,
                    const CounterSnap& after) {
  ServiceRow row;
  row.backend = tm::tm_kind_name(kind);
  row.fence_mode = service::sweep_mode_name(mode);
  row.phase = phase.label;
  row.threads = cfg.threads;
  for (std::size_t c = 0; c < kOpClassCount; ++c) {
    row.op[c].count = r.latency[c].count();
    row.op[c].p50 = r.latency[c].p50();
    row.op[c].p99 = r.latency[c].p99();
    row.op[c].p999 = r.latency[c].p999();
  }
  row.ops_per_sec =
      r.seconds > 0.0 ? static_cast<double>(r.throughput_ops()) / r.seconds
                      : 0.0;
  row.get_hits = r.get_hits;
  row.get_misses = r.get_misses;
  row.put_failures = r.put_failures;
  row.sweeps = r.sweeps;
  row.sweep_scanned = r.sweep_scanned;
  row.sweep_retired = r.sweep_retired;
  row.consistency_violations = r.consistency_violations;
  row.commits = after.commits - before.commits;
  row.aborts = after.aborts - before.aborts;
  row.backoffs = after.backoffs - before.backoffs;
  row.escalations = after.escalations - before.escalations;
  row.shard_steals = after.steals - before.steals;
  row.fences = after.fences - before.fences;
  return row;
}

std::string row_label(const ServiceRow& r) {
  return r.backend + "/" + r.fence_mode + "/" + r.phase;
}

std::vector<ServiceRow> run_matrix(const MatrixShape& shape,
                                   std::uint64_t seed) {
  std::vector<ServiceRow> rows;
  const service::SweepMode modes[] = {service::SweepMode::kSyncFence,
                                      service::SweepMode::kAsyncFence};
  for (const tm::TmKind kind : tm::all_tm_kinds()) {
    for (const service::SweepMode mode : modes) {
      tm::TmConfig config;
      config.num_registers = 64;
      auto tmi = tm::make_tm(kind, config);

      service::SessionStoreConfig store_cfg;
      store_cfg.buckets = shape.buckets;
      store_cfg.bucket_capacity = shape.bucket_capacity;
      service::SessionStore store(*tmi, store_cfg);

      service::WorkloadConfig cfg;
      cfg.threads = shape.threads;
      cfg.num_keys = shape.num_keys;
      cfg.ttl_ticks = shape.ttl_ticks;
      cfg.sweep_mode = mode;
      cfg.sweep_every_ticks = shape.sweep_every_ticks;

      service::PhaseConfig steady;
      steady.label = "steady";
      steady.ops_per_thread = shape.ops_per_thread;
      steady.zipf_s = 0.99;

      service::PhaseConfig storm;
      storm.label = "hot-storm";
      storm.ops_per_thread = shape.ops_per_thread;
      storm.zipf_s = 0.99;
      storm.hot_permille = 800;  // a flash crowd on 8 keys
      storm.hot_keys = 8;
      storm.mix.put_permille = 300;  // the crowd writes, too

      std::atomic<std::uint64_t> clock{1};
      for (const service::PhaseConfig* phase : {&steady, &storm}) {
        const CounterSnap before = CounterSnap::of(*tmi);
        const auto result =
            service::run_phase(*tmi, store, cfg, *phase, seed, clock);
        const CounterSnap after = CounterSnap::of(*tmi);
        rows.push_back(
            make_row(kind, mode, *phase, cfg, result, before, after));
        std::cout << row_label(rows.back()) << ": "
                  << static_cast<std::uint64_t>(rows.back().ops_per_sec)
                  << " ops/s, get p999 "
                  << rows.back().op[0].p999 << " ns, "
                  << rows.back().sweep_retired << " retired\n";
      }
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Traced cell: one tl2fused × sync run (steady then hot-storm) against a
// trace-enabled TM. The hot-key storm hammers 8 keys, so the per-stripe
// conflict heat map must light up; the cell's metrics snapshot (counters,
// op-class latency histograms, heat map) embeds into BENCH_service.json
// (schema 2) and, with --trace <path>, the lifecycle rings dump as Chrome
// trace JSON plus a Prometheus text file at <path>.prom.
// ---------------------------------------------------------------------------

struct TracedCell {
  std::string metrics_json;
  std::uint64_t heat_conflicts = 0;  ///< whole-map abort sum (gate: > 0)
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  /// Adaptive-governor activity over the traced run (the cell is governed
  /// so its epoch decisions land in the Perfetto dump; gate: shifts > 0).
  std::uint64_t governor_epochs = 0;
  std::uint64_t governor_shifts = 0;
  std::string governor_policy;  ///< live policy when the traffic drained
};

TracedCell run_traced_cell(const MatrixShape& shape, std::uint64_t seed,
                           const std::string& trace_path) {
  TracedCell out;
  tm::TmConfig config;
  config.num_registers = 64;
  config.trace.enabled = true;
  // Organic conflict aborts need two transactions racing inside one
  // validation window, which timesliced threads on a single-core box never
  // produce — so, like the clock-share probe in bench_tm_throughput, the
  // traced cell arms a low-rate read-validation abort injection. Injected
  // aborts attribute to the stripe of the access they fired inside, so the
  // heat map, abort-reason plumbing and kTxAbort events all run end to end
  // on any box; the cell's ops_per_sec is NOT comparable to the matrix.
  config.fault.abort_permille = 20;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kReadValidation);
  auto tmi = tm::make_tm(tm::TmKind::kTl2Fused, config);

  service::SessionStoreConfig store_cfg;
  store_cfg.buckets = shape.buckets;
  store_cfg.bucket_capacity = shape.bucket_capacity;
  service::SessionStore store(*tmi, store_cfg);

  service::WorkloadConfig cfg;
  cfg.threads = shape.threads;
  cfg.num_keys = shape.num_keys;
  cfg.ttl_ticks = shape.ttl_ticks;
  cfg.sweep_mode = service::SweepMode::kSyncFence;
  cfg.sweep_every_ticks = shape.sweep_every_ticks;

  // The traced cell runs governed: the injected read-validation abort rate
  // sits well above the storm threshold below, so the governor must adopt
  // a contended tier within a few epochs — putting kGovernorEpoch /
  // kGovernorPolicyShift instants into the Perfetto dump and the policy
  // gauge + epoch counters into the embedded metrics snapshot. The
  // thresholds are deliberately more sensitive than the defaults: this
  // cell's job is exercising the feedback loop end to end, not tuning it.
  rt::GovernorConfig gov_cfg;
  gov_cfg.epoch_commits = 64;
  gov_cfg.low_abort_permille = 5;
  gov_cfg.high_abort_permille = 60;
  rt::AdaptiveGovernor governor(tmi->stats(), gov_cfg, tmi->trace_ptr());
  cfg.governor = &governor;

  service::PhaseConfig steady;
  steady.label = "steady";
  steady.ops_per_thread = shape.ops_per_thread;
  steady.zipf_s = 0.99;

  service::PhaseConfig storm;
  storm.label = "hot-storm";
  storm.ops_per_thread = shape.ops_per_thread;
  storm.zipf_s = 0.99;
  storm.hot_permille = 800;
  storm.hot_keys = 8;
  storm.mix.put_permille = 300;

  std::atomic<std::uint64_t> clock{1};
  (void)service::run_phase(*tmi, store, cfg, steady, seed, clock);
  const auto storm_result =
      service::run_phase(*tmi, store, cfg, storm, seed + 1, clock);
  out.governor_epochs = governor.epochs();
  out.governor_shifts = governor.shifts();
  out.governor_policy = rt::cm_policy_name(governor.decision().policy);

  rt::MetricsRegistry registry;
  registry.add_counters(&tmi->stats());
  registry.set_trace(tmi->trace_ptr());
  for (std::size_t c = 0; c < kOpClassCount; ++c) {
    registry.add_histogram(
        std::string(service::op_class_name(static_cast<OpClass>(c))) +
            "_latency",
        &storm_result.latency[c]);
  }
  registry.add_gauge("arena_cells", [&] {
    return static_cast<double>(tmi->heap().allocated_end());
  });
  registry.add_gauge("governor_policy", [&] {
    return static_cast<double>(
        static_cast<int>(governor.decision().policy));
  });
  const rt::MetricsSnapshot snap = registry.snapshot();
  out.metrics_json = rt::to_json(snap);
  out.heat_conflicts = snap.total_conflicts;
  out.trace_dropped = snap.trace_dropped;
  std::cout << "traced cell: governor epochs=" << out.governor_epochs
            << " shifts=" << out.governor_shifts << " policy="
            << out.governor_policy << "\n";
  std::cout << "traced cell: " << out.heat_conflicts
            << " heat-map conflicts, hottest stripes:";
  for (const auto& h : snap.hot_stripes) {
    std::cout << " " << h.stripe << "(" << h.aborts << ")";
  }
  std::cout << "\n";
  if (!trace_path.empty()) {
    const std::vector<rt::TraceEvent> events = tmi->trace().drain();
    out.trace_events = events.size();
    if (rt::write_chrome_trace(trace_path, events,
                               tmi->trace().dropped())) {
      std::cout << "wrote " << events.size() << " trace events to "
                << trace_path << "\n";
    } else {
      std::cerr << "failed to write " << trace_path << "\n";
    }
    std::ofstream prom(trace_path + ".prom");
    if (prom) prom << rt::to_prometheus(snap);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Storm-shift schedule: adaptive governor vs every static CmPolicy on the
// same abort storm (DESIGN.md §14, experiment E17). Each column runs a
// fresh tl2fused store through a hot-storm phase whose read-validation
// injection fires on every opportunity until a fixed per-slot budget
// drains (the storm is the budget: every column absorbs the same number of
// injected aborts), then a clean steady phase. Static columns pay their
// fixed policy's price for the whole storm — kBackoff's exponential pauses
// are the worst case — while the adaptive column starts on the steady tier
// and must *detect* the storm (abort-rate epochs over threshold, two-epoch
// hysteresis) before it can shift to the storm tier's earlier escalation.
// Gates: adaptive ≥ 0.9× the best static column on the clean steady phase,
// ≥ the worst static column on the whole schedule, and ≥ 1 policy shift
// adopted during the storm.
// ---------------------------------------------------------------------------

/// escalate_after every static column runs with (and the governor's
/// steady/backoff tiers match, so the columns differ only in policy until
/// the governor shifts): with every optimistic attempt aborted by the
/// injector, each op costs exactly this many failed attempts before the
/// serial gate commits it — small enough that the storm stays bounded.
constexpr std::size_t kShiftEscalateAfter = 24;

struct ShiftCell {
  std::string policy;  ///< column: immediate | backoff | karma | adaptive
  double storm_ops_per_sec = 0.0;
  double steady_ops_per_sec = 0.0;
  double schedule_ops_per_sec = 0.0;  ///< whole schedule: Σops / Σseconds
  // Schedule-wide TM counter deltas (fresh TM per column, so totals).
  std::uint64_t aborts = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t escalations = 0;
  std::uint64_t violations = 0;
  // Adaptive column only (zero on the static columns).
  std::uint64_t epochs = 0;
  std::uint64_t shifts = 0;
  std::uint64_t storm_shifts = 0;  ///< shifts adopted during the storm
  std::string final_policy;        ///< live policy when traffic drained
};

std::vector<ShiftCell> run_shift_schedule(const MatrixShape& shape,
                                          std::uint64_t seed) {
  struct Column {
    const char* label;
    bool adaptive;
    rt::CmPolicy policy;
  };
  const Column columns[] = {
      {"immediate", false, rt::CmPolicy::kImmediate},
      {"backoff", false, rt::CmPolicy::kBackoff},
      {"karma", false, rt::CmPolicy::kKarma},
      {"adaptive", true, rt::CmPolicy::kImmediate},
  };
  // The storm budget (injected aborts per slot): the constant floor keeps
  // the governor's detect-and-shift window (~3 epochs × epoch_commits ops
  // × kShiftEscalateAfter aborts each) inside the storm even at the quick
  // shape; the ops-proportional part keeps the storm a real fraction of
  // the full-shape phase. Every column exhausts it before the storm phase
  // ends — the steady phase is injection-free for all four columns.
  const std::uint64_t storm_budget = 5000 + 3 * shape.ops_per_thread;

  // Best-of-2 per column, like every other cell in this bench: the steady
  // gate compares throughputs within ~10%, which single samples on a
  // timesliced box cannot resolve. Each rep is a coherent cell (fresh TM,
  // store, governor); the rep with the higher whole-schedule throughput is
  // kept, except consistency violations, which accumulate across reps —
  // a violation in ANY rep must fail the gate, not get lucky-sampled away.
  constexpr int kShiftReps = 2;

  std::vector<ShiftCell> cells;
  for (const Column& col : columns) {
    ShiftCell best;
    std::uint64_t all_rep_violations = 0;
    for (int rep = 0; rep < kShiftReps; ++rep) {
      tm::TmConfig config;
      config.num_registers = 64;
      config.fault.abort_permille = 1000;  // every opportunity, until...
      config.fault.max_per_thread = storm_budget;  // ...the budget drains
      config.fault.sites =
          rt::fault_site_bit(rt::FaultSite::kReadValidation);
      auto tmi = tm::make_tm(tm::TmKind::kTl2Fused, config);

      service::SessionStoreConfig store_cfg;
      store_cfg.buckets = shape.buckets;
      store_cfg.bucket_capacity = shape.bucket_capacity;
      service::SessionStore store(*tmi, store_cfg);

      service::WorkloadConfig cfg;
      cfg.threads = shape.threads;
      cfg.num_keys = shape.num_keys;
      cfg.ttl_ticks = shape.ttl_ticks;
      cfg.sweep_mode = service::SweepMode::kSyncFence;
      cfg.sweep_every_ticks = shape.sweep_every_ticks;

      std::unique_ptr<rt::AdaptiveGovernor> governor;
      if (col.adaptive) {
        rt::GovernorConfig gov_cfg;
        gov_cfg.epoch_commits = 64;
        gov_cfg.steady_escalate_after = kShiftEscalateAfter;
        gov_cfg.backoff_escalate_after = kShiftEscalateAfter;
        gov_cfg.storm_escalate_after = 8;
        governor = std::make_unique<rt::AdaptiveGovernor>(
            tmi->stats(), gov_cfg, tmi->trace_ptr());
        cfg.governor = governor.get();
      } else {
        tm::TxRetryOptions retry;
        retry.policy = col.policy;
        retry.escalate_after = kShiftEscalateAfter;
        store.set_retry_options(retry);
      }

      service::PhaseConfig storm;
      storm.label = "hot-storm";
      storm.ops_per_thread = shape.ops_per_thread;
      storm.zipf_s = 0.99;
      storm.hot_permille = 800;
      storm.hot_keys = 8;
      storm.mix.put_permille = 300;

      service::PhaseConfig steady;
      steady.label = "steady";
      steady.ops_per_thread = shape.ops_per_thread;
      steady.zipf_s = 0.99;

      std::atomic<std::uint64_t> clock{1};
      const auto storm_result =
          service::run_phase(*tmi, store, cfg, storm, seed + rep * 2, clock);
      const auto steady_result = service::run_phase(*tmi, store, cfg, steady,
                                                    seed + rep * 2 + 1, clock);

      ShiftCell cell;
      cell.policy = col.label;
      cell.storm_ops_per_sec =
          storm_result.seconds > 0.0
              ? static_cast<double>(storm_result.throughput_ops()) /
                    storm_result.seconds
              : 0.0;
      cell.steady_ops_per_sec =
          steady_result.seconds > 0.0
              ? static_cast<double>(steady_result.throughput_ops()) /
                    steady_result.seconds
              : 0.0;
      const double total_secs = storm_result.seconds + steady_result.seconds;
      cell.schedule_ops_per_sec =
          total_secs > 0.0
              ? static_cast<double>(storm_result.throughput_ops() +
                                    steady_result.throughput_ops()) /
                    total_secs
              : 0.0;
      cell.aborts = tmi->stats().total(rt::Counter::kTxAbort);
      cell.backoffs = tmi->stats().total(rt::Counter::kTxRetryBackoff);
      cell.escalations = tmi->stats().total(rt::Counter::kTxEscalated);
      cell.violations = storm_result.consistency_violations +
                        steady_result.consistency_violations;
      if (col.adaptive) {
        cell.epochs = governor->epochs();
        cell.shifts = governor->shifts();
        cell.storm_shifts = storm_result.governor_shifts;
        cell.final_policy = rt::cm_policy_name(governor->decision().policy);
      }
      all_rep_violations += cell.violations;
      if (rep == 0 || cell.schedule_ops_per_sec > best.schedule_ops_per_sec) {
        best = cell;
      }
    }
    ShiftCell cell = best;
    cell.violations = all_rep_violations;
    std::cout << "storm-shift " << cell.policy << ": storm "
              << static_cast<std::uint64_t>(cell.storm_ops_per_sec)
              << " ops/s, steady "
              << static_cast<std::uint64_t>(cell.steady_ops_per_sec)
              << " ops/s, schedule "
              << static_cast<std::uint64_t>(cell.schedule_ops_per_sec)
              << " ops/s, escalations " << cell.escalations;
    if (col.adaptive) {
      std::cout << ", epochs " << cell.epochs << ", shifts " << cell.shifts
                << " (storm " << cell.storm_shifts << "), final "
                << cell.final_policy;
    }
    std::cout << "\n";
    cells.push_back(cell);
  }
  return cells;
}

/// The storm-shift gates (see the section comment above). Run in quick AND
/// full mode — the committed BENCH_service.json must never record a run
/// where the governor lost to the static floor.
int gate_shift(const std::vector<ShiftCell>& cells) {
  int failures = 0;
  const ShiftCell* adaptive = nullptr;
  double best_static_steady = 0.0;
  double worst_static_schedule = 0.0;
  bool first_static = true;
  for (const auto& c : cells) {
    if (c.policy == "adaptive") {
      adaptive = &c;
    } else {
      best_static_steady = std::max(best_static_steady,
                                    c.steady_ops_per_sec);
      worst_static_schedule =
          first_static ? c.schedule_ops_per_sec
                       : std::min(worst_static_schedule,
                                  c.schedule_ops_per_sec);
      first_static = false;
    }
    if (c.violations != 0) {
      std::cerr << "FAIL: storm-shift " << c.policy << " reported "
                << c.violations << " consistency violations\n";
      ++failures;
    }
  }
  if (adaptive == nullptr) {
    std::cerr << "FAIL: storm-shift schedule has no adaptive column\n";
    return failures + 1;
  }
  if (adaptive->epochs == 0) {
    std::cerr << "FAIL: the adaptive column evaluated no governor epochs\n";
    ++failures;
  }
  if (adaptive->storm_shifts == 0) {
    std::cerr << "FAIL: the adaptive column adopted no policy shift "
                 "during the storm phase\n";
    ++failures;
  }
  if (adaptive->steady_ops_per_sec < 0.9 * best_static_steady) {
    std::cerr << "FAIL: adaptive steady phase "
              << adaptive->steady_ops_per_sec
              << " ops/s fell below 0.9x the best static column ("
              << best_static_steady << " ops/s)\n";
    ++failures;
  }
  if (adaptive->schedule_ops_per_sec < worst_static_schedule) {
    std::cerr << "FAIL: adaptive schedule "
              << adaptive->schedule_ops_per_sec
              << " ops/s lost to the worst static column ("
              << worst_static_schedule << " ops/s)\n";
    ++failures;
  }
  return failures;
}

void emit_op_classes(std::ofstream& out, const ServiceRow& r) {
  out << "\"op_classes\": {";
  for (std::size_t c = 0; c < kOpClassCount; ++c) {
    const auto& cell = r.op[c];
    out << "\"" << service::op_class_name(static_cast<OpClass>(c))
        << "\": {\"count\": " << cell.count << ", \"p50\": " << cell.p50
        << ", \"p99\": " << cell.p99 << ", \"p999\": " << cell.p999 << "}"
        << (c + 1 < kOpClassCount ? ", " : "");
  }
  out << "}";
}

/// Schema 2: adds the optional `metrics` object — the traced cell's
/// registry snapshot (rt::to_json), counters + op-class histograms + the
/// per-stripe conflict heat map. Schema 3 adds the `governor` block: the
/// traced (governed) cell's epoch/shift totals and live policy, plus the
/// storm-shift schedule columns (adaptive vs each static CmPolicy).
bool write_service_json(const std::string& path, const MatrixShape& shape,
                        const std::vector<ServiceRow>& rows,
                        const TracedCell& traced,
                        const std::vector<ShiftCell>& shift) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"service\",\n  \"schema\": 3,\n"
      << "  \"config\": {\"threads\": " << shape.threads
      << ", \"num_keys\": " << shape.num_keys
      << ", \"ops_per_thread\": " << shape.ops_per_thread
      << ", \"buckets\": " << shape.buckets
      << ", \"bucket_capacity\": " << shape.bucket_capacity
      << ", \"ttl_ticks\": " << shape.ttl_ticks
      << ", \"sweep_every_ticks\": " << shape.sweep_every_ticks
      << ", \"latency_unit\": \"ns\"},\n";
  out << "  \"governor\": {\"epochs\": " << traced.governor_epochs
      << ", \"shifts\": " << traced.governor_shifts
      << ", \"policy\": \"" << traced.governor_policy << "\",\n"
      << "    \"storm_shift\": [\n";
  for (std::size_t i = 0; i < shift.size(); ++i) {
    const auto& c = shift[i];
    out << "      {\"policy\": \"" << c.policy
        << "\", \"storm_ops_per_sec\": " << c.storm_ops_per_sec
        << ", \"steady_ops_per_sec\": " << c.steady_ops_per_sec
        << ", \"schedule_ops_per_sec\": " << c.schedule_ops_per_sec
        << ", \"aborts\": " << c.aborts
        << ", \"backoffs\": " << c.backoffs
        << ", \"escalations\": " << c.escalations
        << ", \"epochs\": " << c.epochs << ", \"shifts\": " << c.shifts
        << ", \"storm_shifts\": " << c.storm_shifts
        << ", \"final_policy\": \"" << c.final_policy << "\"}"
        << (i + 1 < shift.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n";
  if (!traced.metrics_json.empty()) {
    out << "  \"metrics\": " << traced.metrics_json << ",\n";
  }
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"backend\": \"" << r.backend << "\", \"fence_mode\": \""
        << r.fence_mode << "\", \"phase\": \"" << r.phase
        << "\", \"threads\": " << r.threads << ",\n     ";
    emit_op_classes(out, r);
    out << ",\n     \"ops_per_sec\": " << r.ops_per_sec
        << ", \"get_hits\": " << r.get_hits
        << ", \"get_misses\": " << r.get_misses
        << ", \"put_failures\": " << r.put_failures
        << ", \"sweeps\": " << r.sweeps
        << ", \"sweep_scanned\": " << r.sweep_scanned
        << ", \"sweep_retired\": " << r.sweep_retired
        << ", \"consistency_violations\": " << r.consistency_violations
        << ",\n     \"commits\": " << r.commits << ", \"aborts\": "
        << r.aborts << ", \"backoffs\": " << r.backoffs
        << ", \"escalations\": " << r.escalations
        << ", \"shard_steals\": " << r.shard_steals
        << ", \"fences\": " << r.fences << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

/// Quick-mode self gates (the CI smoke): every cell's sweeps must retire
/// sessions, every traffic op class must have samples with percentiles,
/// and nothing may report a consistency violation.
int gate(const std::vector<ServiceRow>& rows) {
  int failures = 0;
  for (const auto& r : rows) {
    if (r.sweep_retired == 0) {
      std::cerr << "FAIL: " << row_label(r)
                << " retired no expired sessions\n";
      ++failures;
    }
    if (r.consistency_violations != 0) {
      std::cerr << "FAIL: " << row_label(r) << " reported "
                << r.consistency_violations << " consistency violations\n";
      ++failures;
    }
    for (std::size_t c = 0; c < kOpClassCount; ++c) {
      if (r.op[c].count == 0 || r.op[c].p999 == 0 ||
          r.op[c].p50 > r.op[c].p99 || r.op[c].p99 > r.op[c].p999) {
        std::cerr << "FAIL: " << row_label(r) << " op class "
                  << service::op_class_name(static_cast<OpClass>(c))
                  << " has no samples or non-monotone percentiles\n";
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace
}  // namespace privstm::bench

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  const auto& shape =
      quick ? privstm::bench::kQuickShape : privstm::bench::kFullShape;
  const auto rows = privstm::bench::run_matrix(shape, /*seed=*/42);
  const auto traced =
      privstm::bench::run_traced_cell(shape, /*seed=*/43, trace_path);
  const auto shift = privstm::bench::run_shift_schedule(shape, /*seed=*/44);
  const char* path =
      quick ? "BENCH_service.quick.json" : "BENCH_service.json";
  if (!privstm::bench::write_service_json(path, shape, rows, traced,
                                          shift)) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << rows.size() << " rows to " << path << "\n";
  int failures = privstm::bench::gate(rows);
  failures += privstm::bench::gate_shift(shift);
  // Heat-map gate: the traced hot-key storm serializes 800 permille of its
  // traffic through 8 keys, so conflict aborts MUST land in the per-stripe
  // heat map — zero means abort attribution lost its stripes.
  if (traced.heat_conflicts == 0) {
    std::cerr << "FAIL: traced hot-storm cell produced an empty conflict "
                 "heat map (total_conflicts == 0)\n";
    ++failures;
  }
  // Governed-traced-cell gate: its injected abort rate sits far above the
  // cell's storm threshold, so the governor must have adopted at least one
  // policy shift — the kGovernorPolicyShift instants the Perfetto dump
  // (and ci.sh's grep on it) rely on.
  if (traced.governor_shifts == 0) {
    std::cerr << "FAIL: the governed traced cell adopted no policy shift "
                 "(kGovernorPolicyShift == 0)\n";
    ++failures;
  }
  if (failures != 0) {
    std::cerr << failures << " gate failure(s)\n";
    return 1;
  }
  return 0;
}
