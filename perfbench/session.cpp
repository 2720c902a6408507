// The three closed-loop session-store workloads. Each worker thread is an
// app thread that waits for every reply before sending its next op, so a
// slow store receives less load. Keys, op mix and payload sizes come from
// the seed; the store runs on the tl2fused backend.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "runtime/adaptive.hpp"
#include "runtime/barrier.hpp"
#include "runtime/rng.hpp"
#include "service/session_store.hpp"
#include "service/workload.hpp"
#include "tm/factory.hpp"

namespace perfbench {
namespace {

using namespace privstm;
using service::OpClass;
using service::SessionStore;
using service::SweepMode;

struct SessionSpec {
  const char* name;
  std::size_t workers;
  bool sweeper;
  SweepMode sweep_mode;
  std::uint64_t sweep_every_us;  ///< sweeper cadence; 0 = back to back
  std::uint32_t hot_permille;    ///< ops redirected to kHotKeys keys
  std::uint32_t put_permille;
  std::uint32_t touch_permille;
  std::uint32_t erase_permille;  ///< gets take the rest
  std::uint64_t ttl_us;
  bool governed;                 ///< adaptive governor attached
};

// 16 Ki keys of 3 + 4..192 cells each: ~8 MB of records, more than L2.
constexpr std::size_t kKeys = 16384;
constexpr double kZipf = 0.99;
constexpr std::size_t kHotKeys = 8;
// 64 Ki index slots for 16 Ki keys, so no put ever finds its bucket full.
constexpr std::size_t kBuckets = 64;
constexpr std::size_t kBucketCapacity = 1024;
constexpr std::uint64_t kNeverUs = 3'600'000'000;  // an hour

constexpr SessionSpec kSpecs[] = {
    {"session-read", 2, true, SweepMode::kSyncFence, 250'000, 0, 200, 80, 20,
     kNeverUs, false},
    {"session-storm", 3, false, SweepMode::kSyncFence, 0, 500, 500, 50, 10,
     kNeverUs, true},
    // A 50 ms TTL against continuous sweeps: every pass finds records that
    // expired since the previous one.
    {"session-expiry", 2, true, SweepMode::kAsyncFence, 0, 0, 300, 80, 20,
     50'000, false},
};

constexpr std::size_t kRounds = 5;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed * 0x9E3779B97F4A7C15ULL + stream;
  return rt::splitmix64(sm);
}

std::size_t payload_cells(rt::Xoshiro256& rng) {
  return service::kPayloadSizes[rng.below(std::size(service::kPayloadSizes))];
}

/// Members are destroyed store first, TM last.
struct Instance {
  std::unique_ptr<tm::TransactionalMemory> tm;
  std::unique_ptr<rt::AdaptiveGovernor> governor;
  std::unique_ptr<SessionStore> store;
};

/// TM construction plus store prefill: every key present with a seeded
/// payload size. Returns false if the prefill failed a put.
bool build(const SessionSpec& spec, bool traced, std::uint64_t seed,
           std::uint64_t base_ns, Instance& in) {
  tm::TmConfig config;
  if (traced) {
    config.trace.enabled = true;
    config.trace.ring_capacity = std::size_t{1} << 15;
  }
  in.tm = tm::make_tm(tm::TmKind::kTl2Fused, config);
  in.store = std::make_unique<SessionStore>(
      *in.tm, service::SessionStoreConfig{kBuckets, kBucketCapacity});
  if (spec.governed) {
    // bench_service's governed-cell thresholds.
    rt::GovernorConfig gov;
    gov.epoch_commits = 64;
    gov.low_abort_permille = 5;
    gov.high_abort_permille = 60;
    in.governor = std::make_unique<rt::AdaptiveGovernor>(
        in.tm->stats(), gov, in.tm->trace_ptr());
    in.store->set_governor(in.governor.get());
  }
  auto session = in.tm->make_thread(0, nullptr);
  rt::Xoshiro256 rng(stream_seed(seed, 0));
  const std::uint64_t now_us = (now_ns() - base_ns) / 1000 + 1;
  bool ok = true;
  for (tm::Value key = 1; key <= kKeys; ++key) {
    ok &= in.store->put(*session, key, now_us + spec.ttl_us,
                        payload_cells(rng), key) ==
          SessionStore::PutStatus::kOk;
  }
  return ok;
}

struct WorkerOut {
  std::vector<Histogram> get, put;  ///< per slice, ns
  std::vector<std::uint64_t> ops;   ///< completed per slice
  std::uint64_t put_full = 0;
  std::uint64_t violations = 0;
};

struct Measured {
  std::vector<double> tput;  ///< per slice, ops/s
  std::vector<Histogram> get, put;
  Histogram get_all, put_all;
  OpCounts counts;
  std::uint64_t violations = 0;
  std::uint64_t sweeps = 0, retired = 0, busy_ns = 0;
  CounterSnap counters;  ///< deltas over the window
  double window_s = 0.0;

  /// Pools another round's slices and counts into this one.
  void append(const Measured& o) {
    tput.insert(tput.end(), o.tput.begin(), o.tput.end());
    get.insert(get.end(), o.get.begin(), o.get.end());
    put.insert(put.end(), o.put.begin(), o.put.end());
    get_all.merge(o.get_all);
    put_all.merge(o.put_all);
    counts.succeeded += o.counts.succeeded;
    counts.failed += o.counts.failed;
    violations += o.violations;
    sweeps += o.sweeps;
    retired += o.retired;
    busy_ns += o.busy_ns;
    window_s += o.window_s;
  }
};

/// One closed-loop window: `warmup_s` unmeasured, then `window_s` cut into
/// slices. With `layers`, ops are also pushed as spans and the main thread
/// drains the trace while the workers run.
Measured measure(const SessionSpec& spec, Instance& in, std::uint64_t seed,
                 std::uint64_t base_ns, double warmup_s, double window_s,
                 TraceLayers* layers) {
  const std::size_t slices =
      std::max<std::size_t>(4, static_cast<std::size_t>(window_s + 0.5));
  const std::size_t threads = spec.workers + (spec.sweeper ? 1 : 0);
  const std::uint64_t ws =
      now_ns() + static_cast<std::uint64_t>(warmup_s * 1e9);
  const std::uint64_t we = ws + static_cast<std::uint64_t>(window_s * 1e9);
  const auto clock_us = [base_ns](std::uint64_t t) {
    return (t - base_ns) / 1000 + 1;
  };

  std::vector<WorkerOut> outs(spec.workers);
  for (WorkerOut& o : outs) {
    o.get.resize(slices);
    o.put.resize(slices);
    o.ops.resize(slices);
  }
  std::uint64_t sweeps = 0, retired = 0, busy_ns = 0;
  rt::SpinBarrier barrier(threads + 1);
  std::vector<std::thread> pool;
  SessionStore& store = *in.store;
  tm::TransactionalMemory& tmi = *in.tm;

  for (std::size_t w = 0; w < spec.workers; ++w) {
    pool.emplace_back([&, w] {
      auto session = tmi.make_thread(static_cast<hist::ThreadId>(w + 1),
                                     nullptr);
      if (layers != nullptr) layers->bind_worker(w, session->stat_slot());
      service::ZipfianGenerator zipf(kKeys, kZipf,
                                     stream_seed(seed, 2 * w + 1));
      rt::Xoshiro256 rng(stream_seed(seed, 2 * w + 2));
      tm::Value tag = static_cast<tm::Value>(w + 1) << 40;
      WorkerOut& out = outs[w];
      barrier.arrive_and_wait();
      for (;;) {
        tm::Value key;
        if (spec.hot_permille != 0 && rng.below(1000) < spec.hot_permille) {
          key = 1 + rng.below(kHotKeys);
        } else {
          key = 1 + static_cast<tm::Value>(zipf.sample());
        }
        const std::uint64_t draw = rng.below(1000);
        OpClass op = OpClass::kGet;
        if (draw < spec.put_permille) {
          op = OpClass::kPut;
        } else if (draw < spec.put_permille + spec.touch_permille) {
          op = OpClass::kTouch;
        } else if (draw < spec.put_permille + spec.touch_permille +
                              spec.erase_permille) {
          op = OpClass::kErase;
        }
        const std::size_t cells = payload_cells(rng);
        bool full = false;
        bool violation = false;
        const std::uint64_t t0 = now_ns();
        const std::uint64_t now_us = clock_us(t0);
        switch (op) {
          case OpClass::kPut:
            full = store.put(*session, key, now_us + spec.ttl_us, cells,
                             ++tag) != SessionStore::PutStatus::kOk;
            break;
          case OpClass::kTouch:
            store.touch(*session, key, now_us + spec.ttl_us);
            break;
          case OpClass::kErase:
            store.erase(*session, key);
            break;
          default: {
            const auto r = store.get(*session, key, now_us);
            violation = r.hit && !r.consistent;
            break;
          }
        }
        const std::uint64_t t1 = now_ns();
        if (t1 >= we) break;
        if (t1 < ws) continue;
        const std::size_t slice = (t1 - ws) * slices / (we - ws);
        ++out.ops[slice];
        out.put_full += full ? 1 : 0;
        out.violations += violation ? 1 : 0;
        if (op == OpClass::kGet) out.get[slice].record(t1 - t0);
        if (op == OpClass::kPut) out.put[slice].record(t1 - t0);
        if (layers != nullptr) {
          layers->push_op(w, Span{t0, t1}, static_cast<std::uint8_t>(op));
        }
      }
    });
  }
  if (spec.sweeper) {
    pool.emplace_back([&] {
      auto session = tmi.make_thread(
          static_cast<hist::ThreadId>(spec.workers + 1), nullptr);
      barrier.arrive_and_wait();
      std::uint64_t next = now_ns();
      for (;;) {
        const std::uint64_t t = now_ns();
        if (t >= we) break;
        if (spec.sweep_every_us != 0 && t < next) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(std::min(next, we) - t));
          continue;
        }
        next = t + spec.sweep_every_us * 1000;
        const auto s = store.sweep_expired(*session, clock_us(t),
                                           spec.sweep_mode);
        if (t >= ws) {
          ++sweeps;
          retired += s.retired;
          busy_ns += now_ns() - t;
        }
      }
    });
  }

  barrier.arrive_and_wait();
  const auto wait_until = [&](std::uint64_t deadline, bool fold) {
    for (;;) {
      const std::uint64_t t = now_ns();
      if (t >= deadline) return;
      if (layers == nullptr) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - t));
        continue;
      }
      if (fold) {
        layers->poll();
      } else {
        layers->discard();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  wait_until(ws, false);
  if (layers != nullptr) layers->discard();
  const CounterSnap before = CounterSnap::of(tmi.stats());
  wait_until(we, true);
  const CounterSnap after = CounterSnap::of(tmi.stats());
  for (std::thread& t : pool) t.join();
  if (layers != nullptr) layers->poll();

  Measured m;
  m.window_s = window_s;
  m.counters = after.minus(before);
  m.get.resize(slices);
  m.put.resize(slices);
  const double slice_s = window_s / static_cast<double>(slices);
  for (std::size_t s = 0; s < slices; ++s) {
    std::uint64_t ops = 0;
    for (const WorkerOut& o : outs) {
      ops += o.ops[s];
      m.get[s].merge(o.get[s]);
      m.put[s].merge(o.put[s]);
    }
    m.tput.push_back(static_cast<double>(ops) / slice_s);
    m.get_all.merge(m.get[s]);
    m.put_all.merge(m.put[s]);
  }
  for (const WorkerOut& o : outs) {
    for (const std::uint64_t n : o.ops) m.counts.succeeded += n;
    m.counts.succeeded -= o.put_full;
    m.counts.failed += o.put_full;
    m.violations += o.violations;
  }
  m.sweeps = sweeps;
  m.retired = retired;
  m.busy_ns = busy_ns;
  return m;
}

/// Correctness gates common to every window: no torn or recycled record
/// was read, no put failed, and (after the traffic stops) every present
/// record is consistent and a final sweep at t = infinity reclaims exactly
/// the present records.
void check_window(const SessionSpec& spec, Instance& in, const Measured& m,
                  RunResult& out) {
  if (m.violations != 0) {
    out.fail(std::to_string(m.violations) +
             " gets read a record inconsistent with its header");
  }
  if (spec.sweeper && spec.ttl_us < kNeverUs && m.retired == 0) {
    out.fail("the expiry sweeps retired nothing");
  }
  auto session = in.tm->make_thread(0, nullptr);
  std::uint64_t present = 0;
  for (tm::Value key = 1; key <= kKeys; ++key) {
    const auto r = in.store->get(*session, key, 0);
    if (!r.hit) continue;
    ++present;
    if (!r.consistent) out.fail("key " + std::to_string(key) + " is torn");
  }
  const auto s = in.store->sweep_expired(*session, ~std::uint64_t{0} - 1,
                                         SweepMode::kSyncFence);
  if (s.retired != present) {
    out.fail("final sweep retired " + std::to_string(s.retired) + " of " +
             std::to_string(present) + " present records");
  }
  for (tm::Value key = 1; key <= kKeys; ++key) {
    if (in.store->get(*session, key, 0).hit) {
      out.fail("key " + std::to_string(key) + " survived the final sweep");
      break;
    }
  }
}

}  // namespace

bool is_session_workload(const std::string& name) {
  for (const SessionSpec& s : kSpecs) {
    if (name == s.name) return true;
  }
  return false;
}

RunResult run_session_workload(const Options& opt) {
  const SessionSpec* found = nullptr;
  for (const SessionSpec& s : kSpecs) {
    if (opt.workload == s.name) found = &s;
  }
  const SessionSpec& spec = *found;
  RunResult out;
  char threads[160];
  std::snprintf(threads, sizeof threads, "%zu workers%s", spec.workers,
                spec.sweeper ? (spec.sweep_mode == SweepMode::kAsyncFence
                                    ? " + 1 sweeper (async fence, continuous)"
                                    : " + 1 sweeper (sync fence, every 250 ms)")
                             : ", no sweeper");
  out.threads = threads;
  const std::uint64_t base_ns = now_ns();

  if (!opt.trace) {
    // Rounds, each on a fresh instance and fresh threads: a run's figures
    // are medians over the slices of every round, so one unlucky memory
    // layout or thread placement cannot move them. Each round's set-up
    // and peak resident set are samples of setup_s and rss_mb.
    Measured all;
    std::vector<double> setup_s, rss;
    const double round_s = opt.seconds / kRounds;
    for (std::size_t r = 0; r < kRounds; ++r) {
      reset_peak_rss();
      Instance in;
      const std::uint64_t t0 = now_ns();
      if (!build(spec, false, opt.seed + r * 0x10000, base_ns, in)) {
        out.fail("prefill put found its bucket full");
      }
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      const Measured m = measure(spec, in, opt.seed + r * 0x10000, base_ns,
                                 0.5, round_s, nullptr);
      rss.push_back(peak_rss_mb());
      check_window(spec, in, m, out);
      all.append(m);
    }
    out.ops = all.counts;
    out.add("throughput_ops_s", median(all.tput), "1/s");
    out.add("get_p50_us", slice_quantile_us(all.get, 500, "get p50", out),
            "us");
    out.add("get_p99_us", slice_quantile_us(all.get, 990, "get p99", out),
            "us");
    out.add("put_p50_us", slice_quantile_us(all.put, 500, "put p50", out),
            "us");
    out.add("put_p99_us", slice_quantile_us(all.put, 990, "put p99", out),
            "us");
    out.add("setup_s", median(setup_s), "s",
            "median of " + std::to_string(kRounds) + " set-ups");
    out.add("rss_mb", median(rss), "MB",
            "median over rounds of the round's peak resident set");
    out.notes.push_back(
        "ops: attempted " + std::to_string(all.counts.attempted()) +
        ", succeeded " + std::to_string(all.counts.succeeded) + ", failed " +
        std::to_string(all.counts.failed) + " (put kFull), get samples " +
        std::to_string(all.get_all.count()) + ", put samples " +
        std::to_string(all.put_all.count()) + ", sweeps " +
        std::to_string(all.sweeps) + " retiring " +
        std::to_string(all.retired));
    return out;
  }

  // Traced run: the same closed loop twice, half the time each — untraced,
  // then with the TM's trace rings and the benchmark's own spans on. The
  // throughput ratio is the tracing overhead; the layers come from the
  // second half.
  const double half = opt.seconds / 2.0;
  double untraced_tput = 0.0;
  {
    Instance in;
    if (!build(spec, false, opt.seed, base_ns, in)) {
      out.fail("prefill put found its bucket full");
    }
    const Measured m =
        measure(spec, in, opt.seed, base_ns, 0.5, half, nullptr);
    check_window(spec, in, m, out);
    untraced_tput = median(m.tput);
    out.ops = m.counts;
  }
  Instance in;
  if (!build(spec, true, opt.seed, base_ns, in)) {
    out.fail("prefill put found its bucket full");
  }
  TraceLayers layers(in.tm->trace(), spec.workers);
  const Measured m = measure(spec, in, opt.seed, base_ns, 0.5, half, &layers);
  check_window(spec, in, m, out);
  out.ops.succeeded += m.counts.succeeded;
  out.ops.failed += m.counts.failed;

  LayerInputs li;
  li.counters = m.counters;
  li.trace = &layers;
  li.ops = m.counts.attempted();
  li.put_full = m.counts.failed;
  li.window_s = m.window_s;
  li.sweeps = m.sweeps;
  li.sweep_retired = m.retired;
  li.sweep_busy_ns = m.busy_ns;
  li.arena_cells = in.tm->heap().allocated_end();
  li.overhead_share =
      untraced_tput > 0.0 ? 1.0 - median(m.tput) / untraced_tput : 0.0;
  add_layer_metrics(out, li);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".perfetto.json";
    if (layers.write_perfetto(path)) out.notes.push_back("perfetto: " + path);
  }
  return out;
}

}  // namespace perfbench
