// Correctness tests for the transactional session-store service layer
// (service/session_store.hpp, DESIGN.md §12), in two parts:
//
//  * ServiceStore — the store's semantics on every backend: record
//    lifecycle (put/get/touch/erase/expiry), replacement reclamation,
//    and linearizability-style invariants under full concurrent traffic
//    with a live privatizing sweeper in both fence modes. The payload
//    self-verification (every cell a function of key/tag) turns torn
//    snapshots or use-after-free scribbles into counted violations, which
//    must be zero.
//
//  * ServiceSweepLitmus — the sweep protocol distilled to a litmus
//    program (publish record → reader's freeze-guarded payload read vs
//    freeze → [fence] → NT expiry read → free → re-alloc → NT refill):
//    the explorer proves the unfenced variant racy with every race on
//    the freed record and the fenced variant DRF; the same program runs
//    against all four real backends, where the existing race machinery
//    must flag the unfenced sweep and clear the fenced one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "drf/race.hpp"
#include "history/wellformed.hpp"
#include "lang/explorer.hpp"
#include "lang/interp.hpp"
#include "lang/litmus.hpp"
#include "runtime/barrier.hpp"
#include "service/workload.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::TmKind;
namespace service = privstm::service;

// ---------------------------------------------------------------------------
// ServiceStore: semantics on every backend.
// ---------------------------------------------------------------------------

class ServiceStore : public ::testing::TestWithParam<TmKind> {
 protected:
  std::unique_ptr<tm::TransactionalMemory> make() {
    tm::TmConfig config;
    config.num_registers = 64;
    return tm::make_tm(GetParam(), config);
  }
};

TEST_P(ServiceStore, RecordLifecycle) {
  auto tmi = make();
  service::SessionStore store(*tmi, {.buckets = 4, .bucket_capacity = 64});
  auto session = tmi->make_thread(0, nullptr);

  // Miss before any put.
  EXPECT_FALSE(store.get(*session, 7, /*now=*/0).hit);
  EXPECT_FALSE(store.touch(*session, 7, 100));
  EXPECT_FALSE(store.erase(*session, 7));

  // Put, then a verified hit.
  ASSERT_EQ(store.put(*session, 7, /*expiry=*/100, /*payload_cells=*/12,
                      /*tag=*/0xAB),
            service::SessionStore::PutStatus::kOk);
  const auto r = store.get(*session, 7, /*now=*/50);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.tag, 0xABu);
  EXPECT_EQ(r.payload_cells, 12u);

  // Expiry is a miss without reclamation; touch revives it.
  EXPECT_FALSE(store.get(*session, 7, /*now=*/100).hit);
  EXPECT_TRUE(store.touch(*session, 7, /*expiry=*/200));
  EXPECT_TRUE(store.get(*session, 7, /*now=*/150).hit);

  // Erase frees and forgets.
  EXPECT_TRUE(store.erase(*session, 7));
  EXPECT_FALSE(store.get(*session, 7, /*now=*/150).hit);
  EXPECT_FALSE(store.erase(*session, 7));
}

TEST_P(ServiceStore, ReplacementChangesSizeAndTag) {
  auto tmi = make();
  service::SessionStore store(*tmi, {.buckets = 2, .bucket_capacity = 32});
  auto session = tmi->make_thread(0, nullptr);

  ASSERT_EQ(store.put(*session, 3, 100, 8, /*tag=*/1),
            service::SessionStore::PutStatus::kOk);
  ASSERT_EQ(store.put(*session, 3, 100, 64, /*tag=*/2),
            service::SessionStore::PutStatus::kOk);
  const auto r = store.get(*session, 3, 0);
  ASSERT_TRUE(r.hit);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.tag, 2u);
  EXPECT_EQ(r.payload_cells, 64u);
}

TEST_P(ServiceStore, PutReportsFullOnProbeExhaustion) {
  auto tmi = make();
  // One bucket, tiny capacity: keys all land in it.
  service::SessionStore store(*tmi, {.buckets = 1, .bucket_capacity = 4});
  auto session = tmi->make_thread(0, nullptr);
  std::size_t stored = 0;
  std::size_t full = 0;
  for (tm::Value key = 1; key <= 8; ++key) {
    if (store.put(*session, key, 100, 4, key) ==
        service::SessionStore::PutStatus::kOk) {
      ++stored;
    } else {
      ++full;
    }
  }
  EXPECT_EQ(stored, 4u);
  EXPECT_EQ(full, 4u);
  // The rejected puts freed their records; the stored ones still verify.
  for (tm::Value key = 1; key <= 8; ++key) {
    const auto r = store.get(*session, key, 0);
    EXPECT_TRUE(r.consistent);
  }
}

TEST_P(ServiceStore, SweepReclaimsExpiredOnly) {
  for (const service::SweepMode mode : {service::SweepMode::kSyncFence,
                                        service::SweepMode::kAsyncFence}) {
    SCOPED_TRACE(service::sweep_mode_name(mode));
    auto tmi = make();
    service::SessionStore store(*tmi,
                                {.buckets = 4, .bucket_capacity = 64});
    auto session = tmi->make_thread(0, nullptr);
    // 16 sessions expiring at 100, 16 at 1000.
    for (tm::Value key = 1; key <= 16; ++key) {
      ASSERT_EQ(store.put(*session, key, 100, 8, key),
                service::SessionStore::PutStatus::kOk);
    }
    for (tm::Value key = 17; key <= 32; ++key) {
      ASSERT_EQ(store.put(*session, key, 1000, 8, key),
                service::SessionStore::PutStatus::kOk);
    }
    const auto stats = store.sweep_expired(*session, /*now=*/500, mode);
    EXPECT_EQ(stats.buckets, store.bucket_count());
    EXPECT_EQ(stats.scanned, 32u);
    EXPECT_EQ(stats.retired, 16u);
    for (tm::Value key = 1; key <= 16; ++key) {
      EXPECT_FALSE(store.get(*session, key, 500).hit);
    }
    for (tm::Value key = 17; key <= 32; ++key) {
      const auto r = store.get(*session, key, 500);
      EXPECT_TRUE(r.hit);
      EXPECT_TRUE(r.consistent);
    }
    // A second sweep finds nothing left to retire.
    EXPECT_EQ(store.sweep_expired(*session, 500, mode).retired, 0u);
  }
}

TEST_P(ServiceStore, SweepPrivatizesOnlyBucketsWithExpiredRecords) {
  // The find phase decides which buckets the sweep privatizes: each
  // bucket holding an expired record costs exactly one fence, a bucket
  // holding only live records costs none.
  for (const service::SweepMode mode : {service::SweepMode::kSyncFence,
                                        service::SweepMode::kAsyncFence}) {
    SCOPED_TRACE(service::sweep_mode_name(mode));
    auto tmi = make();
    service::SessionStore store(*tmi,
                                {.buckets = 4, .bucket_capacity = 64});
    ASSERT_EQ(store.bucket_count(), 4u);
    auto session = tmi->make_thread(0, nullptr);
    // 48 sessions. Those in buckets 0 and 2 alternate between expiring
    // at 100 and at 1000; those in buckets 1 and 3 all expire at 1000.
    std::vector<bool> has_expired(store.bucket_count(), false);
    std::uint64_t expired = 0;
    std::uint64_t flip = 0;
    for (tm::Value key = 1; key <= 48; ++key) {
      const std::size_t b = store.bucket_of(key);
      const bool expires = b % 2 == 0 && flip++ % 2 == 0;
      if (expires) {
        has_expired[b] = true;
        ++expired;
      }
      ASSERT_EQ(store.put(*session, key, expires ? 100 : 1000, 4, key),
                service::SessionStore::PutStatus::kOk);
    }
    const auto buckets_with_expired = static_cast<std::uint64_t>(
        std::count(has_expired.begin(), has_expired.end(), true));
    ASSERT_GE(buckets_with_expired, 1u);
    ASSERT_LT(buckets_with_expired, store.bucket_count());

    const rt::StatsDomain& counters = tmi->stats();
    const std::uint64_t fences = counters.total(rt::Counter::kFence);
    const auto stats = store.sweep_expired(*session, /*now=*/500, mode);
    EXPECT_EQ(counters.total(rt::Counter::kFence) - fences,
              buckets_with_expired);
    EXPECT_EQ(stats.buckets, store.bucket_count());
    EXPECT_EQ(stats.scanned, 48u);
    EXPECT_EQ(stats.retired, expired);

    // Nothing left to find: no bucket is privatized.
    const std::uint64_t fences_again = counters.total(rt::Counter::kFence);
    const auto again = store.sweep_expired(*session, 500, mode);
    EXPECT_EQ(counters.total(rt::Counter::kFence) - fences_again, 0u);
    EXPECT_EQ(again.buckets, store.bucket_count());
    EXPECT_EQ(again.scanned, 48u - expired);
    EXPECT_EQ(again.retired, 0u);
  }
}

TEST_P(ServiceStore, ConcurrentSweepersRetireEachRecordOnce) {
  // Two sweepers race over the same buckets: one's find phase meets
  // buckets the other holds frozen and waits them out, and both may pick
  // the same slot. Whichever sweeper re-checks a record first retires it;
  // the other finds the tombstone and must neither free it again nor
  // miss one (ASan and TSan run this).
  constexpr tm::Value kKeys = 96;
  for (const service::SweepMode mode : {service::SweepMode::kSyncFence,
                                        service::SweepMode::kAsyncFence}) {
    SCOPED_TRACE(service::sweep_mode_name(mode));
    auto tmi = make();
    service::SessionStore store(*tmi,
                                {.buckets = 4, .bucket_capacity = 64});
    auto session = tmi->make_thread(0, nullptr);
    for (int round = 0; round < 10; ++round) {
      for (tm::Value key = 1; key <= kKeys; ++key) {
        ASSERT_EQ(store.put(*session, key, /*expiry=*/100, 4, key),
                  service::SessionStore::PutStatus::kOk);
      }
      rt::SpinBarrier start(2);
      std::uint64_t retired[2] = {0, 0};
      std::thread rival([&] {
        auto sweeper = tmi->make_thread(1, nullptr);
        start.arrive_and_wait();
        retired[1] = store.sweep_expired(*sweeper, 500, mode).retired;
      });
      start.arrive_and_wait();
      retired[0] = store.sweep_expired(*session, 500, mode).retired;
      rival.join();
      EXPECT_EQ(retired[0] + retired[1], kKeys);
      for (tm::Value key = 1; key <= kKeys; ++key) {
        EXPECT_FALSE(store.get(*session, key, 0).hit);
      }
    }
  }
}

// Full concurrent traffic with a live sweeper: the workload harness's
// self-verifying payloads make this a linearizability-style soak — any
// torn snapshot, lost update, or sweep-induced use-after-free shows up
// as a consistency violation or an ASan report (this file is in the ASan
// and TSan ctest filters).
TEST_P(ServiceStore, ConcurrentTrafficWithSweeperIsConsistent) {
  for (const service::SweepMode mode : {service::SweepMode::kSyncFence,
                                        service::SweepMode::kAsyncFence}) {
    SCOPED_TRACE(service::sweep_mode_name(mode));
    auto tmi = make();
    service::SessionStore store(*tmi,
                                {.buckets = 4, .bucket_capacity = 256});
    service::WorkloadConfig cfg;
    cfg.threads = 4;
    cfg.num_keys = 256;
    cfg.ttl_ticks = 400;  // short sessions: the sweeper has work
    cfg.sweep_mode = mode;
    cfg.sweep_every_ticks = 200;
    service::PhaseConfig phase;
    phase.ops_per_thread = 800;
    phase.mix.put_permille = 400;  // write-heavy: maximize churn
    std::atomic<std::uint64_t> clock{1};

    const auto result =
        service::run_phase(*tmi, store, cfg, phase, /*seed=*/9, clock);

    EXPECT_EQ(result.consistency_violations, 0u)
        << "payload disagreed with its header under live sweeps";
    EXPECT_GT(result.sweeps, 0u);
    EXPECT_GT(result.sweep_retired, 0u) << "sweeper never reclaimed";
    EXPECT_GT(result.get_hits, 0u);
    const std::uint64_t puts =
        result.ops[static_cast<std::size_t>(service::OpClass::kPut)];
    EXPECT_GT(puts, 0u);
    // Latency telemetry flows: every traffic class recorded samples.
    for (const service::OpClass c :
         {service::OpClass::kGet, service::OpClass::kPut}) {
      const auto& h = result.latency[static_cast<std::size_t>(c)];
      EXPECT_GT(h.count(), 0u);
      EXPECT_LE(h.p50(), h.p999());
    }
  }
}

TEST_P(ServiceStore, HotKeyStormStaysConsistent) {
  auto tmi = make();
  service::SessionStore store(*tmi, {.buckets = 2, .bucket_capacity = 64});
  service::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.num_keys = 32;
  cfg.ttl_ticks = 300;
  cfg.sweep_every_ticks = 150;
  service::PhaseConfig storm;
  storm.label = "hot-storm";
  storm.ops_per_thread = 500;
  storm.hot_permille = 900;  // nearly everything on 4 keys
  storm.hot_keys = 4;
  storm.mix.put_permille = 500;
  std::atomic<std::uint64_t> clock{1};

  const auto result =
      service::run_phase(*tmi, store, cfg, storm, /*seed=*/23, clock);
  EXPECT_EQ(result.consistency_violations, 0u);
  EXPECT_GT(result.sweep_retired, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTms, ServiceStore,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// ServiceSweepLitmus: the sweep protocol as a model-checked program.
// ---------------------------------------------------------------------------

using namespace privstm::lang;

constexpr RegId kRPtr = 0;    // published record handle (the index entry)
constexpr RegId kRAck = 1;    // reader → sweeper handshake
constexpr RegId kRFreeze = 2; // the bucket freeze flag
constexpr std::size_t kRegisters = 3;

constexpr Value kPayload = 1911;  // original payload fill
constexpr Value kAck = 1912;
constexpr Value kFreezeTok = 1913;
constexpr Value kRefill = 1914;  // the next put's pre-publication fill

/// The expiry sweep vs a freeze-guarded get, distilled: thread 0 is the
/// service (put's publication, then the sweep), thread 1 a concurrent
/// reader. Record layout matches SessionStore: cell 0 expiry (vinit 0 =
/// already expired), cell 1 payload.
LitmusSpec make_sweep_litmus(bool with_fence, Value spin_limit) {
  LitmusSpec spec;
  spec.name = std::string("service_sweep_") +
              (with_fence ? "fenced" : "unfenced");
  spec.description =
      "Session-store expiry sweep: publish record; reader acks then does a "
      "freeze-guarded payload read; sweeper freezes, [fence,] NT-reads the "
      "expiry, frees the record, re-allocs (aliasing) and NT pre-fills the "
      "next record — unfenced, the pre-fill races with the guarded read";

  {  // Thread 0: the service (publication, then the sweep).
    ThreadBuilder b;
    const VarId h = b.local("h");
    const VarId h2 = b.local("h2");
    const VarId lp = b.local("lp");
    const VarId lf = b.local("lf");
    const VarId la = b.local("la");
    const VarId a = b.local("a");
    const VarId cnt = b.local("cnt");
    const VarId ve = b.local("ve");
    const VarId vb = b.local("vb");
    std::vector<CmdPtr> sweep;
    if (with_fence) sweep.push_back(fence_cmd());
    sweep.push_back(read_at(ve, h, 0));   // NT expiry read: 0 = expired
    sweep.push_back(free_cmd(h));         // retire the record
    sweep.push_back(alloc_cmd(h2, 2));    // the next put's allocation...
    sweep.push_back(write_at(h2, 1, kRefill));  // ...and its NT pre-fill
    sweep.push_back(read_at(vb, h2, 1));  // NT readback
    sweep.push_back(probe(0, constant(1)));  // swept
    sweep.push_back(probe(1, var(vb)));
    sweep.push_back(probe(2, var(h)));
    sweep.push_back(probe(3, var(h2)));
    CmdPtr t0 = seq(
        {alloc_cmd(h, 2),
         write_at(h, 1, kPayload),  // put's NT pre-publication fill
         atomic(lp, write(constant(kRPtr), var(h))),  // publish
         ifthen(
             eq(var(lp), constant(kCommitted)),
             seq({// Await the reader's ack (widens the race window).
                  assign(cnt, constant(0)),
                  whileloop(band(eq(var(a), constant(0)),
                                 lt(var(cnt), constant(spin_limit))),
                            seq({atomic(la, read(a, kRAck)),
                                 assign(cnt, add(var(cnt), constant(1)))})),
                  ifthen(
                      eq(var(a), constant(kAck)),
                      seq({atomic(lf, write(constant(kRFreeze),
                                            constant(kFreezeTok))),
                           ifthen(eq(var(lf), constant(kCommitted)),
                                  seq(std::move(sweep)))}))}))});
    spec.program.threads.push_back(std::move(b).finish(std::move(t0)));
  }

  {  // Thread 1: the reader — ack first, then the freeze-guarded get.
    ThreadBuilder b;
    const VarId p = b.local("p");
    const VarId lq = b.local("lq");
    const VarId lk = b.local("lk");
    const VarId lr = b.local("lr");
    const VarId f = b.local("f");
    const VarId v = b.local("v");
    const VarId cnt = b.local("cnt");
    CmdPtr guarded_get = atomic(
        lr, seq({read(f, kRFreeze),
                 ifthen(eq(var(f), constant(0)), read_at(v, p, 1))}));
    CmdPtr t1 = seq(
        {assign(cnt, constant(0)),
         whileloop(band(eq(var(p), constant(0)),
                        lt(var(cnt), constant(spin_limit))),
                   seq({atomic(lq, read(p, kRPtr)),
                        assign(cnt, add(var(cnt), constant(1)))})),
         ifthen(ne(var(p), constant(0)),
                seq({atomic(lk, write(constant(kRAck), constant(kAck))),
                     ifthen(eq(var(lk), constant(kCommitted)),
                            seq({std::move(guarded_get),
                                 // A guarded read that ran (f == 0) must
                                 // see the original payload — observing
                                 // the refill is the UAF smoking gun.
                                 ifthen(band(eq(var(f), constant(0)),
                                             eq(var(v), constant(kRefill))),
                                        probe(0, constant(1)))}))}))});
    spec.program.threads.push_back(std::move(b).finish(std::move(t1)));
  }

  spec.program.num_registers = kRegisters;
  spec.postcondition = [](const LitmusState& st) {
    // Sweep ran ⇒ the NT readback sees the refill (no delayed scribble),
    // and no guarded reader ever observed the refill.
    const bool readback_ok =
        st.probes[0][0] == 0 || st.probes[0][1] == kRefill;
    return readback_ok && st.probes[1][0] == 0;
  };
  return spec;
}

TEST(ServiceSweepLitmus, UnfencedSweepIsRacyOnTheFreedRecord) {
  const LitmusSpec spec = make_sweep_litmus(false, /*spin=*/1);
  const AtomicDrfReport report = check_drf_under_atomic(spec.program);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_FALSE(report.drf)
      << "explored " << report.total_outcomes
      << " outcomes without finding the sweep use-after-free";
  ASSERT_TRUE(report.racy_example.has_value());
  ASSERT_TRUE(report.example_races.has_value());
  const auto on_freed = drf::races_on_freed(report.racy_example->history,
                                            *report.example_races);
  EXPECT_FALSE(on_freed.empty())
      << "races landed outside the retired record:\n"
      << report.example_races->to_string(report.racy_example->history);
  EXPECT_EQ(on_freed.size(), report.example_races->races.size());
}

TEST(ServiceSweepLitmus, FencedSweepIsDrf) {
  const LitmusSpec spec = make_sweep_litmus(true, /*spin=*/1);
  const AtomicDrfReport report = check_drf_under_atomic(spec.program);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_TRUE(report.drf)
      << "racy example:\n"
      << (report.racy_example ? report.racy_example->history.to_string()
                              : "");
}

TEST(ServiceSweepLitmus, PostconditionHoldsUnderStrongAtomicity) {
  for (const bool fence : {false, true}) {
    const LitmusSpec spec = make_sweep_litmus(fence, /*spin=*/1);
    SCOPED_TRACE(spec.name);
    const ExplorationResult exploration = explore_atomic(spec.program);
    EXPECT_FALSE(exploration.truncated);
    ASSERT_FALSE(exploration.outcomes.empty());
    std::size_t swept = 0;
    for (const Outcome& outcome : exploration.outcomes) {
      const LitmusState state{outcome.locals, outcome.probes,
                              outcome.registers};
      EXPECT_TRUE(spec.postcondition(state))
          << spec.name << " violated:\n"
          << outcome.history.to_string();
      if (outcome.probes[0][0] == 1) {
        ++swept;
        // The canonical arena recycles: the next put's allocation aliases
        // the retired record — exactly why the fence must precede it.
        EXPECT_EQ(outcome.probes[0][2], outcome.probes[0][3]);
      }
    }
    EXPECT_GT(swept, 0u);
  }
}

class ServiceSweepLitmusReal : public ::testing::TestWithParam<TmKind> {};

TEST_P(ServiceSweepLitmusReal, RealTmRunsFlagUnfencedAndClearFenced) {
  constexpr Value kRealSpin = 2000;
  constexpr std::size_t kRuns = 8;
  for (const bool with_fence : {false, true}) {
    const LitmusSpec spec = make_sweep_litmus(with_fence, kRealSpin);
    SCOPED_TRACE(spec.name);
    std::size_t swept = 0;
    std::size_t racy = 0;
    for (std::size_t run = 0; run < kRuns; ++run) {
      tm::TmConfig config;
      config.num_registers = spec.program.num_registers;
      // Uncached, unsharded allocator: the sweep's re-alloc aliases the
      // freed record deterministically (as in ReclamationLitmus's ABA).
      config.alloc = {.magazine_size = 0, .limbo_batch = 1, .shards = 1};
      auto tmi = tm::make_tm(GetParam(), config);
      ExecOptions options;
      options.record = true;
      options.seed = 31 + run;
      options.jitter_max_spins = 64;
      const ExecResult result = execute(spec.program, *tmi, options);
      EXPECT_TRUE(hist::check_wellformed(result.recorded.history).ok());
      const auto races = drf::find_races(result.recorded.history);
      if (with_fence) {
        EXPECT_TRUE(races.drf())
            << tm::tm_kind_name(GetParam())
            << ": fenced sweep must be race-free\n"
            << races.to_string(result.recorded.history);
        const LitmusState state{result.locals, result.probes,
                                result.registers};
        EXPECT_TRUE(spec.postcondition(state));
      } else if (!races.drf()) {
        ++racy;
        const auto on_freed =
            drf::races_on_freed(result.recorded.history, races);
        EXPECT_EQ(on_freed.size(), races.races.size())
            << races.to_string(result.recorded.history);
      }
      if (result.probes[0][0] == 1) ++swept;
    }
    EXPECT_GE(swept, kRuns / 2) << "handshake kept timing out";
    if (!with_fence) {
      EXPECT_GE(racy, 1u)
          << "no unfenced sweep was flagged — the race machinery has "
             "gone blind to the service UAF";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTms, ServiceSweepLitmusReal,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

}  // namespace
}  // namespace privstm
