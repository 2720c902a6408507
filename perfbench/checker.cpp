// The history-checker workload. One scheduling thread interleaves three
// recorded tl2fused sessions, one TM call at a time, on a schedule drawn
// from the seed. The sessions run a small slot store written with the
// paper's idioms: a get reads a slot's flag and (if the slot is public)
// its data; a put writes the data of a public slot; a privatize claims a
// slot in a transaction, fences, reads and rewrites its data with
// uninstrumented (NT) accesses, and republishes it in a transaction. Each
// history is then collected and checked for well-formedness, DRF and
// strong opacity. Generation and checking both sit in the measured loop,
// so get/put latencies here are those of recorded ops (the sum of each
// op's own TM calls; the interleaved calls of other sessions excluded).
#include <memory>

#include "bench.hpp"
#include "drf/hb_graph.hpp"
#include "drf/race.hpp"
#include "history/recorder.hpp"
#include "history/wellformed.hpp"
#include "opacity/strong_opacity.hpp"
#include "runtime/rng.hpp"
#include "tm/factory.hpp"

namespace perfbench {
namespace {

using namespace privstm;

constexpr std::size_t kSessions = 3;
constexpr std::size_t kSlots = 6;  // flag j at location j, data at kSlots+j
constexpr std::size_t kOpsPerHistory = 600;  // ~6k actions
constexpr std::size_t kSetupReps = 5;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed * 0xD1B54A32D192ED03ULL + stream;
  return rt::splitmix64(sm);
}

enum class Kind : std::uint8_t { kGet, kPut, kPrivatize };
/// Next TM call of a session's current op.
enum class Pc : std::uint8_t {
  kIdle, kBegin, kReadFlag, kData, kCommit, kFence, kNtRead, kNtWrite,
  kRepublishBegin, kRepublishWrite, kRepublishCommit,
};

struct Session {
  std::unique_ptr<tm::TmThread> tm;
  tm::Value id = 0;
  Kind kind = Kind::kGet;
  Pc pc = Pc::kIdle;
  hist::RegId slot = 0;
  bool slot_free = false;  ///< the op's flag read saw a public slot
  bool in_tx = false;
  tm::Value seq = 0;
  std::uint64_t op_ns = 0;

  /// Every written value is unique in the history (the checker names
  /// writers by value). Odd values mark a claimed flag.
  tm::Value next_value(bool claimed) {
    return ((id + 1) << 40) | (++seq << 1) | (claimed ? 1 : 0);
  }
};

struct GenStats {
  Histogram get, put;  ///< recorded op latency (ns)
  std::uint64_t ops = 0;
  std::uint64_t gen_ns = 0;  ///< time spent generating histories
};

hist::RegId flag_loc(hist::RegId slot) { return slot; }
hist::RegId data_loc(hist::RegId slot) {
  return static_cast<hist::RegId>(kSlots) + slot;
}

/// One TM call of `s`; true when it completed the session's op.
bool step(Session& s, bool fenced) {
  tm::TmThread& t = *s.tm;
  switch (s.pc) {
    case Pc::kIdle:
      return false;
    case Pc::kBegin:
      t.tx_begin();
      s.in_tx = true;
      s.pc = Pc::kReadFlag;
      return false;
    case Pc::kReadFlag: {
      tm::Value f = 0;
      if (!t.tx_read(flag_loc(s.slot), f)) break;
      s.slot_free = (f & 1) == 0;
      s.pc = s.slot_free ? Pc::kData : Pc::kCommit;
      return false;
    }
    case Pc::kData: {
      bool ok = true;
      tm::Value v = 0;
      switch (s.kind) {
        case Kind::kGet:
          ok = t.tx_read(data_loc(s.slot), v);
          break;
        case Kind::kPut:
          ok = t.tx_write(data_loc(s.slot), s.next_value(false));
          break;
        case Kind::kPrivatize:
          ok = t.tx_write(flag_loc(s.slot), s.next_value(true));
          break;
      }
      if (!ok) break;
      s.pc = Pc::kCommit;
      return false;
    }
    case Pc::kCommit:
      s.in_tx = false;
      if (t.tx_commit() != tm::TxResult::kCommitted) {
        s.pc = Pc::kBegin;
        return false;
      }
      if (s.kind != Kind::kPrivatize || !s.slot_free) return true;
      s.pc = fenced ? Pc::kFence : Pc::kNtRead;
      return false;
    case Pc::kFence:
      t.fence();
      s.pc = Pc::kNtRead;
      return false;
    case Pc::kNtRead:
      (void)t.nt_read(data_loc(s.slot));
      s.pc = Pc::kNtWrite;
      return false;
    case Pc::kNtWrite:
      t.nt_write(data_loc(s.slot), s.next_value(false));
      s.pc = Pc::kRepublishBegin;
      return false;
    case Pc::kRepublishBegin:
      t.tx_begin();
      s.in_tx = true;
      s.pc = Pc::kRepublishWrite;
      return false;
    case Pc::kRepublishWrite:
      if (!t.tx_write(flag_loc(s.slot), s.next_value(false))) {
        s.in_tx = false;
        s.pc = Pc::kRepublishBegin;
        return false;
      }
      s.pc = Pc::kRepublishCommit;
      return false;
    case Pc::kRepublishCommit:
      s.in_tx = false;
      if (t.tx_commit() != tm::TxResult::kCommitted) {
        s.pc = Pc::kRepublishBegin;
        return false;
      }
      return true;
  }
  // A transactional access failed: the TM aborted the transaction.
  s.in_tx = false;
  s.pc = Pc::kBegin;
  return false;
}

/// Record one history on `tmi` (which must hold initial values only).
/// `fenced = false` drops the privatizer's fence: the negative control.
void generate(tm::TransactionalMemory& tmi, hist::Recorder& rec,
              std::uint64_t seed, bool fenced, GenStats& stats) {
  std::vector<Session> sessions(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions[i].tm = tmi.make_thread(static_cast<hist::ThreadId>(i), &rec);
    sessions[i].id = i;
  }
  rt::Xoshiro256 rng(seed);
  std::size_t started = 0;
  std::vector<std::size_t> runnable;
  for (;;) {
    runnable.clear();
    for (std::size_t i = 0; i < kSessions; ++i) {
      const Session& s = sessions[i];
      if (s.pc == Pc::kIdle) {
        if (started < kOpsPerHistory) runnable.push_back(i);
        continue;
      }
      if (s.pc == Pc::kFence) {
        // The one scheduling thread would wait forever on its own open
        // transactions: fence only when no other session is inside one.
        bool open = false;
        for (std::size_t j = 0; j < kSessions; ++j) {
          open |= j != i && sessions[j].in_tx;
        }
        if (open) continue;
      }
      runnable.push_back(i);
    }
    if (runnable.empty()) break;
    Session& s = sessions[runnable[rng.below(runnable.size())]];
    if (s.pc == Pc::kIdle) {
      const std::uint64_t draw = rng.below(1000);
      s.kind = draw < 400 ? Kind::kGet
               : draw < 800 ? Kind::kPut
                            : Kind::kPrivatize;
      s.slot = static_cast<hist::RegId>(rng.below(kSlots));
      s.pc = Pc::kBegin;
      s.op_ns = 0;
      ++started;
    }
    const std::uint64_t t0 = now_ns();
    const bool done = step(s, fenced);
    s.op_ns += now_ns() - t0;
    if (!done) continue;
    s.pc = Pc::kIdle;
    ++stats.ops;
    if (s.kind == Kind::kGet) stats.get.record(s.op_ns);
    if (s.kind == Kind::kPut) stats.put.record(s.op_ns);
  }
}

std::unique_ptr<tm::TransactionalMemory> make_checker_tm(bool traced) {
  tm::TmConfig config;
  config.num_registers = 2 * kSlots;
  config.lock_stripes = 64;
  if (traced) {
    config.trace.enabled = true;
    config.trace.ring_capacity = std::size_t{1} << 14;
  }
  return tm::make_tm(tm::TmKind::kTl2Fused, config);
}

std::uint64_t history_digest(const hist::History& h) {
  std::uint64_t d = 0xCBF29CE484222325ULL;
  for (const hist::Action& a : h.actions()) {
    for (const std::uint64_t x :
         {static_cast<std::uint64_t>(a.thread),
          static_cast<std::uint64_t>(a.kind),
          static_cast<std::uint64_t>(a.reg), a.value}) {
      d = (d ^ x) * 0x100000001B3ULL;
    }
  }
  return d;
}

/// Set-up, several times: build a TM, record the negative-control history
/// and run the DRF check on it. Gates: the history is identical every
/// time (generation depends on the seed alone) and the DRF checker flags
/// it racy (the checker is not blind to a dropped fence). Returns the
/// set-up times.
std::vector<double> setup_and_control(std::uint64_t seed, RunResult& out) {
  std::vector<double> times;
  std::uint64_t digest = 0;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    auto tmi = make_checker_tm(false);
    hist::Recorder rec;
    GenStats unused;
    generate(*tmi, rec, stream_seed(seed, 0), false, unused);
    const hist::RecordedExecution exec = rec.collect();
    const drf::RaceReport races = drf::find_races(exec.history);
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (races.drf()) {
      out.fail("negative control (fence dropped) was not flagged racy");
    }
    const std::uint64_t d = history_digest(exec.history);
    if (r == 0) {
      digest = d;
      out.notes.push_back("negative control: " +
                          std::to_string(exec.history.size()) +
                          " actions, " + std::to_string(races.races.size()) +
                          " races flagged");
    } else if (d != digest) {
      out.fail("history generation is not deterministic in the seed");
    }
  }
  return times;
}

/// One time slice of the measured loop: the histories that started in it.
struct Slice {
  GenStats gen;
  std::uint64_t actions = 0;
  std::uint64_t pipeline_ns = 0;  ///< generate + collect + check
};

struct LoopResult {
  std::vector<Slice> slices;
  std::uint64_t histories = 0;
  std::uint64_t failed = 0;  ///< histories that failed a checker gate
  std::uint64_t min_actions = ~std::uint64_t{0}, max_actions = 0;
  LayerInputs layers;

  std::uint64_t gen_sum(std::uint64_t GenStats::*field) const {
    std::uint64_t n = 0;
    for (const Slice& sl : slices) n += sl.gen.*field;
    return n;
  }
};

/// Generate-and-check histories until `seconds` have passed, filing each
/// history under the slice it started in. With `layers`, the TM traces and
/// the stages the strong-opacity check runs internally are also timed one
/// by one before it.
LoopResult check_loop(std::uint64_t seed, double seconds,
                      std::size_t slices, TraceLayers* layers,
                      tm::TransactionalMemory& tmi, RunResult& out) {
  LoopResult lr;
  lr.slices.resize(slices);
  const std::uint64_t begin = now_ns();
  const std::uint64_t span = static_cast<std::uint64_t>(seconds * 1e9) + 1;
  const std::uint64_t end = begin + span;
  // History 0 is the negative control's schedule; the loop starts at 1
  // and always checks at least one history.
  for (std::uint64_t i = 1;; ++i) {
    if (layers != nullptr) layers->before_tm_reset();
    tmi.reset();
    hist::Recorder rec;
    const std::uint64_t t0 = now_ns();
    Slice& slice =
        lr.slices[std::min<std::uint64_t>(slices - 1,
                                          (t0 - begin) * slices / span)];
    generate(tmi, rec, stream_seed(seed, i), true, slice.gen);
    const std::uint64_t t1 = now_ns();
    slice.gen.gen_ns += t1 - t0;
    if (layers != nullptr) {
      // reset() zeroes the TM's counters: sum them history by history.
      lr.layers.counters = lr.layers.counters.plus(
          CounterSnap::of(tmi.stats()));
      layers->poll();
    }
    const std::uint64_t c0 = now_ns();
    const hist::RecordedExecution exec = rec.collect();
    const std::uint64_t c1 = now_ns();
    std::uint64_t staged_ns = 0;
    if (layers != nullptr) {
      const hist::History& h = exec.history;
      const std::uint64_t s0 = now_ns();
      const bool wf_ok = hist::check_wellformed(h).ok();
      const std::uint64_t s1 = now_ns();
      const drf::HbGraph hb(h);
      const std::uint64_t s2 = now_ns();
      const bool drf_ok = drf::find_races(h, hb).drf();
      const std::uint64_t s3 = now_ns();
      if (!wf_ok) out.fail("history " + std::to_string(i) + " ill-formed");
      if (!drf_ok) out.fail("history " + std::to_string(i) + " racy");
      lr.layers.collect.record(c1 - c0);
      lr.layers.wellformed.record(s1 - s0);
      lr.layers.hb.record(s2 - s1);
      lr.layers.races.record(s3 - s2);
      layers->add_stage("history.collect", {c0, c1});
      layers->add_stage("history.wellformed", {s0, s1});
      layers->add_stage("drf.hb", {s1, s2});
      layers->add_stage("drf.races", {s2, s3});
      staged_ns = s3 - s0;
    }
    const std::uint64_t k0 = now_ns();
    const opacity::StrongOpacityVerdict v = opacity::check_strong_opacity(exec);
    const std::uint64_t k1 = now_ns();
    if (layers != nullptr) {
      lr.layers.check.record(k1 - k0);
      lr.layers.check_self.record(k1 - k0 > staged_ns ? k1 - k0 - staged_ns
                                                      : 0);
      layers->add_stage("opacity.check", {k0, k1});
    }
    const std::string which = "history " + std::to_string(i);
    if (!v.wf.ok()) out.fail(which + " is not well-formed");
    if (v.racy) out.fail(which + " is not DRF");
    if (!v.ok()) out.fail(which + " is not strongly opaque");
    ++lr.histories;
    if (!v.wf.ok() || v.racy || !v.ok()) ++lr.failed;
    slice.actions += exec.history.size();
    lr.min_actions = std::min<std::uint64_t>(lr.min_actions,
                                             exec.history.size());
    lr.max_actions = std::max<std::uint64_t>(lr.max_actions,
                                             exec.history.size());
    slice.pipeline_ns += (t1 - t0) + (c1 - c0) + (k1 - k0);
    if (now_ns() >= end) break;
  }
  return lr;
}

/// Recorded ops generated per second of generation: the part of the
/// pipeline the TM's trace rings act on.
double gen_ops_per_s(const LoopResult& lr) {
  const std::uint64_t ns = lr.gen_sum(&GenStats::gen_ns);
  return ns == 0 ? 0.0
                 : static_cast<double>(lr.gen_sum(&GenStats::ops)) * 1e9 /
                       static_cast<double>(ns);
}

}  // namespace

RunResult run_checker_workload(const Options& opt) {
  RunResult out;
  out.threads = "1 scheduling thread interleaving 3 recorded sessions";
  const std::vector<double> setup_s = setup_and_control(opt.seed, out);

  if (!opt.trace) {
    auto tmi = make_checker_tm(false);
    // One history first, to fault in the checker's memory.
    (void)check_loop(opt.seed, 0.0, 1, nullptr, *tmi, out);
    const std::size_t slices =
        std::max<std::size_t>(4, static_cast<std::size_t>(opt.seconds / 4));
    const LoopResult lr =
        check_loop(opt.seed, opt.seconds, slices, nullptr, *tmi, out);
    out.ops = {lr.histories - lr.failed, lr.failed};
    std::vector<double> tput;
    std::vector<Histogram> get, put;
    for (const Slice& sl : lr.slices) {
      tput.push_back(sl.pipeline_ns == 0
                         ? 0.0
                         : static_cast<double>(sl.actions) * 1e9 /
                               static_cast<double>(sl.pipeline_ns));
      get.push_back(sl.gen.get);
      put.push_back(sl.gen.put);
    }
    out.add("throughput_ops_s", median(tput), "1/s",
            "history actions generated and checked per second");
    out.add("get_p50_us", slice_quantile_us(get, 500, "get p50", out), "us");
    out.add("get_p99_us", slice_quantile_us(get, 990, "get p99", out), "us");
    out.add("put_p50_us", slice_quantile_us(put, 500, "put p50", out), "us");
    out.add("put_p99_us", slice_quantile_us(put, 990, "put p99", out), "us");
    out.add("setup_s", median(setup_s), "s",
            "median of " + std::to_string(kSetupReps) + " set-ups");
    out.add("rss_mb", peak_rss_mb(), "MB", "peak resident set");
    out.notes.push_back(
        "histories: attempted " + std::to_string(lr.histories) +
        ", succeeded " + std::to_string(lr.histories - lr.failed) +
        ", failed " + std::to_string(lr.failed) + "; " +
        std::to_string(lr.min_actions) + ".." +
        std::to_string(lr.max_actions) + " actions each, " +
        std::to_string(lr.gen_sum(&GenStats::ops)) + " recorded ops");
    return out;
  }

  const double half = opt.seconds / 2.0;
  double untraced = 0.0;
  {
    auto tmi = make_checker_tm(false);
    (void)check_loop(opt.seed, 0.0, 1, nullptr, *tmi, out);
    untraced =
        gen_ops_per_s(check_loop(opt.seed, half, 1, nullptr, *tmi, out));
  }
  auto tmi = make_checker_tm(true);
  TraceLayers layers(tmi->trace(), 0);
  (void)check_loop(opt.seed, 0.0, 1, nullptr, *tmi, out);
  layers.discard();
  LoopResult lr = check_loop(opt.seed, half, 1, &layers, *tmi, out);
  out.ops = {lr.histories - lr.failed, lr.failed};
  LayerInputs& li = lr.layers;
  li.trace = &layers;
  li.ops = lr.gen_sum(&GenStats::ops);
  li.window_s = half;
  li.arena_cells = tmi->heap().allocated_end();
  // Only generation runs under the TM's trace rings; the checker stages
  // carry one span each.
  li.overhead_share =
      untraced > 0.0 ? 1.0 - gen_ops_per_s(lr) / untraced : 0.0;
  add_layer_metrics(out, li);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".perfetto.json";
    if (layers.write_perfetto(path)) out.notes.push_back("perfetto: " + path);
  }
  return out;
}

}  // namespace perfbench
