#include "trace_layers.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "service/workload.hpp"

namespace perfbench {

using privstm::rt::TraceDomain;
using privstm::rt::TraceEvent;
using privstm::rt::TraceEventKind;

TraceLayers::TraceLayers(TraceDomain& trace, std::size_t workers)
    : trace_(trace),
      own_(new OwnRing[workers]),
      workers_(workers),
      worker_of_slot_(TraceDomain::kSlots, -1),
      slot_of_worker_(workers, 0),
      pending_tx_(workers),
      slots_(TraceDomain::kSlots) {
  for (std::size_t w = 0; w < workers; ++w) own_[w].buf.resize(kOwnRing);
}

void TraceLayers::bind_worker(std::size_t w, std::size_t slot) {
  worker_of_slot_[slot] = static_cast<int>(w);
  slot_of_worker_[w] = slot;
}

void TraceLayers::push_op(std::size_t w, Span span,
                          std::uint8_t op_class) noexcept {
  OwnRing& r = own_[w];
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  if (head - r.tail.load(std::memory_order_acquire) >= kOwnRing) {
    r.drops.store(r.drops.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    return;
  }
  r.buf[head & (kOwnRing - 1)] = OpRec{span, op_class};
  r.head.store(head + 1, std::memory_order_release);
}

void TraceLayers::add_stage(const char* name, Span span) {
  if (stages_.size() < kDumpEvents) stages_.push_back({name, span});
}

void TraceLayers::poll() {
  std::vector<std::vector<OpRec>> ops(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    OwnRing& r = own_[w];
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) ops[w].push_back(r.buf[tail & (kOwnRing - 1)]);
    r.tail.store(tail, std::memory_order_release);
  }
  for (const TraceEvent& e : trace_.drain()) {
    fold(e);
    if (dump_tm_.size() < kDumpEvents) dump_tm_.push_back(e);
  }
  std::vector<Span> children;
  for (std::size_t w = 0; w < workers_; ++w) {
    std::deque<Span>& pending = pending_tx_[w];
    for (const OpRec& op : ops[w]) {
      // Transactions that began before this op belong to no drained op.
      while (!pending.empty() && pending.front().start < op.span.start) {
        pending.pop_front();
      }
      children.clear();
      while (!pending.empty() && pending.front().end <= op.span.end) {
        children.push_back(pending.front());
        pending.pop_front();
      }
      op_ns += op.span.duration();
      op_outside_tx_ns += self_time(op.span, children);
      if (dump_ops_.size() < kDumpEvents) {
        dump_ops_.emplace_back(slot_of_worker_[w], op);
      }
    }
  }
}

void TraceLayers::discard() {
  for (std::size_t w = 0; w < workers_; ++w) {
    own_[w].tail.store(own_[w].head.load(std::memory_order_acquire),
                       std::memory_order_release);
    pending_tx_[w].clear();
  }
  (void)trace_.drain();
  std::fill(slots_.begin(), slots_.end(), SlotState{});
  std::fill(freeze_begin_.begin(), freeze_begin_.end(), 0);
}

void TraceLayers::fold(const TraceEvent& e) {
  SlotState& s = slots_[e.tid < slots_.size() ? e.tid : TraceDomain::kSharedSlot];
  // Closes the span opened at `begin` (0 = none open): its duration, and
  // `begin` reset.
  const auto close = [&](std::uint64_t& begin) -> std::uint64_t {
    const std::uint64_t b = begin;
    begin = 0;
    return e.ts_ns > b ? e.ts_ns - b : 0;
  };
  switch (e.kind) {
    case TraceEventKind::kTxBegin:
      s.tx_begin = e.ts_ns;
      break;
    case TraceEventKind::kTxCommit:
    case TraceEventKind::kTxAbort: {
      if (s.tx_begin == 0) break;
      const std::uint64_t begin = s.tx_begin;
      tx.record(close(s.tx_begin));
      if (const int w = worker_of_slot_[e.tid]; w >= 0) {
        pending_tx_[static_cast<std::size_t>(w)].push_back({begin, e.ts_ns});
      }
      break;
    }
    case TraceEventKind::kFenceBegin:
      s.fence_begin = e.ts_ns;
      break;
    case TraceEventKind::kFenceEnd:
      if (s.fence_begin != 0) fence.record(close(s.fence_begin));
      break;
    case TraceEventKind::kGraceScanBegin:
      s.grace_begin = e.ts_ns;
      break;
    case TraceEventKind::kGraceScanEnd:
      if (s.grace_begin != 0) grace_scan.record(close(s.grace_begin));
      break;
    case TraceEventKind::kCmBackoffBegin:
      s.backoff_begin = e.ts_ns;
      break;
    case TraceEventKind::kCmBackoffEnd:
      if (s.backoff_begin != 0) backoff_ns += close(s.backoff_begin);
      break;
    case TraceEventKind::kSweepFreezeBegin:
      if (freeze_begin_.size() <= e.a32) freeze_begin_.resize(e.a32 + 1, 0);
      freeze_begin_[e.a32] = e.ts_ns;
      s.phase_begin = e.ts_ns;
      break;
    case TraceEventKind::kSweepFenceBegin:
    case TraceEventKind::kSweepReclaimBegin:
    case TraceEventKind::kSweepRepublishBegin:
      s.phase_begin = e.ts_ns;
      break;
    case TraceEventKind::kSweepFreezeEnd:
      if (s.phase_begin != 0) sweep_freeze.record(close(s.phase_begin));
      break;
    case TraceEventKind::kSweepFenceEnd:
      if (s.phase_begin != 0) sweep_fence.record(close(s.phase_begin));
      break;
    case TraceEventKind::kSweepReclaimEnd:
      if (s.phase_begin != 0) sweep_reclaim.record(close(s.phase_begin));
      break;
    case TraceEventKind::kSweepRepublishEnd:
      if (s.phase_begin != 0) sweep_republish.record(close(s.phase_begin));
      if (e.a32 < freeze_begin_.size() && freeze_begin_[e.a32] != 0) {
        sweep_bucket.record(close(freeze_begin_[e.a32]));
      }
      break;
    default:
      break;
  }
}

std::uint64_t TraceLayers::dropped() const noexcept {
  std::uint64_t total = carried_drops_ + trace_.dropped();
  for (std::size_t w = 0; w < workers_; ++w) {
    total += own_[w].drops.load(std::memory_order_relaxed);
  }
  return total;
}

bool TraceLayers::write_perfetto(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":"
      << dropped() << "},\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const TraceEvent& e : dump_tm_) {
    const char* ph = "i";
    switch (privstm::rt::trace_event_phase(e.kind)) {
      case privstm::rt::TracePhase::kBegin:
        ph = "B";
        break;
      case privstm::rt::TracePhase::kEnd:
        ph = "E";
        break;
      case privstm::rt::TracePhase::kInstant:
        break;
    }
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f%s,\"args\":{\"a8\":%u,\"a32\":%u,"
                  "\"a64\":%" PRIu64 "}}",
                  privstm::rt::trace_event_name(e.kind), ph,
                  static_cast<unsigned>(e.tid),
                  static_cast<double>(e.ts_ns) / 1000.0,
                  ph[0] == 'i' ? ",\"s\":\"t\"" : "",
                  static_cast<unsigned>(e.a8), e.a32, e.a64);
    out << buf;
  }
  for (const auto& [slot, op] : dump_ops_) {
    sep();
    std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"service.%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%zu,"
        "\"ts\":%.3f,\"dur\":%.3f}",
        privstm::service::op_class_name(
            static_cast<privstm::service::OpClass>(op.op_class)),
        slot, static_cast<double>(op.span.start) / 1000.0,
        static_cast<double>(op.span.duration()) / 1000.0);
    out << buf;
  }
  for (const Stage& st : stages_) {
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  st.name, static_cast<double>(st.span.start) / 1000.0,
                  static_cast<double>(st.span.duration()) / 1000.0);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
