#include "tm/glock.hpp"

namespace privstm::tm {

using hist::ActionKind;
using rt::Counter;

GlobalLockTm::GlobalLockTm(TmConfig config) : TransactionalMemory(config) {}

std::unique_ptr<TmThread> GlobalLockTm::make_thread(ThreadId thread,
                                                    hist::Recorder* recorder) {
  return std::make_unique<GlobalLockThread>(*this, thread, recorder);
}

void GlobalLockTm::reset() {
  reset_base();  // stats + heap (cells, extents, limbo, per-thread magazines)
}

GlobalLockThread::GlobalLockThread(GlobalLockTm& tm, ThreadId thread,
                                   hist::Recorder* recorder)
    : TmThread(tm, thread, recorder), tm_(tm), heap_(tm.heap()) {}

GlobalLockThread::~GlobalLockThread() = default;

bool GlobalLockThread::tx_begin() {
  // Block while an escalated (irrevocable) transaction holds the serial
  // gate — before tx_enter, so a gated thread is quiescent and the
  // escalator's drain never waits on it (runtime/serial_gate.hpp). The
  // escalated thread itself passes (it owns the gate) and then takes the
  // global mutex below like any other transaction.
  serial_gate_wait();
  registry_.tx_enter(slot_.slot());
  rec_.request(ActionKind::kTxBegin);
  // Injection site: a bounded delay in front of the global mutex — the
  // whole-TM choke point this backend serializes through.
  if (fault_ != nullptr) {
    fault_->maybe_delay(stat_slot(), rt::FaultSite::kLockAcquire);
  }
  tm_.mutex_.lock();
  wset_.clear();
  rec_.response(ActionKind::kOk);
  trace_tx_begin();
  return true;
}

bool GlobalLockThread::tx_read(RegId reg, Value& out) {
  rec_.request(ActionKind::kReadReq, reg);
  bool hit = false;
  for (auto it = wset_.rbegin(); it != wset_.rend(); ++it) {
    if (it->first == reg) {
      out = it->second;
      hit = true;
      break;
    }
  }
  if (!hit) out = heap_.cell(reg).load(std::memory_order_seq_cst);
  rec_.response(ActionKind::kReadRet, reg, out);
  return true;
}

bool GlobalLockThread::tx_write(RegId reg, Value value) {
  rec_.request(ActionKind::kWriteReq, reg, value);
  wset_.emplace_back(reg, value);
  rec_.response(ActionKind::kWriteRet, reg);
  return true;
}

TxResult GlobalLockThread::tx_commit() {
  rec_.request(ActionKind::kTxCommit);
  // Injection site: a spurious abort at commit — the buffered write set is
  // dropped before anything reaches memory and the mutex is released, the
  // same shape as tx_abort (a lock-based TM may abort too, e.g. on
  // deadlock detection in richer designs; the history stays legal).
  if (fault_ != nullptr &&
      fault_->inject_abort(stat_slot(), rt::FaultSite::kCommit)) {
    wset_.clear();
    tm_.mutex_.unlock();
    rec_.response(ActionKind::kAborted);
    note_abort(rt::AbortReason::kFaultInjected);
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxAbort);
    registry_.tx_exit(slot_.slot());
    return TxResult::kAborted;
  }
  // Injected delay inside the critical section: stretches the serial
  // window every other session is queued behind.
  if (fault_ != nullptr) {
    fault_->maybe_delay(stat_slot(), rt::FaultSite::kCommit);
  }
  // Flush inside the critical section: serialization (and hence opacity /
  // strong atomicity for DRF programs) is exactly as with the historical
  // in-place store at tx_write time.
  for (const auto& [reg, value] : wset_) {
    heap_.cell(reg).store(value, std::memory_order_seq_cst);
    rec_.publish(reg, value);  // TXVIS point
  }
  tm_.mutex_.unlock();
  rec_.response(ActionKind::kCommitted);
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kTxCommit);
  trace_tx_commit();
  registry_.tx_exit(slot_.slot());
  return TxResult::kCommitted;
}

void GlobalLockThread::tx_abort() {
  rec_.request(ActionKind::kTxAbort);
  wset_.clear();  // discard buffered writes — nothing reached memory
  tm_.mutex_.unlock();
  rec_.response(ActionKind::kAborted);
  note_abort(rt::AbortReason::kCmInduced);
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kTxAbort);
  registry_.tx_exit(slot_.slot());
}

}  // namespace privstm::tm
