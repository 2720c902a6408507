// Global-lock TM: every transaction runs under one global spin lock.
//
// Trivially opaque (transactions are literally serialized) and, for DRF
// programs, strongly atomic. It is the oracle and the zero-concurrency
// baseline of experiment E8, and the "no instrumentation needed" reference
// point for fence-overhead measurements (E6). Values live in the shared
// transactional heap (tm/heap.hpp); this backend needs no per-location
// metadata at all.
//
// Writes are buffered in a tiny write set and flushed at commit (still
// inside the mutex critical section, so no observer can tell the
// difference from the historical in-place update) — which is what gives
// the explicit tx_abort() its discard-the-writes semantics for free.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "runtime/spinlock.hpp"
#include "tm/tm.hpp"

namespace privstm::tm {

class GlobalLockTm;

class GlobalLockThread final : public TmThread {
 public:
  GlobalLockThread(GlobalLockTm& tm, ThreadId thread,
                   hist::Recorder* recorder);
  ~GlobalLockThread() override;

  bool tx_begin() override;
  bool tx_read(RegId reg, Value& out) override;
  bool tx_write(RegId reg, Value value) override;
  TxResult tx_commit() override;
  void tx_abort() override;
  // fence()/fence_async()/... come from the TmThread base (the shared
  // quiescence subsystem).

 private:
  GlobalLockTm& tm_;
  TxHeap& heap_;
  std::vector<std::pair<RegId, Value>> wset_;  ///< insertion order; last wins
};

class GlobalLockTm final : public TransactionalMemory {
 public:
  explicit GlobalLockTm(TmConfig config);

  std::unique_ptr<TmThread> make_thread(ThreadId thread,
                                        hist::Recorder* recorder) override;
  const char* name() const noexcept override { return "glock"; }
  void reset() override;

 private:
  friend class GlobalLockThread;

  rt::SpinLock mutex_;
};

}  // namespace privstm::tm
