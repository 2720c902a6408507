// Execution recorder: turns a real multi-threaded run into a checkable
// history (DESIGN.md S4).
//
// Linearization. Every recorded action draws a ticket from a single global
// counter at the moment it logically takes effect (request emission /
// response return). Tickets give a total order that respects real time: if
// action A returned before action B was invoked, A's ticket is smaller.
// Hence the execution-order-derived relations of §3 (po, cl, af, bf) are
// sound on the recorded history.
//
// NT atomicity. Condition 7 of Definition A.1 requires a non-transactional
// access's response to be globally adjacent to its request. The recorder
// therefore performs the raw memory operation and the two-ticket log append
// under a short global spin lock (`nt_access`), which also totally orders NT
// accesses consistently with the values they observe. Recording is used by
// litmus/property runs only; pure performance benchmarks run with the
// recorder disabled, leaving NT accesses uninstrumented.
//
// Graph hints. Strong-opacity checking needs the WW order and the visibility
// of commit-pending transactions (Def 6.3). Both are recovered from
// `publish` events emitted at the writeback points — exactly the TXVIS /
// NTXWRITE graph-update moments of Fig 10. Per-register publish order equals
// memory order for DRF histories (see DESIGN.md §6).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "history/action.hpp"
#include "history/history.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/spinlock.hpp"

namespace privstm::hist {

using Ticket = std::uint64_t;

/// A writeback event: value `value` of register `reg` became visible in
/// memory. The per-register sequence of these is the WW order.
struct PublishEvent {
  Ticket ticket = 0;
  RegId reg = kNoReg;
  Value value = 0;
};

/// The result of a recorded run.
struct RecordedExecution {
  History history;
  /// Per register: values in the order they hit memory (WW_x witness).
  std::map<RegId, std::vector<Value>> publish_order;
};

class Recorder {
 public:
  static constexpr std::size_t kMaxThreads = 64;
  /// Per-handle buffer capacity reserved by for_thread(): room for a few
  /// thousand actions per thread, past which the buffers grow as usual.
  static constexpr std::size_t kReservedEvents = 4096;
  static constexpr std::size_t kReservedPublishes = 1024;

  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Per-thread logging front-end. Cheap to copy; safe to use only from the
  /// thread it was created for.
  class Handle {
   public:
    Handle() = default;  ///< disabled handle: all operations are no-ops

    bool enabled() const noexcept { return rec_ != nullptr; }

    /// Log a request action.
    void request(ActionKind kind, RegId reg = kNoReg, Value value = 0) {
      if (rec_) log(kind, reg, value);
    }

    /// Log a response action.
    void response(ActionKind kind, RegId reg = kNoReg, Value value = 0) {
      if (rec_) log(kind, reg, value);
    }

    /// Perform an NT access atomically with its two-action log entry.
    /// `op` executes the raw memory operation and returns the value read
    /// (reads) or echoes the value written (writes). Returns op's result.
    /// When recording is disabled, runs `op` with zero overhead.
    template <typename F>
    Value nt_access(bool is_write, RegId reg, Value write_value, F&& op) {
      if (!rec_) return std::forward<F>(op)();
      std::lock_guard<rt::SpinLock> guard(rec_->nt_lock_);
      const Ticket first = rec_->take_tickets(2);
      const Value result = std::forward<F>(op)();
      auto& buf = rec_->threads_[slot_]->events;
      if (is_write) {
        buf.push_back({first, {first, thread_, ActionKind::kWriteReq, reg,
                               write_value}});
        buf.push_back(
            {first + 1, {first + 1, thread_, ActionKind::kWriteRet, reg, 0}});
        rec_->threads_[slot_]->publishes.push_back({first, reg, write_value});
      } else {
        buf.push_back({first, {first, thread_, ActionKind::kReadReq, reg, 0}});
        buf.push_back(
            {first + 1, {first + 1, thread_, ActionKind::kReadRet, reg,
                         result}});
      }
      return result;
    }

    /// Log a writeback event (call at the store that makes `value` visible;
    /// for TL2 this is line 28 of Fig 9, executed under lock[x]).
    void publish(RegId reg, Value value) {
      if (!rec_) return;
      const Ticket t = rec_->take_tickets(1);
      rec_->threads_[slot_]->publishes.push_back({t, reg, value});
    }

   private:
    friend class Recorder;
    Handle(Recorder* rec, std::size_t slot, ThreadId thread) noexcept
        : rec_(rec), slot_(slot), thread_(thread) {}

    void log(ActionKind kind, RegId reg, Value value) {
      const Ticket t = rec_->take_tickets(1);
      rec_->threads_[slot_]->events.push_back(
          {t, {t, thread_, kind, reg, value}});
    }

    Recorder* rec_ = nullptr;
    std::size_t slot_ = 0;
    ThreadId thread_ = 0;
  };

  /// Create a handle logging under logical thread id `thread`. Each handle
  /// owns a private buffer slot, so several handles may share a thread id
  /// (e.g. sequential phases) but must not log concurrently for it.
  Handle for_thread(ThreadId thread) {
    const std::size_t slot =
        next_slot_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxThreads) {
      return Handle{};  // out of slots: degrade to non-recording
    }
    // Size the buffers here, before the thread runs: growing them by
    // doubling inside a logged TM call copies the whole log and lands
    // its cost on that call.
    threads_[slot]->events.reserve(kReservedEvents);
    threads_[slot]->publishes.reserve(kReservedPublishes);
    return Handle{this, slot, thread};
  }

  /// Merge all buffers into the final history. Call after all logging
  /// threads have joined.
  RecordedExecution collect() const;

  /// Discard everything and start over (buffers are kept allocated).
  void reset();

 private:
  struct Event {
    Ticket ticket;
    Action action;
  };
  struct ThreadBuf {
    std::vector<Event> events;
    std::vector<PublishEvent> publishes;
  };

  Ticket take_tickets(Ticket n) noexcept {
    return ticket_.fetch_add(n, std::memory_order_seq_cst);
  }

  std::atomic<Ticket> ticket_{1};
  std::atomic<std::size_t> next_slot_{0};
  rt::SpinLock nt_lock_;
  std::vector<rt::CacheAligned<ThreadBuf>> threads_{kMaxThreads};
};

}  // namespace privstm::hist
