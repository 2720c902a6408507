#include "runtime/stats.hpp"

#include <sstream>

namespace privstm::rt {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kTxCommit:
      return "tx_commits";
    case Counter::kTxReadOnlyCommit:
      return "tx_ro_commits";
    case Counter::kTxAbort:
      return "tx_aborts";
    case Counter::kTxReadValidationFail:
      return "tx_read_validation_fails";
    case Counter::kTxLockFail:
      return "tx_lock_fails";
    case Counter::kFence:
      return "fences";
    case Counter::kFenceCoalesced:
      return "fences_coalesced";
    case Counter::kFenceAsyncIssued:
      return "fences_async_issued";
    case Counter::kFenceAsyncOverflow:
      return "fences_async_overflow";
    case Counter::kNtRead:
      return "nt_reads";
    case Counter::kNtWrite:
      return "nt_writes";
    case Counter::kDoomedDetected:
      return "doomed_detected";
    case Counter::kPostconditionViolation:
      return "postcondition_violations";
    case Counter::kAllocSharedRefill:
      return "alloc_shared_refills";
    case Counter::kLimboBatchRetired:
      return "limbo_batches_retired";
    case Counter::kAllocCompaction:
      return "alloc_compactions";
    case Counter::kTxRetryBackoff:
      return "tx_retry_backoffs";
    case Counter::kTxEscalated:
      return "tx_escalations";
    case Counter::kFaultInjected:
      return "faults_injected";
    case Counter::kClockStampShared:
      return "clock_stamps_shared";
    case Counter::kAllocShardSteal:
      return "alloc_shard_steals";
    case Counter::kGovernorEpoch:
      return "governor_epochs";
    case Counter::kGovernorPolicyShift:
      return "governor_policy_shifts";
    case Counter::kFrozenWait:
      return "frozen_waits";
    case Counter::kAllocCapWait:
      return "alloc_cap_waits";
    case Counter::kCount:
      break;
  }
  return "?";
}

std::string StatsDomain::summary() const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::uint64_t v = total(c);
    if (v == 0) continue;
    if (!first) out << ' ';
    out << counter_name(c) << '=' << v;
    first = false;
  }
  if (first) out << "(no events)";
  return out.str();
}

}  // namespace privstm::rt
