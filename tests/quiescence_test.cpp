// Unit tests for the quiescence subsystem (rt::QuiescenceManager,
// DESIGN.md §5): the grace-period ticket engine — coalesced scans under
// concurrent waiters, the join rule for tickets issued mid-scan,
// completion ordering, starvation freedom under back-to-back
// transactions — and the end-to-end deferred privatization idiom on a
// real backend with recorded histories.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "history/recorder.hpp"
#include "history/wellformed.hpp"
#include "runtime/quiescence.hpp"
#include "tm/tl2.hpp"

namespace privstm {
namespace {

using rt::Counter;
using rt::FenceMode;
using rt::FencePolicy;
using rt::FenceTicket;
using rt::QuiescenceManager;
using rt::StatsDomain;

struct ManagerFixture {
  StatsDomain stats;
  QuiescenceManager qm{stats, FencePolicy::kSelective,
                       FenceMode::kEpochCounter};

  /// A blocking fence on the grace-period engine: issue a ticket, wait.
  void ticket_fence(int slot) {
    const auto stat_slot = static_cast<std::size_t>(slot);
    qm.fence_wait(qm.fence_async(stat_slot), stat_slot);
  }
};

TEST(Quiescence, GracePeriodFenceWaitsForActiveTransaction) {
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  const int fencer = f.qm.registry().register_thread();
  f.qm.registry().tx_enter(worker);

  std::atomic<bool> fence_done{false};
  std::thread fence_thread([&] {
    f.ticket_fence(fencer);
    fence_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fence_done.load());  // must wait for the live transaction
  f.qm.registry().tx_exit(worker);
  fence_thread.join();
  EXPECT_TRUE(fence_done.load());
  EXPECT_EQ(f.stats.total(Counter::kFence), 1u);
  f.qm.registry().unregister_thread(worker);
  f.qm.registry().unregister_thread(fencer);
}

TEST(Quiescence, ConcurrentFencesCoalesceIntoSharedScans) {
  // N fences blocked behind one transaction must share grace periods: all
  // their tickets are issued while the transaction holds the grace period
  // open, so ONE scan retires every one of them, and all but the fence
  // that completes that scan observe coalescing. (Tickets are issued from
  // the test thread to make the targets deterministic; waiting happens
  // concurrently, which is where the sharing shows.)
  constexpr std::size_t kFencers = 6;
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  std::vector<int> slots;
  for (std::size_t i = 0; i < kFencers; ++i) {
    slots.push_back(f.qm.registry().register_thread());
  }

  f.qm.registry().tx_enter(worker);
  const std::uint64_t seq_before = f.qm.grace_period_seq();
  std::vector<FenceTicket> tickets;
  for (std::size_t i = 0; i < kFencers; ++i) {
    tickets.push_back(f.qm.fence_async(static_cast<std::size_t>(slots[i])));
  }

  std::vector<std::thread> fencers;
  for (std::size_t i = 0; i < kFencers; ++i) {
    fencers.emplace_back([&, i] {
      f.qm.fence_wait(tickets[i], static_cast<std::size_t>(slots[i]));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f.qm.registry().tx_exit(worker);
  for (auto& t : fencers) t.join();

  // One shared scan: two sequence bumps (start + finish), not one per
  // fence.
  EXPECT_EQ(f.qm.grace_period_seq() - seq_before, 2u);
  EXPECT_EQ(f.stats.total(Counter::kFence), kFencers);
  // The finishing bump credits exactly one fence as self-served; everyone
  // else rode its scan.
  EXPECT_GE(f.stats.total(Counter::kFenceCoalesced), kFencers - 1);

  f.qm.registry().unregister_thread(worker);
  for (int s : slots) f.qm.registry().unregister_thread(s);
}

TEST(Quiescence, CoalescedCompletionIsDeterministicallyObservable) {
  // Issue a ticket, let a *different* fence perform the scan, then
  // complete the ticket: the completion must ride the other fence's scan
  // and count kFenceCoalesced.
  ManagerFixture f;
  const int a = f.qm.registry().register_thread();
  const int b = f.qm.registry().register_thread();

  const FenceTicket ticket = f.qm.fence_async(static_cast<std::size_t>(a));
  f.ticket_fence(b);  // performs the scan itself
  EXPECT_TRUE(
      f.qm.fence_try_complete(ticket, static_cast<std::size_t>(a)));

  EXPECT_EQ(f.stats.total(Counter::kFenceAsyncIssued), 2u);
  EXPECT_EQ(f.stats.total(Counter::kFence), 2u);
  EXPECT_EQ(f.stats.total(Counter::kFenceCoalesced), 1u);
  f.qm.registry().unregister_thread(a);
  f.qm.registry().unregister_thread(b);
}

TEST(Quiescence, AsyncTicketBlocksOnActiveTransactionUntilItEnds) {
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  const int fencer = f.qm.registry().register_thread();

  f.qm.registry().tx_enter(worker);
  const FenceTicket ticket =
      f.qm.fence_async(static_cast<std::size_t>(fencer));
  // Polling cannot complete while the observed transaction runs, however
  // often it helps the scan forward.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(
        f.qm.fence_try_complete(ticket, static_cast<std::size_t>(fencer)));
  }
  f.qm.registry().tx_exit(worker);
  // A lone poller must finish its own grace periods (cooperative scan).
  while (!f.qm.fence_try_complete(ticket, static_cast<std::size_t>(fencer))) {
    std::this_thread::yield();
  }
  EXPECT_EQ(f.stats.total(Counter::kFenceAsyncIssued), 1u);
  EXPECT_EQ(f.stats.total(Counter::kFence), 1u);
  f.qm.registry().unregister_thread(worker);
  f.qm.registry().unregister_thread(fencer);
}

// The join rule of grace_period_target(), driven deterministically from one
// thread: try_elapse_ticket starts a scan that observes `worker` active and
// leaves it in flight (seq odd), so the next issue_ticket() sees s0 odd.

TEST(Quiescence, TicketJoinsInFlightScanWhileObservedWordIsUnchanged) {
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  f.qm.registry().tx_enter(worker);
  const FenceTicket first = f.qm.issue_ticket();
  EXPECT_FALSE(f.qm.try_elapse_ticket(first));  // starts the scan
  const std::uint64_t s0 = f.qm.grace_period_seq();
  ASSERT_EQ(s0 % 2, 1u) << "a scan must be in flight";

  // The only active slot is still in the scan's waiting set with the word
  // the snapshot saw: the ticket joins that scan.
  const FenceTicket joined = f.qm.issue_ticket();
  EXPECT_EQ(joined, s0 + 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(f.qm.try_elapse_ticket(joined));
  }
  EXPECT_FALSE(f.qm.ticket_elapsed(joined));

  f.qm.registry().tx_exit(worker);
  EXPECT_TRUE(f.qm.try_elapse_ticket(joined));
  EXPECT_EQ(f.qm.grace_period_seq(), s0 + 1) << "no second scan ran";
  f.qm.registry().unregister_thread(worker);
}

/// Issues a ticket after `late` entered a transaction the in-flight scan's
/// snapshot did not see (late == worker: the observed slot finished and
/// started a new one), and checks it waits for the scan after that one.
void expect_ticket_waits_for_next_scan(ManagerFixture& f, int worker,
                                       int late) {
  const bool late_is_worker = late == worker;
  const std::uint64_t s0 = f.qm.grace_period_seq();
  ASSERT_EQ(s0 % 2, 1u) << "a scan must be in flight";
  if (late_is_worker) f.qm.registry().tx_exit(worker);
  f.qm.registry().tx_enter(late);
  const FenceTicket ticket = f.qm.issue_ticket();
  EXPECT_EQ(ticket, s0 + 3);

  if (!late_is_worker) f.qm.registry().tx_exit(worker);
  // The in-flight scan can now finish, and the next one starts — but it
  // observes `late` active, so the ticket stays pending.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(f.qm.try_elapse_ticket(ticket));
  }
  EXPECT_EQ(f.qm.grace_period_seq(), s0 + 2) << "next scan in flight";
  EXPECT_FALSE(f.qm.ticket_elapsed(ticket));

  f.qm.registry().tx_exit(late);
  EXPECT_TRUE(f.qm.try_elapse_ticket(ticket));
  EXPECT_EQ(f.qm.grace_period_seq(), ticket);
}

TEST(Quiescence, TicketSkipsInFlightScanWhenAnotherSlotEnteredAfterSnapshot) {
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  const int late = f.qm.registry().register_thread();
  f.qm.registry().tx_enter(worker);
  EXPECT_FALSE(f.qm.try_elapse_ticket(f.qm.issue_ticket()));
  expect_ticket_waits_for_next_scan(f, worker, late);
  f.qm.registry().unregister_thread(worker);
  f.qm.registry().unregister_thread(late);
}

TEST(Quiescence, TicketSkipsInFlightScanWhenObservedSlotStartedNewTransaction) {
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  f.qm.registry().tx_enter(worker);
  EXPECT_FALSE(f.qm.try_elapse_ticket(f.qm.issue_ticket()));
  expect_ticket_waits_for_next_scan(f, worker, worker);
  f.qm.registry().unregister_thread(worker);
}

TEST(Quiescence, TicketCompletionRespectsIssueOrder) {
  // Tickets are monotonic grace-period targets: a later-issued ticket
  // completing implies every earlier ticket has completed too.
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  const int fencer = f.qm.registry().register_thread();

  f.qm.registry().tx_enter(worker);
  const FenceTicket t1 = f.qm.fence_async(static_cast<std::size_t>(fencer));
  const FenceTicket t2 = f.qm.fence_async(static_cast<std::size_t>(fencer));
  EXPECT_LE(t1, t2);
  f.qm.registry().tx_exit(worker);

  f.qm.fence_wait(t2, static_cast<std::size_t>(fencer));
  // t2 done ⇒ t1 must complete without any further grace period.
  EXPECT_GE(f.qm.grace_period_seq(), t1);
  EXPECT_TRUE(
      f.qm.fence_try_complete(t1, static_cast<std::size_t>(fencer)));
  f.qm.registry().unregister_thread(worker);
  f.qm.registry().unregister_thread(fencer);
}

TEST(Quiescence, StarvationFreeUnderBackToBackTransactions) {
  // A thread running transactions back to back must not starve coalesced
  // fences: the scan uses epoch-counter semantics (any activity-word
  // movement retires the observed transaction).
  ManagerFixture f;
  const int worker = f.qm.registry().register_thread();
  const int fencer = f.qm.registry().register_thread();

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      f.qm.registry().tx_enter(worker);
      f.qm.registry().tx_exit(worker);
    }
  });
  for (int i = 0; i < 25; ++i) f.ticket_fence(fencer);
  stop.store(true);
  churn.join();
  EXPECT_EQ(f.stats.total(Counter::kFence), 25u);
  f.qm.registry().unregister_thread(worker);
  f.qm.registry().unregister_thread(fencer);
}

TEST(Quiescence, DeferredPrivatizationHistoryIsWellFormed) {
  // The full deferred-privatization idiom on a real backend, recorded:
  // issue an async fence, keep committing transactions, complete the
  // fence, then access data non-transactionally. The shadow-stream
  // fbegin/fend must bracket so the history passes every well-formedness
  // condition — in particular condition 10 (fence blocking) and condition
  // 5 (per-thread request/response alternation).
  tm::TmConfig config;
  config.num_registers = 8;
  tm::Tl2 tmi(config);
  hist::Recorder recorder;

  std::atomic<bool> stop{false};
  std::thread worker([&] {
    auto session = tmi.make_thread(1, &recorder);
    hist::Value v = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      tm::run_tx(*session, [&](tm::TxScope& tx) { tx.write(1, ++v); });
    }
  });

  {
    auto session = tmi.make_thread(0, &recorder);
    hist::Value v = 0;
    for (int round = 0; round < 20; ++round) {
      // Privatize (claim) ...
      tm::run_tx_retry(*session,
                       [&](tm::TxScope& tx) { tx.write(0, ++v); });
      // ... issue the fence, overlap useful transactional work with the
      // grace period ...
      const rt::FenceTicket ticket = session->fence_async();
      tm::run_tx_retry(*session,
                       [&](tm::TxScope& tx) { tx.write(2, ++v); });
      (void)session->fence_try_complete(ticket);
      tm::run_tx_retry(*session,
                       [&](tm::TxScope& tx) { tx.write(3, ++v); });
      // ... complete it, then touch the privatized register NT.
      session->fence_wait(ticket);
      session->nt_write(4, ++v);
    }
  }
  stop.store(true);
  worker.join();

  EXPECT_EQ(tmi.stats().total(Counter::kFenceAsyncIssued), 20u);
  EXPECT_EQ(tmi.stats().total(Counter::kFence), 20u);

  const auto exec = recorder.collect();
  const auto report = hist::check_wellformed(exec.history);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Quiescence, AsyncFenceIsNoOpUnderPolicyNone) {
  tm::TmConfig config;
  config.num_registers = 4;
  config.fence_policy = FencePolicy::kNone;
  tm::Tl2 tmi(config);
  auto session = tmi.make_thread(0, nullptr);
  const rt::FenceTicket ticket = session->fence_async();
  EXPECT_EQ(ticket, rt::kNullFenceTicket);
  EXPECT_TRUE(session->fence_try_complete(ticket));
  session->fence_wait(ticket);
  EXPECT_EQ(tmi.stats().total(Counter::kFence), 0u);
  EXPECT_EQ(tmi.stats().total(Counter::kFenceAsyncIssued), 0u);
}

}  // namespace
}  // namespace privstm
