// Unit tests for the concurrency runtime (S1/S2).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/global_clock.hpp"
#include "runtime/rng.hpp"
#include "runtime/seqlock.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/versioned_lock.hpp"

namespace rt = privstm::rt;

TEST(CacheAligned, IsolatesNeighbours) {
  rt::CacheAligned<int> cells[2];
  const auto a = reinterpret_cast<std::uintptr_t>(&cells[0].value);
  const auto b = reinterpret_cast<std::uintptr_t>(&cells[1].value);
  EXPECT_GE(b - a, rt::kCacheLine);
  EXPECT_EQ(a % rt::kCacheLine, 0u);
}

TEST(SpinLock, MutualExclusionUnderContention) {
  rt::SpinLock lock;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<rt::SpinLock> guard(lock);
        ++counter;  // data race iff the lock is broken
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  rt::SpinLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(OwnedLock, OwnershipRoundTrip) {
  rt::OwnedLock lock;
  EXPECT_FALSE(lock.test());
  EXPECT_EQ(lock.owner(), rt::OwnedLock::kUnowned);
  ASSERT_TRUE(lock.try_lock(7));
  EXPECT_TRUE(lock.test());
  EXPECT_TRUE(lock.held_by(7));
  EXPECT_FALSE(lock.held_by(8));
  EXPECT_FALSE(lock.try_lock(8));
  lock.unlock();
  EXPECT_FALSE(lock.test());
  EXPECT_TRUE(lock.try_lock(8));
  lock.unlock();
}

TEST(SeqLock, WriterExcludesWriter) {
  rt::SeqLock seq;
  const auto s0 = seq.read_begin();
  EXPECT_EQ(s0 % 2, 0u);
  ASSERT_TRUE(seq.try_write_lock(s0));
  EXPECT_FALSE(seq.try_write_lock(s0));       // stale snapshot
  EXPECT_FALSE(seq.try_write_lock(seq.raw()));  // odd: writer active
  seq.write_unlock();
  const auto s1 = seq.read_begin();
  EXPECT_EQ(s1, s0 + 2);
  EXPECT_TRUE(seq.read_validate(s1));
  EXPECT_FALSE(seq.read_validate(s0));
}

TEST(GlobalClock, MonotoneAcrossThreads) {
  rt::GlobalClock clock;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::vector<std::uint64_t>> stamps(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) stamps[t].push_back(clock.advance());
    });
  }
  for (auto& w : workers) w.join();
  // Per-thread strictly increasing, globally all distinct.
  std::vector<std::uint64_t> all;
  for (const auto& s : stamps) {
    for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(clock.sample(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Xoshiro, BelowIsInRangeAndCoversValues) {
  rt::Xoshiro256 rng(123);
  bool seen[10] = {};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Xoshiro, DeterministicForSeed) {
  rt::Xoshiro256 a(42);
  rt::Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SpinBarrier, AlignsPhases) {
  constexpr std::size_t kThreads = 4;
  rt::SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        phase_counter.fetch_add(1);
        barrier.arrive_and_wait();
        // All increments of this round must be visible.
        EXPECT_GE(phase_counter.load(), (round + 1) * static_cast<int>(kThreads));
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(phase_counter.load(), 50 * static_cast<int>(kThreads));
}

TEST(ThreadRegistry, RegisterAndActivity) {
  rt::ThreadRegistry registry;
  const int slot = registry.register_thread();
  ASSERT_GE(slot, 0);
  EXPECT_FALSE(registry.is_active(slot));
  registry.tx_enter(slot);
  EXPECT_TRUE(registry.is_active(slot));
  EXPECT_EQ(registry.active_count(), 1u);
  registry.tx_exit(slot);
  EXPECT_FALSE(registry.is_active(slot));
  registry.unregister_thread(slot);
  EXPECT_EQ(registry.registered_count(), 0u);
}

TEST(ThreadRegistry, SlotGuardReleases) {
  rt::ThreadRegistry registry;
  {
    rt::ThreadSlotGuard guard(registry);
    EXPECT_EQ(registry.registered_count(), 1u);
  }
  EXPECT_EQ(registry.registered_count(), 0u);
}

TEST(ThreadRegistry, HighWaterMarkTracksClaimedSlotPrefix) {
  // Fence scans cover only [0, high_water()): the bound grows with the
  // highest claimed slot and deliberately never shrinks (monotonic), so a
  // scan can never miss a slot that might host a transaction.
  rt::ThreadRegistry registry;
  EXPECT_EQ(registry.high_water(), 0u);
  const int a = registry.register_thread();
  const int b = registry.register_thread();
  const int c = registry.register_thread();
  EXPECT_EQ(registry.high_water(), 3u);
  registry.unregister_thread(b);
  EXPECT_EQ(registry.high_water(), 3u);  // monotonic
  // Slot reuse stays within the existing prefix.
  const int d = registry.register_thread();
  EXPECT_EQ(d, b);
  EXPECT_EQ(registry.high_water(), 3u);
  registry.unregister_thread(a);
  registry.unregister_thread(c);
  registry.unregister_thread(d);
  EXPECT_EQ(registry.high_water(), 3u);
  EXPECT_EQ(registry.registered_count(), 0u);
}

TEST(ThreadRegistry, QuiesceNoActiveReturnsImmediately) {
  rt::ThreadRegistry registry;
  const int slot = registry.register_thread();
  registry.quiesce();  // nothing active: must not block
  registry.unregister_thread(slot);
}

TEST(ThreadRegistry, QuiesceWaitsForActiveTransaction) {
  rt::ThreadRegistry registry;
  const int slot = registry.register_thread();
  registry.tx_enter(slot);

  std::atomic<bool> fence_done{false};
  std::thread fencer([&] {
    registry.quiesce(rt::FenceMode::kEpochCounter);
    fence_done.store(true);
  });
  // The fence must not complete while the transaction is active.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fence_done.load());
  registry.tx_exit(slot);
  fencer.join();
  EXPECT_TRUE(fence_done.load());
  registry.unregister_thread(slot);
}

TEST(ThreadRegistry, EpochFenceUnaffectedByLaterTransactions) {
  // The fence waits only for transactions active at its start: a thread
  // that keeps starting new transactions must not starve it (this is the
  // liveness advantage of the epoch mode over the paper-boolean mode).
  rt::ThreadRegistry registry;
  const int slot = registry.register_thread();
  registry.tx_enter(slot);

  std::atomic<bool> fence_done{false};
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    registry.tx_exit(slot);  // complete the observed transaction
    while (!stop.load()) {   // then churn new ones continuously
      registry.tx_enter(slot);
      registry.tx_exit(slot);
    }
  });
  std::thread fencer([&] {
    registry.quiesce(rt::FenceMode::kEpochCounter);
    fence_done.store(true);
  });
  fencer.join();
  EXPECT_TRUE(fence_done.load());
  stop.store(true);
  worker.join();
  registry.unregister_thread(slot);
}

TEST(Stats, AggregatesAcrossThreads) {
  rt::StatsDomain stats;
  stats.add(0, rt::Counter::kTxCommit, 3);
  stats.add(1, rt::Counter::kTxCommit, 4);
  stats.add(1, rt::Counter::kTxAbort);
  EXPECT_EQ(stats.total(rt::Counter::kTxCommit), 7u);
  EXPECT_EQ(stats.total(rt::Counter::kTxAbort), 1u);
  EXPECT_NE(stats.summary().find("tx_commits=7"), std::string::npos);
  stats.reset();
  EXPECT_EQ(stats.total(rt::Counter::kTxCommit), 0u);
}

TEST(Backoff, PausesWithoutHanging) {
  rt::Backoff backoff;
  for (int i = 0; i < 20; ++i) backoff.pause();
  backoff.reset();
  backoff.pause();
}
