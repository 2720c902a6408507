// Tests for the transactional data structures (src/adt): sequential
// semantics, concurrent invariants, and the privatized bulk operations
// built on the paper's freeze → fence → NT → publish idiom.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "adt/tx_counter.hpp"
#include "adt/tx_hashmap.hpp"
#include "adt/tx_stack.hpp"
#include "runtime/barrier.hpp"
#include "runtime/fault.hpp"
#include "runtime/rng.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using adt::StackOp;
using adt::TxCounter;
using adt::TxHashMap;
using adt::TxStack;
using tm::TmKind;

class AdtOnTm : public ::testing::TestWithParam<TmKind> {
 protected:
  std::unique_ptr<tm::TransactionalMemory> make() {
    // Default config: the ADTs allocate their own storage from the heap,
    // beyond the static register prefix.
    return tm::make_tm(GetParam(), tm::TmConfig{});
  }
};

TEST_P(AdtOnTm, CounterSequential) {
  auto tmi = make();
  TxCounter counter(*tmi, 4);
  auto session = tmi->make_thread(0, nullptr);
  EXPECT_EQ(counter.read(*session), 0u);
  counter.add(*session, 5, 0);
  counter.add(*session, 7, 3);
  counter.add(*session, 1, 9);  // hint wraps modulo stripes
  EXPECT_EQ(counter.read(*session), 13u);
}

TEST_P(AdtOnTm, CounterConcurrentTotal) {
  constexpr std::size_t kThreads = 4;
  constexpr int kAdds = 500;
  auto tmi = make();
  TxCounter counter(*tmi, kThreads);
  rt::SpinBarrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(t),
                                      nullptr);
      barrier.arrive_and_wait();
      for (int i = 0; i < kAdds; ++i) counter.add(*session, 1, t);
    });
  }
  for (auto& w : workers) w.join();
  auto session = tmi->make_thread(0, nullptr);
  EXPECT_EQ(counter.read(*session), kThreads * kAdds);
}

TEST_P(AdtOnTm, StackLifo) {
  auto tmi = make();
  TxStack stack(*tmi, 8);
  auto session = tmi->make_thread(0, nullptr);
  EXPECT_EQ(stack.try_push(*session, 10), StackOp::kOk);
  EXPECT_EQ(stack.try_push(*session, 20), StackOp::kOk);
  EXPECT_EQ(stack.size(*session), 2u);
  tm::Value v = 0;
  EXPECT_EQ(stack.try_pop(*session, v), StackOp::kOk);
  EXPECT_EQ(v, 20u);
  EXPECT_EQ(stack.try_pop(*session, v), StackOp::kOk);
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(stack.try_pop(*session, v), StackOp::kFullOrEmpty);
}

TEST_P(AdtOnTm, StackCapacityBound) {
  auto tmi = make();
  TxStack stack(*tmi, 2);
  auto session = tmi->make_thread(0, nullptr);
  EXPECT_EQ(stack.try_push(*session, 1), StackOp::kOk);
  EXPECT_EQ(stack.try_push(*session, 2), StackOp::kOk);
  EXPECT_EQ(stack.try_push(*session, 3), StackOp::kFullOrEmpty);
}

TEST_P(AdtOnTm, StackConcurrentConservation) {
  // Producers push tagged values, consumers pop; at the end
  // pushed == popped + remaining, with no duplicates or inventions.
  constexpr std::size_t kCapacity = 64;
  auto tmi = make();
  TxStack stack(*tmi, kCapacity);
  constexpr int kPerProducer = 300;
  std::atomic<std::uint64_t> popped_count{0};
  std::set<tm::Value> popped;
  rt::SpinLock popped_lock;
  rt::SpinBarrier barrier(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {  // producers
    workers.emplace_back([&, t] {
      auto session = tmi->make_thread(t, nullptr);
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerProducer; ++i) {
        const tm::Value v =
            (static_cast<tm::Value>(t) + 1) << 32 | (i + 1);
        while (stack.try_push(*session, v) != StackOp::kOk) {
        }
      }
    });
  }
  std::atomic<bool> done{false};
  for (int t = 2; t < 4; ++t) {  // consumers
    workers.emplace_back([&, t] {
      auto session = tmi->make_thread(t, nullptr);
      barrier.arrive_and_wait();
      while (!done.load() || stack.size(*session) > 0) {
        tm::Value v = 0;
        if (stack.try_pop(*session, v) == StackOp::kOk) {
          std::lock_guard<rt::SpinLock> guard(popped_lock);
          EXPECT_TRUE(popped.insert(v).second) << "duplicate pop";
          popped_count.fetch_add(1);
        }
      }
    });
  }
  workers[0].join();
  workers[1].join();
  done.store(true);
  workers[2].join();
  workers[3].join();
  auto session = tmi->make_thread(0, nullptr);
  EXPECT_EQ(popped_count.load() + stack.size(*session),
            2u * kPerProducer);
}

TEST_P(AdtOnTm, StackPrivatizedDrain) {
  constexpr std::size_t kCapacity = 32;
  auto tmi = make();
  TxStack stack(*tmi, kCapacity);
  auto session = tmi->make_thread(0, nullptr);
  for (tm::Value v = 1; v <= 5; ++v) {
    ASSERT_EQ(stack.try_push(*session, v * 100), StackOp::kOk);
  }
  std::vector<tm::Value> drained;
  stack.drain_privatized(*session, drained, /*freeze_token=*/777);
  EXPECT_EQ(drained, (std::vector<tm::Value>{500, 400, 300, 200, 100}));
  EXPECT_EQ(stack.size(*session), 0u);
  // The stack is usable again after publication.
  EXPECT_EQ(stack.try_push(*session, 999), StackOp::kOk);
}

TEST_P(AdtOnTm, StackDrainUnderConcurrentPushers) {
  constexpr std::size_t kCapacity = 128;
  auto tmi = make();
  TxStack stack(*tmi, kCapacity);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pushed{0};
  std::thread pusher([&] {
    auto session = tmi->make_thread(1, nullptr);
    tm::Value tag = 1;
    while (!stop.load()) {
      if (stack.try_push(*session, (tm::Value{1} << 32) | tag++) ==
          StackOp::kOk) {
        pushed.fetch_add(1);
      }
    }
  });
  auto session = tmi->make_thread(0, nullptr);
  std::uint64_t drained_total = 0;
  std::vector<tm::Value> drained;
  for (int round = 0; round < 50; ++round) {
    stack.drain_privatized(*session, drained,
                           (tm::Value{2} << 32) | (round + 1));
    drained_total += drained.size();
  }
  stop.store(true);
  pusher.join();
  stack.drain_privatized(*session, drained, tm::Value{3} << 32);
  drained_total += drained.size();
  EXPECT_EQ(drained_total, pushed.load());
}

TEST_P(AdtOnTm, HashMapPutGetErase) {
  constexpr std::size_t kCapacity = 16;
  auto tmi = make();
  TxHashMap map(*tmi, kCapacity);
  auto session = tmi->make_thread(0, nullptr);
  EXPECT_FALSE(map.get(*session, 42).has_value());
  EXPECT_TRUE(map.put(*session, 42, 1000));
  EXPECT_TRUE(map.put(*session, 43, 2000));
  EXPECT_EQ(map.get(*session, 42).value(), 1000u);
  EXPECT_TRUE(map.put(*session, 42, 1001));  // update
  EXPECT_EQ(map.get(*session, 42).value(), 1001u);
  EXPECT_TRUE(map.erase(*session, 42));
  EXPECT_FALSE(map.get(*session, 42).has_value());
  EXPECT_FALSE(map.erase(*session, 42));
  EXPECT_EQ(map.get(*session, 43).value(), 2000u);
}

TEST_P(AdtOnTm, HashMapProbingAndTombstones) {
  constexpr std::size_t kCapacity = 4;
  auto tmi = make();
  TxHashMap map(*tmi, kCapacity);
  auto session = tmi->make_thread(0, nullptr);
  // Fill the whole table.
  for (tm::Value k = 1; k <= 4; ++k) {
    EXPECT_TRUE(map.put(*session, k, k * 10));
  }
  EXPECT_FALSE(map.put(*session, 5, 50));  // full
  // Erase one, reinsert into the tombstone.
  EXPECT_TRUE(map.erase(*session, 2));
  EXPECT_TRUE(map.put(*session, 5, 50));
  EXPECT_EQ(map.get(*session, 5).value(), 50u);
  for (tm::Value k : {1u, 3u, 4u}) {
    EXPECT_EQ(map.get(*session, k).value(), k * 10) << k;
  }
}

TEST_P(AdtOnTm, HashMapRebuildCompacts) {
  constexpr std::size_t kCapacity = 8;
  auto tmi = make();
  TxHashMap map(*tmi, kCapacity);
  auto session = tmi->make_thread(0, nullptr);
  for (tm::Value k = 1; k <= 6; ++k) ASSERT_TRUE(map.put(*session, k, k));
  for (tm::Value k = 1; k <= 5; ++k) ASSERT_TRUE(map.erase(*session, k));
  map.rebuild_privatized(*session, /*freeze_token=*/555);
  EXPECT_EQ(map.get(*session, 6).value(), 6u);
  // After compaction there is room again despite the former tombstones.
  for (tm::Value k = 10; k < 10 + 7; ++k) {
    EXPECT_TRUE(map.put(*session, k, k)) << k;
  }
}

TEST_P(AdtOnTm, HashMapReserveGrowsViaFenceThenFree) {
  // The heap-era resize: reserve() allocates the bigger table with
  // tm_alloc, fences (privatizing the old block against in-flight
  // delayed commits), rebuilds with NT accesses, publishes, and
  // tm_frees the old block — the paper's fence-then-free idiom end to
  // end on a real container.
  constexpr std::size_t kCapacity = 8;
  auto tmi = make();
  TxHashMap map(*tmi, kCapacity);
  auto session = tmi->make_thread(0, nullptr);
  for (tm::Value k = 1; k <= 6; ++k) ASSERT_TRUE(map.put(*session, k, 10 * k));
  const tm::TxHandle old_block = map.handle();

  map.reserve(*session, 64, /*freeze_token=*/777);
  EXPECT_EQ(map.capacity(), 64u);
  EXPECT_NE(map.handle(), old_block);

  // Every pair survived the rehash, and the grown table now takes far
  // more than the old capacity.
  for (tm::Value k = 1; k <= 6; ++k) {
    ASSERT_EQ(map.get(*session, k).value(), 10 * k);
  }
  for (tm::Value k = 100; k < 140; ++k) {
    ASSERT_TRUE(map.put(*session, k, k)) << k;
  }
  EXPECT_EQ(map.get(*session, 139).value(), 139u);

  // The old block went through tm_free: after a drain it is recycled
  // store inventory, not leaked arena.
  tmi->heap().drain_limbo();
  EXPECT_GE(tmi->heap().reclaimed_count(), 1u);

  // reserve to a smaller/equal capacity is a no-op.
  const tm::TxHandle grown = map.handle();
  map.reserve(*session, 16, /*freeze_token=*/778);
  EXPECT_EQ(map.handle(), grown);
}

TEST_P(AdtOnTm, HashMapConcurrentDisjointKeys) {
  constexpr std::size_t kCapacity = 256;
  auto tmi = make();
  TxHashMap map(*tmi, kCapacity);
  constexpr std::size_t kThreads = 4;
  constexpr int kKeysPerThread = 40;
  rt::SpinBarrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(t),
                                      nullptr);
      barrier.arrive_and_wait();
      for (int i = 0; i < kKeysPerThread; ++i) {
        const tm::Value key =
            (static_cast<tm::Value>(t) + 1) * 1000 + i;
        EXPECT_TRUE(map.put(*session, key, key * 2));
      }
    });
  }
  for (auto& w : workers) w.join();
  auto session = tmi->make_thread(0, nullptr);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const tm::Value key = (static_cast<tm::Value>(t) + 1) * 1000 + i;
      ASSERT_EQ(map.get(*session, key).value(), key * 2);
    }
  }
}

TEST_P(AdtOnTm, HashMapPrivatizedIterationConsistentSnapshot) {
  // Writers continuously pump increments into per-key values; the
  // privatized iteration must observe, for each key, a value that is a
  // multiple of its key (writers always write key*n) — a torn snapshot
  // would mix generations.
  constexpr std::size_t kCapacity = 64;
  auto tmi = make();
  TxHashMap map(*tmi, kCapacity);
  {
    auto setup = tmi->make_thread(0, nullptr);
    for (tm::Value k = 2; k <= 9; ++k) ASSERT_TRUE(map.put(*setup, k, k));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto session = tmi->make_thread(1, nullptr);
    rt::Xoshiro256 rng(99);
    tm::Value gen = 1;
    while (!stop.load()) {
      const tm::Value k = 2 + rng.below(8);
      ++gen;
      map.put(*session, k, k * gen);
    }
  });
  auto session = tmi->make_thread(0, nullptr);
  for (int round = 0; round < 30; ++round) {
    std::size_t seen = 0;
    map.for_each_privatized(
        *session, (tm::Value{7} << 32) | (round + 1),
        [&](tm::Value key, tm::Value value) {
          ++seen;
          EXPECT_EQ(value % key, 0u)
              << "torn snapshot: key " << key << " value " << value;
        });
    EXPECT_EQ(seen, 8u);
  }
  stop.store(true);
  writer.join();
}

TEST_P(AdtOnTm, HashMapFrozenWaiterCommitsBounded) {
  // An operation that meets a frozen table must wait for the unfreeze
  // outside any transaction: one read-only commit that sees the freeze,
  // one counted wait, one commit after the republication — however long
  // the freeze is held. A spin of read-only transactions would commit
  // thousands of times over the 5 ms hold below.
  auto tmi = make();
  TxHashMap map(*tmi, 16);
  auto session = tmi->make_thread(0, nullptr);
  ASSERT_TRUE(map.put(*session, 5, 50));
  map.freeze(*session, (tm::Value{9} << 32) | 1);
  const rt::StatsDomain& stats = tmi->stats();
  const std::uint64_t commits_before = stats.total(rt::Counter::kTxCommit);

  std::optional<tm::Value> got;
  std::thread waiter([&] {
    auto reader = tmi->make_thread(1, nullptr);
    got = map.get(*reader, 5);
  });
  // Hold the freeze for 5 ms once the waiter is known to be waiting.
  while (stats.total(rt::Counter::kFrozenWait) == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  map.unfreeze(*session);
  waiter.join();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 50u);
  EXPECT_EQ(stats.total(rt::Counter::kFrozenWait), 1u);
  // The waiter's frozen read, the unfreeze, the waiter's real get.
  EXPECT_LE(stats.total(rt::Counter::kTxCommit) - commits_before, 3u);
}

TEST_P(AdtOnTm, HashMapAbortedValueReadNeverSurfacesAsFound) {
  // Regression: an abort landing on the value-slot read right AFTER a
  // successful key match must not surface as "found, value 0" — TxScope
  // reads return 0 once aborted, and callers decode map values into heap
  // handles before the retry wrapper can discard the attempt (the session
  // store asserted inside TxHandle::loc on exactly this window). Drive
  // the window deterministically with injected read-validation aborts.
  tm::TmConfig config;
  config.fault.abort_permille = 500;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kReadValidation);
  auto tmi = tm::make_tm(GetParam(), config);
  TxHashMap map(*tmi, 16);
  auto session = tmi->make_thread(0, nullptr);
  constexpr tm::Value kKey = 7;
  constexpr tm::Value kStored = 0xAB5E55ED;
  constexpr tm::Value kUntouched = 0xDEAD;

  tmi->fault().suspend(0);  // populate without interference
  ASSERT_TRUE(map.put(*session, kKey, kStored));
  tmi->fault().resume(0);

  int found = 0;
  int missed = 0;
  for (int i = 0; i < 4000; ++i) {
    std::optional<tm::Value> got;
    tm::Value removed = kUntouched;
    tm::Value replaced = kUntouched;
    bool erased = false;
    tm::run_tx(*session, [&](tm::TxScope& tx) {
      got = map.get_in(tx, kKey);
      erased = map.erase_in(tx, kKey, &removed);
      // After the (uncommitted) erase, put_in sees the tombstone through
      // the write set and takes the free-slot path: `replaced` must stay
      // untouched on every outcome.
      map.put_in(tx, kKey, kStored, &replaced);
      tx.abort();  // probe-only: keep the map intact across iterations
    });
    if (got.has_value()) {
      ++found;
      ASSERT_EQ(*got, kStored) << "aborted read surfaced as a found value";
    } else {
      ++missed;
    }
    if (erased) {
      ASSERT_EQ(removed, kStored);
    } else {
      ASSERT_EQ(removed, kUntouched);
    }
    ASSERT_EQ(replaced, kUntouched);
  }
  // Backends that roll the read-validation site must have exercised both
  // the clean and the aborted path; on backends that never inject there,
  // every probe simply succeeds.
  if (tmi->fault().injected(rt::FaultSite::kReadValidation) > 0) {
    EXPECT_GT(found, 0);
    EXPECT_GT(missed, 0);
  } else {
    EXPECT_EQ(found, 4000);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTms, AdtOnTm,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

}  // namespace
}  // namespace privstm
