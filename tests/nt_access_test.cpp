// Non-transactional accesses, parameterized over all implementations: the
// one TmThread NT path counts every access, logs it when a recorder is
// attached, and — with release/acquire ordering — still carries the
// publication and privatization idioms of the paper (Fig 2 / Fig 1).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "history/recorder.hpp"
#include "history/wellformed.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::TmKind;

class NtAccess : public ::testing::TestWithParam<TmKind> {
 protected:
  std::unique_ptr<tm::TransactionalMemory> make(std::size_t regs = 8) {
    tm::TmConfig config;
    config.num_registers = regs;
    return tm::make_tm(GetParam(), config);
  }
};

TEST_P(NtAccess, CountsAndRecords) {
  auto tmi = make();
  const auto reads = [&] { return tmi->stats().total(rt::Counter::kNtRead); };
  const auto writes = [&] {
    return tmi->stats().total(rt::Counter::kNtWrite);
  };

  // Unrecorded session: one write plus one read count exactly one each.
  auto session = tmi->make_thread(0, nullptr);
  std::uint64_t r0 = reads();
  std::uint64_t w0 = writes();
  session->nt_write(3, 42);
  EXPECT_EQ(session->nt_read(3), 42u);
  EXPECT_EQ(reads() - r0, 1u);
  EXPECT_EQ(writes() - w0, 1u);

  // The typed accessors take the same path.
  const tm::TxVar<std::int64_t> var(5);
  r0 = reads();
  w0 = writes();
  var.nt_set(*session, -7);
  EXPECT_EQ(var.nt_get(*session), -7);
  EXPECT_EQ(reads() - r0, 1u);
  EXPECT_EQ(writes() - w0, 1u);

  // Recorded session: each access logs its request/response pair, each
  // write its publish entry; the counters move the same way.
  hist::Recorder recorder;
  {
    auto recorded = tmi->make_thread(1, &recorder);
    r0 = reads();
    w0 = writes();
    recorded->nt_write(4, 99);
    EXPECT_EQ(recorded->nt_read(4), 99u);
    var.nt_set(*recorded, 11);
    EXPECT_EQ(var.nt_get(*recorded), 11);
    EXPECT_EQ(reads() - r0, 2u);
    EXPECT_EQ(writes() - w0, 2u);
  }
  const auto exec = recorder.collect();
  EXPECT_TRUE(hist::check_wellformed(exec.history).ok());

  using hist::ActionKind;
  const std::vector<hist::Action> want = {
      {0, 1, ActionKind::kWriteReq, 4, 99}, {0, 1, ActionKind::kWriteRet, 4},
      {0, 1, ActionKind::kReadReq, 4},      {0, 1, ActionKind::kReadRet, 4, 99},
      {0, 1, ActionKind::kWriteReq, 5, 11}, {0, 1, ActionKind::kWriteRet, 5},
      {0, 1, ActionKind::kReadReq, 5},      {0, 1, ActionKind::kReadRet, 5, 11},
  };
  ASSERT_EQ(exec.history.size(), want.size()) << exec.history.to_string();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const hist::Action& got = exec.history[i];
    EXPECT_EQ(got.thread, want[i].thread) << i;
    EXPECT_EQ(got.kind, want[i].kind) << i;
    EXPECT_EQ(got.reg, want[i].reg) << i;
    EXPECT_EQ(got.value, want[i].value) << i;
  }
  const auto& nt = exec.history.nt_accesses();
  ASSERT_EQ(nt.size(), 4u);
  EXPECT_TRUE(nt[0].is_write);
  EXPECT_FALSE(nt[1].is_write);
  EXPECT_EQ(nt[1].value, 99u);
  EXPECT_EQ(nt[3].value, 11u);

  ASSERT_EQ(exec.publish_order.size(), 2u);
  EXPECT_EQ(exec.publish_order.at(4), std::vector<hist::Value>{99});
  EXPECT_EQ(exec.publish_order.at(5), std::vector<hist::Value>{11});
}

/// The cell pattern a producer writes for key `key`: distinct per key and
/// cell, never vinit, so a recycled block's stale contents cannot pass.
hist::Value pattern(hist::Value key, std::size_t i) {
  return (key * 0x9E3779B97F4A7C15ull) ^ (i + 1);
}

TEST_P(NtAccess, PublishThenPrivatizeStress) {
  // A one-slot mailbox in the static registers: base, key, size of the
  // published block (base 0 = empty; heap blocks never start at 0).
  constexpr hist::RegId kBase = 0;
  constexpr hist::RegId kKey = 1;
  constexpr hist::RegId kSize = 2;
  constexpr hist::Value kRounds = 3000;
  auto tmi = make();

  std::thread producer([&] {
    auto session = tmi->make_thread(0, nullptr);
    for (hist::Value key = 1; key <= kRounds; ++key) {
      const std::size_t n = 1 + static_cast<std::size_t>(key % 24);
      const tm::TxHandle block = session->tm_alloc(n);
      // Pre-publication NT fill; the publish commit orders it before any
      // transaction that finds the handle.
      for (std::size_t i = 0; i < n; ++i) {
        session->nt_write(block.loc(i), pattern(key, i));
      }
      bool published = false;
      while (!published) {
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          published = tx.read(kBase) == 0;
          if (!published) return;
          tx.write(kBase, static_cast<hist::Value>(block.base));
          tx.write(kKey, key);
          tx.write(kSize, n);
        });
        if (!published) std::this_thread::yield();
      }
    }
  });

  auto session = tmi->make_thread(1, nullptr);
  std::uint64_t tx_mismatches = 0;
  std::uint64_t nt_mismatches = 0;
  for (hist::Value expect_key = 1; expect_key <= kRounds; ++expect_key) {
    tm::TxHandle block{};
    hist::Value key = 0;
    std::uint64_t bad = 0;
    while (!block.valid()) {
      tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
        bad = 0;
        const hist::Value base = tx.read(kBase);
        if (base == 0) {
          block = {};
          return;
        }
        key = tx.read(kKey);
        block = {static_cast<hist::RegId>(base),
                 static_cast<std::uint32_t>(tx.read(kSize))};
        for (std::size_t i = 0; i < block.size; ++i) {
          if (tx.read(block.loc(i)) != pattern(key, i)) ++bad;
        }
      });
      if (!block.valid()) std::this_thread::yield();
    }
    ASSERT_EQ(key, expect_key);
    tx_mismatches += bad;
    // Privatize: unlink, fence, then the block is this thread's alone.
    tm::run_tx_retry(*session,
                     [&](tm::TxScope& tx) { tx.write(kBase, 0); });
    session->fence();
    for (std::size_t i = 0; i < block.size; ++i) {
      if (session->nt_read(block.loc(i)) != pattern(key, i)) ++nt_mismatches;
    }
    session->tm_free(block);
  }
  producer.join();
  EXPECT_EQ(tx_mismatches, 0u);
  EXPECT_EQ(nt_mismatches, 0u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kNtRead),
            tmi->stats().total(rt::Counter::kNtWrite));
}

INSTANTIATE_TEST_SUITE_P(AllTms, NtAccess,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

}  // namespace
}  // namespace privstm
