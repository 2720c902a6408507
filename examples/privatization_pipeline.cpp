// A staged processing pipeline built on the privatize → work → publish
// idiom (the paper's §1 motivation: avoid transactional overhead on hot
// data you temporarily own).
//
// A shared table of work buffers is normally accessed transactionally.
// Each worker repeatedly:
//   1. claims a buffer by CAS-style transaction on its owner register,
//   2. issues a transactional fence (delayed-commit protection, Fig 1a),
//   3. mutates the buffer with plain NT accesses (16 updates, zero
//      instrumentation),
//   4. publishes the buffer back transactionally.
//
// The pipeline runs twice, demonstrating both fencing styles of the
// quiescence subsystem (DESIGN.md §5):
//   * synchronous — fence() blocks between claim and the NT work;
//   * deferred    — fence_async() issues a ticket right after the claim,
//     the worker keeps doing useful *transactional* bookkeeping while the
//     grace period elapses (the coalesced grace-period engine), and only
//     then completes the ticket and touches the buffer uninstrumented.
//
// The invariant checked at the end of each phase: every buffer's content
// equals the number of completed work phases on it — any delayed commit
// or doomed read would corrupt the count.
//
// Build & run:  ./examples/privatization_pipeline
#include <cstdio>
#include <thread>
#include <vector>

#include "runtime/rng.hpp"
#include "tm/factory.hpp"

using namespace privstm;

namespace {

constexpr std::size_t kBuffers = 4;
constexpr std::size_t kCellsPerBuffer = 4;
constexpr int kWorkers = 3;
constexpr int kPhasesPerWorker = 2000;

// Register layout: [0, kBuffers) owner flags; then kBuffers × kCells data;
// then one transactional bookkeeping counter per worker.
constexpr hist::RegId owner_reg(std::size_t buffer) {
  return static_cast<hist::RegId>(buffer);
}
constexpr hist::RegId cell_reg(std::size_t buffer, std::size_t cell) {
  return static_cast<hist::RegId>(kBuffers + buffer * kCellsPerBuffer + cell);
}
constexpr hist::RegId bookkeeping_reg(int worker) {
  return static_cast<hist::RegId>(kBuffers + kBuffers * kCellsPerBuffer +
                                  static_cast<std::size_t>(worker) - 1);
}

// Owner-flag encoding: 0 = shared/free, otherwise (worker id << 32 | tag).
// Every write is unique, matching the formal model's unique-writes rule.
struct Claimed {
  bool ok;
  std::size_t buffer;
};

Claimed try_claim(tm::TmThread& session, rt::Xoshiro256& rng,
                  hist::Value claim_tag) {
  const std::size_t buffer = rng.below(kBuffers);
  bool claimed = false;
  tm::run_tx_retry(session, [&](tm::TxScope& tx) {
    claimed = false;
    if (tx.read(owner_reg(buffer)) != 0) return;  // someone owns it
    tx.write(owner_reg(buffer), claim_tag);
    claimed = true;
  });
  return {claimed, buffer};
}

void worker(tm::TransactionalMemory& tmi, int id, bool deferred,
            std::vector<std::size_t>& phases_done) {
  auto session = tmi.make_thread(id, nullptr);
  rt::Xoshiro256 rng(static_cast<std::uint64_t>(id) * 977 + 5);
  hist::Value tag = static_cast<hist::Value>(id) << 32;
  std::size_t done = 0;
  for (int phase = 0; phase < kPhasesPerWorker; ++phase) {
    const Claimed claim = try_claim(*session, rng, ++tag);
    if (!claim.ok) continue;

    // The buffer is now logically private — but a transaction that read
    // the owner flag before our claim may still be committing a write to
    // it. The fence waits those out.
    if (deferred) {
      // Queue the privatization and keep doing useful transactional work
      // while the grace period elapses underneath it.
      const rt::FenceTicket ticket = session->fence_async();
      for (int k = 0; k < 2; ++k) {
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          tx.write(bookkeeping_reg(id), ++tag);
        });
      }
      session->fence_wait(ticket);
    } else {
      session->fence();
    }

    // Uninstrumented work: increment a per-buffer phase counter spread
    // over the cells.
    for (std::size_t c = 0; c < kCellsPerBuffer; ++c) {
      const hist::Value v = session->nt_read(cell_reg(claim.buffer, c));
      session->nt_write(cell_reg(claim.buffer, c), v + 1);
    }
    ++done;

    // Publish back: clear the owner flag transactionally. (Publication
    // needs no fence — §3's xpo;txwr edge covers it.)
    tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
      tx.write(owner_reg(claim.buffer), 0 /* free */);
    });
  }
  phases_done[static_cast<std::size_t>(id) - 1] = done;
}

/// Run one full pipeline; returns true when the invariant held.
bool run_pipeline(bool deferred) {
  tm::TmConfig config;
  config.num_registers =
      kBuffers + kBuffers * kCellsPerBuffer + static_cast<std::size_t>(kWorkers);
  // The deferred phase's tickets run on the coalesced grace-period
  // engine; the sync phase's fence() runs the per-fence registry scan.
  config.fence_policy = tm::FencePolicy::kSelective;
  auto tmi = tm::make_tm(tm::TmKind::kTl2, config);

  std::vector<std::size_t> phases_done(kWorkers, 0);
  std::vector<std::thread> workers;
  for (int w = 1; w <= kWorkers; ++w) {
    workers.emplace_back([&tmi, &phases_done, deferred, w] {
      worker(*tmi, w, deferred, phases_done);
    });
  }
  for (auto& t : workers) t.join();

  // Verify: total cell increments == kCellsPerBuffer × total phases.
  std::size_t total_phases = 0;
  for (std::size_t p : phases_done) total_phases += p;
  hist::Value total_increments = 0;
  for (std::size_t b = 0; b < kBuffers; ++b) {
    for (std::size_t c = 0; c < kCellsPerBuffer; ++c) {
      total_increments += tmi->peek(cell_reg(b, c));
    }
  }
  const hist::Value expected =
      static_cast<hist::Value>(total_phases) * kCellsPerBuffer;
  std::printf("[%s] phases completed: %zu\n",
              deferred ? "deferred" : "sync", total_phases);
  std::printf("[%s] cell increments:  %llu (expected %llu) — %s\n",
              deferred ? "deferred" : "sync",
              static_cast<unsigned long long>(total_increments),
              static_cast<unsigned long long>(expected),
              total_increments == expected ? "consistent" : "CORRUPTED");
  std::printf("[%s] tm stats: %s\n", deferred ? "deferred" : "sync",
              tmi->stats().summary().c_str());
  return total_increments == expected;
}

}  // namespace

int main() {
  const bool sync_ok = run_pipeline(/*deferred=*/false);
  const bool deferred_ok = run_pipeline(/*deferred=*/true);
  return sync_ok && deferred_ok ? 0 : 1;
}
