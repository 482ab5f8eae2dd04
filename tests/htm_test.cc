#include "src/sim/htm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/memory_bus.h"

namespace drtmr::sim {
namespace {

class HtmTest : public ::testing::Test {
 protected:
  HtmTest()
      : bus_(1 << 20, &cost_, /*slots=*/8, /*read_cap=*/128, /*write_cap=*/32),
        engine_(&bus_, &cost_) {}

  CostModel cost_;
  MemoryBus bus_;
  HtmEngine engine_;
};

TEST_F(HtmTest, CommitMakesWritesVisible) {
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engine_.Begin(&ctx);
  ASSERT_NE(txn, nullptr);
  ASSERT_EQ(txn->WriteU64(100, 42), Status::kOk);
  // Before commit the write is speculative: non-transactional read sees 0
  // (and, per strong atomicity, dooms the transaction — so snapshot through
  // a different region of memory instead).
  ASSERT_EQ(txn->Commit(), Status::kOk);
  EXPECT_EQ(bus_.ReadU64(&ctx, 100), 42u);
  EXPECT_EQ(engine_.stats().commits.load(), 1u);
}

TEST_F(HtmTest, ReadYourOwnWrites) {
  ThreadContext ctx(0, 0, 1);
  bus_.WriteU64(&ctx, 200, 7);
  HtmTxn* txn = engine_.Begin(&ctx);
  uint64_t v = 0;
  ASSERT_EQ(txn->ReadU64(200, &v), Status::kOk);
  EXPECT_EQ(v, 7u);
  ASSERT_EQ(txn->WriteU64(200, 8), Status::kOk);
  ASSERT_EQ(txn->ReadU64(200, &v), Status::kOk);
  EXPECT_EQ(v, 8u) << "transactional read must observe buffered write";
  ASSERT_EQ(txn->Commit(), Status::kOk);
  EXPECT_EQ(bus_.ReadU64(&ctx, 200), 8u);
}

TEST_F(HtmTest, PartialOverlayOfBufferedWrite) {
  ThreadContext ctx(0, 0, 1);
  char base[16] = "AAAAAAAAAAAAAAA";
  bus_.Write(&ctx, 300, base, sizeof(base));
  HtmTxn* txn = engine_.Begin(&ctx);
  ASSERT_EQ(txn->Write(304, "BBBB", 4), Status::kOk);
  char out[16] = {};
  ASSERT_EQ(txn->Read(300, out, 15), Status::kOk);
  EXPECT_EQ(std::string(out, 15), "AAAABBBBAAAAAAA");
  txn->Abort();
  // Aborted: memory unchanged.
  bus_.Read(&ctx, 300, out, 15);
  EXPECT_EQ(std::string(out, 15), "AAAAAAAAAAAAAAA");
}

TEST_F(HtmTest, ExplicitAbortDiscardsWrites) {
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engine_.Begin(&ctx);
  ASSERT_EQ(txn->WriteU64(400, 1), Status::kOk);
  txn->Abort();
  EXPECT_EQ(txn->abort_code(), HtmTxn::AbortCode::kExplicit);
  EXPECT_EQ(bus_.ReadU64(&ctx, 400), 0u);
  EXPECT_EQ(engine_.stats().aborts_explicit.load(), 1u);
  EXPECT_EQ(ctx.current_htm, nullptr);
}

TEST_F(HtmTest, ConflictingNonTxWriteAbortsTxn) {
  ThreadContext ctx0(0, 0, 1);
  ThreadContext ctx1(0, 1, 2);
  HtmTxn* txn = engine_.Begin(&ctx0);
  uint64_t v;
  ASSERT_EQ(txn->ReadU64(500, &v), Status::kOk);
  bus_.WriteU64(&ctx1, 500, 9);  // strong atomicity: dooms the region
  EXPECT_EQ(txn->ReadU64(500, &v), Status::kAborted);
  EXPECT_EQ(txn->abort_code(), HtmTxn::AbortCode::kConflict);
  EXPECT_EQ(engine_.stats().aborts_conflict.load(), 1u);
}

TEST_F(HtmTest, DoomedAtCommitTime) {
  ThreadContext ctx0(0, 0, 1);
  ThreadContext ctx1(0, 1, 2);
  HtmTxn* txn = engine_.Begin(&ctx0);
  uint64_t v;
  ASSERT_EQ(txn->ReadU64(600, &v), Status::kOk);
  ASSERT_EQ(txn->WriteU64(600, v + 1), Status::kOk);
  bus_.WriteU64(&ctx1, 600, 100);
  EXPECT_EQ(txn->Commit(), Status::kAborted);
  EXPECT_EQ(bus_.ReadU64(&ctx0, 600), 100u) << "doomed txn must not clobber";
}

TEST_F(HtmTest, CapacityAbort) {
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engine_.Begin(&ctx);
  Status s = Status::kOk;
  for (uint64_t i = 0; i < 64 && s == Status::kOk; ++i) {  // write cap is 32 lines
    s = txn->WriteU64(i * kCacheLineSize, i);
  }
  EXPECT_EQ(s, Status::kAborted);
  EXPECT_EQ(txn->abort_code(), HtmTxn::AbortCode::kCapacity);
  EXPECT_EQ(engine_.stats().aborts_capacity.load(), 1u);
}

TEST_F(HtmTest, NestedBeginRejected) {
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engine_.Begin(&ctx);
  ASSERT_NE(txn, nullptr);
  EXPECT_EQ(engine_.Begin(&ctx), nullptr);
  txn->Abort();
  EXPECT_NE(engine_.Begin(&ctx), nullptr);
  ctx.current_htm->Abort();
}

TEST_F(HtmTest, OperationsAfterEndReturnAborted) {
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engine_.Begin(&ctx);
  txn->Abort();
  uint64_t v;
  EXPECT_EQ(txn->ReadU64(0, &v), Status::kAborted);
  EXPECT_EQ(txn->WriteU64(0, 1), Status::kAborted);
  EXPECT_EQ(txn->Commit(), Status::kInvalid);
}

TEST_F(HtmTest, TwoTxnsDisjointLinesBothCommit) {
  ThreadContext ctx0(0, 0, 1);
  ThreadContext ctx1(0, 1, 2);
  HtmTxn* a = engine_.Begin(&ctx0);
  HtmTxn* b = engine_.Begin(&ctx1);
  ASSERT_EQ(a->WriteU64(0, 1), Status::kOk);
  ASSERT_EQ(b->WriteU64(kCacheLineSize, 2), Status::kOk);
  EXPECT_EQ(a->Commit(), Status::kOk);
  EXPECT_EQ(b->Commit(), Status::kOk);
  EXPECT_EQ(bus_.ReadU64(&ctx0, 0), 1u);
  EXPECT_EQ(bus_.ReadU64(&ctx0, kCacheLineSize), 2u);
}

TEST_F(HtmTest, WriteWriteConflictAbortsOne) {
  ThreadContext ctx0(0, 0, 1);
  ThreadContext ctx1(0, 1, 2);
  HtmTxn* a = engine_.Begin(&ctx0);
  HtmTxn* b = engine_.Begin(&ctx1);
  ASSERT_EQ(a->WriteU64(700, 1), Status::kOk);
  // b's write to the same line dooms a (requester wins).
  ASSERT_EQ(b->WriteU64(700, 2), Status::kOk);
  EXPECT_EQ(a->Commit(), Status::kAborted);
  EXPECT_EQ(b->Commit(), Status::kOk);
  EXPECT_EQ(bus_.ReadU64(&ctx0, 700), 2u);
}

// The canonical HTM correctness stress: N threads, each performing atomic
// increments of a shared counter inside HTM regions with retry. The final
// count must be exact despite conflicts.
TEST_F(HtmTest, ConcurrentIncrementsAreAtomic) {
  constexpr int kThreads = 4;
  constexpr int kIncr = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      ThreadContext ctx(0, static_cast<uint32_t>(t), t + 1);
      for (int i = 0; i < kIncr; ++i) {
        while (true) {
          HtmTxn* txn = engine_.Begin(&ctx);
          uint64_t v;
          if (txn->ReadU64(800, &v) != Status::kOk) {
            continue;
          }
          if (txn->WriteU64(800, v + 1) != Status::kOk) {
            continue;
          }
          if (txn->Commit() == Status::kOk) {
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ThreadContext ctx(0, 0, 1);
  EXPECT_EQ(bus_.ReadU64(&ctx, 800), static_cast<uint64_t>(kThreads * kIncr));
  EXPECT_GT(engine_.stats().commits.load(), 0u);
}

// Two counters must move together: readers inside HTM must never observe a
// half-applied update (isolation + atomic commit).
TEST_F(HtmTest, InvariantNeverTornAcrossLines) {
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  const uint64_t addr_a = 0;
  const uint64_t addr_b = 64 * 10;  // different line
  std::thread writer([this, &stop, addr_a, addr_b] {
    ThreadContext ctx(0, 0, 1);
    for (int i = 0; i < 3000; ++i) {
      while (true) {
        HtmTxn* txn = engine_.Begin(&ctx);
        uint64_t a, b;
        if (txn->ReadU64(addr_a, &a) != Status::kOk) continue;
        if (txn->ReadU64(addr_b, &b) != Status::kOk) continue;
        if (txn->WriteU64(addr_a, a + 1) != Status::kOk) continue;
        if (txn->WriteU64(addr_b, b + 1) != Status::kOk) continue;
        if (txn->Commit() == Status::kOk) break;
      }
    }
    stop.store(true);
  });
  std::thread reader([this, &stop, &violations, addr_a, addr_b] {
    ThreadContext ctx(0, 1, 2);
    while (!stop.load()) {
      HtmTxn* txn = engine_.Begin(&ctx);
      uint64_t a, b;
      if (txn->ReadU64(addr_a, &a) != Status::kOk) continue;
      if (txn->ReadU64(addr_b, &b) != Status::kOk) continue;
      if (txn->Commit() != Status::kOk) continue;
      if (a != b) {
        violations.fetch_add(1);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  ThreadContext ctx(0, 0, 1);
  EXPECT_EQ(bus_.ReadU64(&ctx, addr_a), 3000u);
  EXPECT_EQ(bus_.ReadU64(&ctx, addr_b), 3000u);
}

// Each slot counts its own regions; stats() sums them. After every region
// has ended, each one is a begin and exactly one commit or abort, and the
// totals cover every slot.
TEST_F(HtmTest, StatsSumEverySlot) {
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      ThreadContext ctx(0, t, t + 1);
      const uint64_t base = (t + 1) * 64 * kCacheLineSize;  // lines no other slot touches
      uint64_t v;
      for (int i = 0; i < kRounds; ++i) {
        HtmTxn* txn = engine_.Begin(&ctx);  // commit
        ASSERT_EQ(txn->WriteU64(base, i), Status::kOk);
        ASSERT_EQ(txn->Commit(), Status::kOk);

        txn = engine_.Begin(&ctx);  // explicit
        txn->Abort();

        txn = engine_.Begin(&ctx);  // conflict: a plain write to a line it read
        ASSERT_EQ(txn->ReadU64(base, &v), Status::kOk);
        bus_.WriteU64(&ctx, base, v);
        EXPECT_EQ(txn->ReadU64(base, &v), Status::kAborted);

        txn = engine_.Begin(&ctx);  // capacity: one line past the 32-line write cap
        Status s = Status::kOk;
        for (uint64_t line = 0; line <= 32 && s == Status::kOk; ++line) {
          s = txn->WriteU64(base + line * kCacheLineSize, line);
        }
        EXPECT_EQ(s, Status::kAborted);

        txn = engine_.Begin(&ctx);  // I/O
        txn->Abort(HtmTxn::AbortCode::kIo);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const HtmEngine::Stats& stats = engine_.stats();
  const uint64_t per_kind = uint64_t{kThreads} * kRounds;
  EXPECT_EQ(stats.begins.load(), 5 * per_kind);
  EXPECT_EQ(stats.begins.load(), stats.commits.load() + stats.TotalAborts());
  EXPECT_EQ(stats.commits.load(), per_kind);
  EXPECT_EQ(stats.aborts_explicit.load(), per_kind);
  EXPECT_EQ(stats.aborts_conflict.load(), per_kind);
  EXPECT_EQ(stats.aborts_capacity.load(), per_kind);
  EXPECT_EQ(stats.aborts_io.load(), per_kind);
}

TEST_F(HtmTest, ChargesVirtualTime) {
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engine_.Begin(&ctx);
  const uint64_t after_begin = ctx.clock.now_ns();
  EXPECT_GE(after_begin, cost_.htm_begin_ns);
  ASSERT_EQ(txn->WriteU64(0, 1), Status::kOk);
  ASSERT_EQ(txn->Commit(), Status::kOk);
  EXPECT_GE(ctx.clock.now_ns(), after_begin + cost_.htm_commit_ns);
}

}  // namespace
}  // namespace drtmr::sim
