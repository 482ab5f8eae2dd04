#include "src/sim/memory_bus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "src/sim/cost_model.h"

namespace drtmr::sim {
namespace {

class MemoryBusTest : public ::testing::Test {
 protected:
  MemoryBusTest() : bus_(1 << 20, &cost_, /*slots=*/8, /*read_cap=*/64, /*write_cap=*/16) {}

  ThreadContext MakeCtx(uint32_t worker) { return ThreadContext(0, worker, worker + 1); }

  CostModel cost_;
  MemoryBus bus_;
};

TEST_F(MemoryBusTest, ReadWriteRoundTrip) {
  ThreadContext ctx = MakeCtx(0);
  const char msg[] = "hello, coherent world";
  bus_.Write(&ctx, 1000, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  bus_.Read(&ctx, 1000, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST_F(MemoryBusTest, U64Helpers) {
  ThreadContext ctx = MakeCtx(0);
  bus_.WriteU64(&ctx, 64, 0xdeadbeefcafef00dull);
  EXPECT_EQ(bus_.ReadU64(&ctx, 64), 0xdeadbeefcafef00dull);
}

TEST_F(MemoryBusTest, CasSuccessAndFailure) {
  ThreadContext ctx = MakeCtx(0);
  bus_.WriteU64(&ctx, 128, 5);
  uint64_t observed = 0;
  EXPECT_TRUE(bus_.CasU64(&ctx, 128, 5, 9, &observed));
  EXPECT_EQ(observed, 5u);
  EXPECT_FALSE(bus_.CasU64(&ctx, 128, 5, 11, &observed));
  EXPECT_EQ(observed, 9u);
  EXPECT_EQ(bus_.ReadU64(&ctx, 128), 9u);
}

TEST_F(MemoryBusTest, FetchAddReturnsOld) {
  ThreadContext ctx = MakeCtx(0);
  bus_.WriteU64(&ctx, 192, 100);
  EXPECT_EQ(bus_.FetchAddU64(&ctx, 192, 7), 100u);
  EXPECT_EQ(bus_.ReadU64(&ctx, 192), 107u);
}

TEST_F(MemoryBusTest, AccessChargesVirtualTime) {
  ThreadContext ctx = MakeCtx(0);
  const uint64_t before = ctx.clock.now_ns();
  uint64_t v;
  bus_.Read(&ctx, 0, &v, sizeof(v));
  EXPECT_GT(ctx.clock.now_ns(), before);
  // A 3-line read charges three line accesses.
  ThreadContext ctx2 = MakeCtx(1);
  std::byte buf[192];
  bus_.Read(&ctx2, 0, buf, sizeof(buf));
  EXPECT_EQ(ctx2.clock.now_ns(), 3 * cost_.line_access_ns);
}

TEST_F(MemoryBusTest, CostScaleAppliesMultiplier) {
  bus_.set_cost_scale_pct(200);
  ThreadContext ctx = MakeCtx(0);
  std::byte buf[64];
  bus_.Read(&ctx, 0, buf, sizeof(buf));
  EXPECT_EQ(ctx.clock.now_ns(), 2 * cost_.line_access_ns);
  bus_.set_cost_scale_pct(100);
}

// --- Strong-atomicity conflict semantics ---

TEST_F(MemoryBusTest, NonTxWriteDoomsReader) {
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  HtmDesc* reader = bus_.desc(0);
  reader->state.store(HtmDesc::kActive);
  uint64_t v;
  ASSERT_TRUE(bus_.TxRead(&t0, reader, 256, &v, sizeof(v)));
  EXPECT_EQ(reader->state.load(), HtmDesc::kActive);

  bus_.WriteU64(&t1, 256, 1);  // conflicting non-transactional write
  EXPECT_EQ(reader->state.load(), HtmDesc::kDoomed);
  EXPECT_EQ(reader->doom_code.load(), HtmDesc::kConflict);
  reader->state.store(HtmDesc::kFree);
  reader->reads.Clear();
}

TEST_F(MemoryBusTest, NonTxReadDoomsWriterButNotReader) {
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  ThreadContext t2 = MakeCtx(2);
  HtmDesc* writer = bus_.desc(0);
  HtmDesc* reader = bus_.desc(1);
  writer->state.store(HtmDesc::kActive);
  reader->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRegisterWrite(&t0, writer, 320, 8));
  uint64_t v;
  ASSERT_TRUE(bus_.TxRead(&t1, reader, 384, &v, sizeof(v)));

  bus_.ReadU64(&t2, 320);  // reads the writer's speculative line
  bus_.ReadU64(&t2, 384);  // reads the reader's line — no write conflict
  EXPECT_EQ(writer->state.load(), HtmDesc::kDoomed);
  EXPECT_EQ(reader->state.load(), HtmDesc::kActive);
  writer->state.store(HtmDesc::kFree);
  reader->state.store(HtmDesc::kFree);
  writer->writes.Clear();
  reader->reads.Clear();
}

TEST_F(MemoryBusTest, FalseSharingWithinLineConflicts) {
  // Two disjoint byte ranges in the same cache line still conflict — HTM
  // tracks whole lines, which is why records are line-aligned (§4.2).
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  HtmDesc* reader = bus_.desc(0);
  reader->state.store(HtmDesc::kActive);
  uint64_t v;
  ASSERT_TRUE(bus_.TxRead(&t0, reader, 512, &v, sizeof(v)));
  bus_.WriteU64(&t1, 512 + 48, 1);  // same line, different bytes
  EXPECT_EQ(reader->state.load(), HtmDesc::kDoomed);
  reader->state.store(HtmDesc::kFree);
  reader->reads.Clear();
}

TEST_F(MemoryBusTest, TxReadDoomsSpeculativeWriter) {
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  HtmDesc* writer = bus_.desc(0);
  HtmDesc* reader = bus_.desc(1);
  writer->state.store(HtmDesc::kActive);
  reader->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRegisterWrite(&t0, writer, 576, 8));
  uint64_t v;
  ASSERT_TRUE(bus_.TxRead(&t1, reader, 576, &v, sizeof(v)));
  EXPECT_EQ(writer->state.load(), HtmDesc::kDoomed);
  EXPECT_EQ(reader->state.load(), HtmDesc::kActive);
  writer->state.store(HtmDesc::kFree);
  reader->state.store(HtmDesc::kFree);
  writer->writes.Clear();
  reader->reads.Clear();
}

TEST_F(MemoryBusTest, CapacityAbortOnReadSetOverflow) {
  ThreadContext t0 = MakeCtx(0);
  HtmDesc* txn = bus_.desc(0);
  txn->state.store(HtmDesc::kActive);
  uint64_t v;
  bool ok = true;
  for (uint64_t i = 0; i < 128 && ok; ++i) {  // read cap is 64 lines
    ok = bus_.TxRead(&t0, txn, i * 64, &v, sizeof(v));
  }
  EXPECT_FALSE(ok);
  EXPECT_EQ(txn->doom_code.load(), HtmDesc::kCapacity);
  txn->state.store(HtmDesc::kFree);
  txn->reads.Clear();
}

TEST_F(MemoryBusTest, CommitAppliesRedoAtomically) {
  ThreadContext t0 = MakeCtx(0);
  HtmDesc* txn = bus_.desc(0);
  txn->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRegisterWrite(&t0, txn, 640, 8));
  std::vector<RedoEntry> redo;
  uint64_t val = 77;
  RedoEntry e;
  e.offset = 640;
  e.data.resize(8);
  std::memcpy(e.data.data(), &val, 8);
  redo.push_back(std::move(e));
  EXPECT_TRUE(bus_.TxCommitApply(&t0, txn, redo));
  EXPECT_EQ(bus_.ReadU64(&t0, 640), 77u);
  EXPECT_EQ(txn->state.load(), HtmDesc::kFree);
  txn->writes.Clear();
}

// Line L, line L + 1024 (the same stripe lock) and line L again, written by
// one region: the commit must take each stripe lock once, or it spins on its
// own lock forever (the watchdog turns that hang into a failure).
TEST_F(MemoryBusTest, CommitLocksSharedStripeOnce) {
  ThreadContext t0 = MakeCtx(0);
  HtmDesc* txn = bus_.desc(0);
  txn->state.store(HtmDesc::kActive);
  constexpr uint64_t kLine = 12;
  const uint64_t a = kLine * kCacheLineSize;
  const uint64_t b = (kLine + 1024) * kCacheLineSize + 32;  // spans two lines
  std::vector<RedoEntry> redo;
  redo.push_back({a, std::vector<std::byte>(8, std::byte{0x11})});
  redo.push_back({b, std::vector<std::byte>(64, std::byte{0x22})});
  redo.push_back({a + 16, std::vector<std::byte>(8, std::byte{0x33})});
  for (const RedoEntry& e : redo) {
    ASSERT_TRUE(bus_.TxRegisterWrite(&t0, txn, e.offset, e.data.size()));
  }
  std::promise<void> done;
  std::thread watchdog([finished = done.get_future()] {
    if (finished.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      std::fprintf(stderr, "TxCommitApply hung: a stripe lock taken twice\n");
      std::abort();
    }
  });
  const uint64_t before = t0.clock.now_ns();
  const bool committed = bus_.TxCommitApply(&t0, txn, redo);
  done.set_value();
  watchdog.join();
  EXPECT_TRUE(committed);
  EXPECT_EQ(t0.clock.now_ns() - before, 4 * cost_.line_access_ns);  // 1 + 2 + 1 lines
  EXPECT_EQ(txn->state.load(), HtmDesc::kFree);
  for (const RedoEntry& e : redo) {
    std::vector<std::byte> got(e.data.size());
    bus_.Read(&t0, e.offset, got.data(), got.size());
    EXPECT_EQ(got, e.data) << "offset " << e.offset;
  }
  // Every stripe was released: plain accesses to both lines still proceed.
  bus_.WriteU64(&t0, a + 8, 5);
  bus_.WriteU64(&t0, (kLine + 1024) * kCacheLineSize, 6);
  EXPECT_EQ(bus_.ReadU64(&t0, a + 8), 5u);
  txn->writes.Clear();
}

TEST_F(MemoryBusTest, CommitFailsIfDoomed) {
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  HtmDesc* txn = bus_.desc(0);
  txn->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRegisterWrite(&t0, txn, 704, 8));
  bus_.WriteU64(&t1, 704, 999);  // dooms the writer
  std::vector<RedoEntry> redo;
  RedoEntry e;
  e.offset = 704;
  e.data.resize(8, std::byte{0x42});
  redo.push_back(std::move(e));
  EXPECT_FALSE(bus_.TxCommitApply(&t0, txn, redo));
  EXPECT_EQ(bus_.ReadU64(&t0, 704), 999u);  // speculative write discarded
  txn->state.store(HtmDesc::kFree);
  txn->writes.Clear();
}

TEST(LineSet, AddContainsClear) {
  LineSet s(8);
  EXPECT_FALSE(s.Contains(5));
  EXPECT_TRUE(s.Add(5));
  EXPECT_TRUE(s.Add(5));  // duplicate is a no-op
  EXPECT_TRUE(s.Contains(5));
  EXPECT_EQ(s.size(), 1u);
  for (uint64_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(s.Add(100 + i));
  }
  EXPECT_FALSE(s.Add(999)) << "set should be full";
  s.Clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.Contains(5));
  EXPECT_TRUE(s.Add(999));
}

TEST(MemoryBusStress, ConcurrentCasCountsExactly) {
  CostModel cost;
  MemoryBus bus(4096, &cost, 4, 64, 16);
  constexpr int kThreads = 4;
  constexpr int kIncr = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, t] {
      ThreadContext ctx(0, static_cast<uint32_t>(t), t + 1);
      for (int i = 0; i < kIncr; ++i) {
        while (true) {
          const uint64_t cur = bus.ReadU64(&ctx, 0);
          uint64_t obs;
          if (bus.CasU64(&ctx, 0, cur, cur + 1, &obs)) {
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
  EXPECT_EQ(bus.ReadU64(&ctx, 0), static_cast<uint64_t>(kThreads * kIncr));
}

// A multi-line write lands its first line last. A record's line 0 holds the
// seq word that a fused-lock write-back (§4.4) overwrites to unlock it, so
// landing line 0 first would let another committer in before the rest of the
// image. A reader going line 0 then line 1 must never see line 0 ahead.
TEST(MemoryBusStress, MultiLineWriteLandsFirstLineLast) {
  CostModel cost;
  MemoryBus bus(4096, &cost, 2, 64, 16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t image[2 * kCacheLineSize / sizeof(uint64_t)] = {};
    for (uint64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
      image[0] = k;                                  // line 0
      image[kCacheLineSize / sizeof(uint64_t)] = k;  // line 1
      bus.Write(nullptr, kCacheLineSize, image, sizeof(image));
    }
  });
  uint64_t ahead = 0;
  for (int i = 0; i < 500000; ++i) {
    const uint64_t line0 = bus.ReadU64(nullptr, kCacheLineSize);
    const uint64_t line1 = bus.ReadU64(nullptr, 2 * kCacheLineSize);
    if (line0 > line1) {
      ++ahead;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(ahead, 0u) << "line 0 of a write was seen before its line 1";
}

}  // namespace
}  // namespace drtmr::sim
