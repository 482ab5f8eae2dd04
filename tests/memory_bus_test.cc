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
  RedoLog redo;
  const uint64_t val = 77;
  redo.Append(640, &val, sizeof(val));
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
  const std::vector<std::byte> x11(8, std::byte{0x11});
  const std::vector<std::byte> x22(64, std::byte{0x22});
  const std::vector<std::byte> x33(8, std::byte{0x33});
  RedoLog redo;
  redo.Append(a, x11.data(), x11.size());
  redo.Append(b, x22.data(), x22.size());
  redo.Append(a + 16, x33.data(), x33.size());
  for (const RedoLog::Entry& e : redo.entries()) {
    ASSERT_TRUE(bus_.TxRegisterWrite(&t0, txn, e.offset, e.len));
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
  for (const RedoLog::Entry& e : redo.entries()) {
    std::vector<std::byte> got(e.len);
    bus_.Read(&t0, e.offset, got.data(), got.size());
    EXPECT_EQ(got, std::vector<std::byte>(redo.data(e), redo.data(e) + e.len))
        << "offset " << e.offset;
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
  RedoLog redo;
  const std::vector<std::byte> x42(8, std::byte{0x42});
  redo.Append(704, x42.data(), x42.size());
  EXPECT_FALSE(bus_.TxCommitApply(&t0, txn, redo));
  EXPECT_EQ(bus_.ReadU64(&t0, 704), 999u);  // speculative write discarded
  txn->state.store(HtmDesc::kFree);
  txn->writes.Clear();
}

// --- Conflict directory (per-stripe holder masks) ---

// A region end leaves its slot's bit on every stripe it touched. The slot's
// next region, holding another line of the same stripe, must not be doomed
// through that stale bit by an access to a line only the old region held,
// and must still be doomed by an access to a line it holds itself.
TEST_F(MemoryBusTest, StaleHolderBitNeverDooms) {
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  HtmDesc* txn = bus_.desc(0);
  constexpr uint64_t kLine = 20;
  const uint64_t old_line = kLine * kCacheLineSize;
  const uint64_t new_line = (kLine + 1024) * kCacheLineSize;  // the same stripe
  uint64_t v;
  txn->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRead(&t0, txn, old_line, &v, sizeof(v)));
  txn->state.store(HtmDesc::kFree);  // region end, as HtmTxn::End does it
  txn->reads.Clear();

  txn->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRead(&t0, txn, new_line, &v, sizeof(v)));
  bus_.WriteU64(&t1, old_line, 1);
  EXPECT_EQ(txn->state.load(), HtmDesc::kActive) << "doomed over the ended region's line";
  bus_.WriteU64(&t1, new_line, 1);
  EXPECT_EQ(txn->state.load(), HtmDesc::kDoomed);
  EXPECT_EQ(txn->doom_code.load(), HtmDesc::kConflict);
  txn->state.store(HtmDesc::kFree);
  txn->reads.Clear();
}

// An access that finds a stale bit clears it. The slot's next region sets it
// again when it adds a line of that stripe, so the clear hides no holder.
TEST_F(MemoryBusTest, ClearedHolderBitIsSetAgain) {
  ThreadContext t0 = MakeCtx(0);
  ThreadContext t1 = MakeCtx(1);
  HtmDesc* writer = bus_.desc(3);
  constexpr uint64_t kLine = 40;
  const uint64_t old_line = kLine * kCacheLineSize;
  const uint64_t new_line = (kLine + 2048) * kCacheLineSize;  // the same stripe
  writer->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRegisterWrite(&t0, writer, old_line, 8));
  writer->state.store(HtmDesc::kFree);
  writer->writes.Clear();
  bus_.ReadU64(&t1, old_line);  // finds slot 3 free: clears its bit

  writer->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus_.TxRegisterWrite(&t0, writer, new_line, 8));
  bus_.ReadU64(&t1, new_line);  // a plain read of a speculative write
  EXPECT_EQ(writer->state.load(), HtmDesc::kDoomed);
  writer->state.store(HtmDesc::kFree);
  writer->writes.Clear();
}

// The holder mask has one bit per slot; the last of 64 slots is reached by a
// plain write and by a CAS, the bus operation an RDMA CAS verb lands as.
TEST(MemoryBusDirectory, LastOfSixtyFourSlotsIsDoomed) {
  CostModel cost;
  MemoryBus bus(1 << 16, &cost, MemoryBus::kMaxSlots, 64, 16);
  ThreadContext t63(0, 63, 64);
  ThreadContext t0(0, 0, 1);
  HtmDesc* txn = bus.desc(63);
  ASSERT_EQ(txn->slot, 63u);
  uint64_t v;

  txn->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus.TxRead(&t63, txn, 256, &v, sizeof(v)));
  bus.WriteU64(&t0, 256, 1);
  EXPECT_EQ(txn->state.load(), HtmDesc::kDoomed) << "plain write";
  txn->state.store(HtmDesc::kFree);
  txn->reads.Clear();

  txn->state.store(HtmDesc::kActive);
  ASSERT_TRUE(bus.TxRead(&t63, txn, 512, &v, sizeof(v)));
  uint64_t observed = 0;
  ASSERT_TRUE(bus.CasU64(&t0, 512, 0, 7, &observed));
  EXPECT_EQ(txn->state.load(), HtmDesc::kDoomed) << "CAS";
  EXPECT_EQ(txn->doom_code.load(), HtmDesc::kConflict);
  txn->state.store(HtmDesc::kFree);
  txn->reads.Clear();
}

TEST(MemoryBusDirectory, MoreSlotsThanMaskBitsDies) {
  CostModel cost;
  EXPECT_DEATH(MemoryBus(4096, &cost, MemoryBus::kMaxSlots + 1, 64, 16), "HTM slots");
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

// Eight slots run regions that read two counters while a plain writer bumps
// them in order (first, then second), so the pair in memory is always equal
// or first-ahead-by-one. A region that commits must have seen one such pair:
// the writer's bump of a line already read dooms the region. Run once with
// the counters on one stripe (lines L and L + 1024) and once on two.
TEST(MemoryBusStress, RegionsNeverCommitATornPair) {
  constexpr uint32_t kSlots = 8;
  constexpr int kRegions = 3000;
  for (const uint64_t second_line : {uint64_t{1024 + 5}, uint64_t{6}}) {
    CostModel cost;
    MemoryBus bus(1 << 20, &cost, kSlots, 64, 16);
    const uint64_t first = 5 * kCacheLineSize;
    const uint64_t second = second_line * kCacheLineSize;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> committed{0};
    std::atomic<uint64_t> torn{0};
    std::thread writer([&] {
      for (uint64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
        bus.WriteU64(nullptr, first, k);
        bus.WriteU64(nullptr, second, k);
      }
    });
    std::vector<std::thread> readers;
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      readers.emplace_back([&, slot] {
        ThreadContext ctx(0, slot, slot + 1);
        HtmDesc* d = bus.desc(slot);
        const RedoLog no_writes;
        for (int i = 0; i < kRegions; ++i) {
          uint64_t a = 0;
          uint64_t b = 0;
          d->state.store(HtmDesc::kActive, std::memory_order_release);
          const bool ok = bus.TxRead(&ctx, d, first, &a, sizeof(a)) &&
                          bus.TxRead(&ctx, d, second, &b, sizeof(b)) &&
                          bus.TxCommitApply(&ctx, d, no_writes);
          if (ok) {
            committed.fetch_add(1, std::memory_order_relaxed);
            if (a != b && a != b + 1) {
              torn.fetch_add(1, std::memory_order_relaxed);
            }
          }
          d->state.store(HtmDesc::kFree, std::memory_order_release);
          d->reads.Clear();
        }
      });
    }
    for (auto& th : readers) {
      th.join();
    }
    stop.store(true);
    writer.join();
    EXPECT_EQ(torn.load(), 0u) << "second line " << second_line;
    EXPECT_GT(committed.load(), 0u) << "second line " << second_line;
  }
}

}  // namespace
}  // namespace drtmr::sim
