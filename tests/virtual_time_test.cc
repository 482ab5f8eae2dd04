// Tests of the virtual-time machinery added for benchmarking: interval-booked
// SimResource (backfill, saturation), TimeGate skew bounding, and posted
// (pipelined) RDMA verbs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/fabric.h"
#include "src/sim/htm.h"
#include "src/sim/memory_bus.h"
#include "src/util/sim_clock.h"
#include "src/util/time_gate.h"

namespace drtmr {
namespace {

TEST(SimResourceBackfill, SlowCallerIsNotPushedToFastCallerTime) {
  SimResource r;
  // A fast-clocked caller books far in the future...
  EXPECT_EQ(r.Reserve(1000000, 100), 1000000u);
  // ...a slow-clocked caller must be backfilled into the idle past, not
  // queued behind the future booking.
  EXPECT_EQ(r.Reserve(500, 100), 500u);
  // And a caller that conflicts with an existing interval packs around it.
  EXPECT_EQ(r.Reserve(550, 100), 600u);
}

TEST(SimResourceBackfill, SaturationStillQueues) {
  SimResource r;
  // Offered load at one point in time packs densely: starts never overlap.
  uint64_t last_start = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t s = r.Reserve(0, 50);
    if (i > 0) {
      EXPECT_GE(s, last_start + 50);
    }
    last_start = s;
  }
  EXPECT_EQ(last_start, 99u * 50);
}

TEST(SimResourceBackfill, GapFitting) {
  SimResource r;
  EXPECT_EQ(r.Reserve(0, 100), 0u);     // [0,100)
  EXPECT_EQ(r.Reserve(300, 100), 300u); // [300,400)
  EXPECT_EQ(r.Reserve(0, 100), 100u);   // fits the gap [100,200)
  EXPECT_EQ(r.Reserve(0, 150), 400u);   // gap [200,300) too small -> after 400
}

TEST(SimResourceBackfill, ResetClears) {
  SimResource r;
  r.Reserve(0, 1000);
  r.Reset();
  EXPECT_EQ(r.Reserve(0, 10), 0u);
  EXPECT_EQ(r.free_at_ns(), 10u);
}

TEST(TimeGateTest, BoundsClockSkew) {
  TimeGate gate(/*window_ns=*/1000);
  SimClock fast, slow;
  const uint32_t fast_id = gate.AddClock(&fast);
  const uint32_t slow_id = gate.AddClock(&slow);
  (void)fast_id;

  fast.Advance(5000);
  std::atomic<bool> passed{false};
  std::thread t([&] {
    gate.Sync(&fast);  // must block: fast is 5000 ahead of slow (window 1000)
    passed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  slow.Advance(4500);  // now skew is 500 <= window
  t.join();
  EXPECT_TRUE(passed.load());
  gate.Done(slow_id);
  // With the slow clock retired, the fast one is unconstrained.
  fast.Advance(1000000);
  gate.Sync(&fast);
  SUCCEED();
}

TEST(TimeGateTest, SoleClockNeverBlocks) {
  TimeGate gate(10);
  SimClock c;
  gate.AddClock(&c);
  c.Advance(1 << 30);
  gate.Sync(&c);
  SUCCEED();
}

class PostedVerbTest : public ::testing::Test {
 protected:
  PostedVerbTest() : fabric_(&cost_) {
    for (int i = 0; i < 2; ++i) {
      buses_.push_back(std::make_unique<sim::MemoryBus>(1 << 20, &cost_, 4, 64, 32));
      fabric_.AddNode(buses_.back().get());
    }
  }
  sim::CostModel cost_;
  sim::Fabric fabric_;
  std::vector<std::unique_ptr<sim::MemoryBus>> buses_;
};

TEST_F(PostedVerbTest, BatchedWritesOverlapLatency) {
  // N posted writes + one fence must cost far less than N synchronous writes.
  sim::ThreadContext posted_ctx(0, 0, 1);
  uint64_t completion = 0;
  uint64_t v = 7;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(fabric_.nic(0)->Write(&posted_ctx, 1, 64 * i, &v, sizeof(v), &completion),
              Status::kOk);
  }
  fabric_.nic(0)->Fence(&posted_ctx, completion, cost_.rdma_write_ns);

  sim::ThreadContext sync_ctx(0, 1, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(fabric_.nic(0)->Write(&sync_ctx, 1, 4096 + 64 * i, &v, sizeof(v)), Status::kOk);
  }
  EXPECT_LT(posted_ctx.clock.now_ns(), sync_ctx.clock.now_ns() / 3)
      << "posted batch should overlap round-trip latencies";
  // Data still landed.
  EXPECT_EQ(buses_[1]->ReadU64(nullptr, 0), 7u);
  EXPECT_EQ(buses_[1]->ReadU64(nullptr, 64 * 9), 7u);
}

TEST_F(PostedVerbTest, FenceCoversSlowestCompletion) {
  sim::ThreadContext ctx(0, 0, 1);
  uint64_t completion = 0;
  std::vector<std::byte> big(32 * 1024);
  ASSERT_EQ(fabric_.nic(0)->Write(&ctx, 1, 0, big.data(), big.size(), &completion),
            Status::kOk);
  EXPECT_GT(completion, cost_.TransferNs(big.size()) / 2);
  const uint64_t before = ctx.clock.now_ns();
  EXPECT_LT(before, completion) << "posting must not wait for the transfer";
  fabric_.nic(0)->Fence(&ctx, completion, cost_.rdma_write_ns);
  EXPECT_GE(ctx.clock.now_ns(), completion + cost_.rdma_write_ns);
}

TEST_F(PostedVerbTest, PostedCasPerformsSwap) {
  sim::ThreadContext ctx(0, 0, 1);
  buses_[1]->WriteU64(nullptr, 128, 5);
  uint64_t completion = 0;
  uint64_t obs = 0;
  EXPECT_EQ(fabric_.nic(0)->CompareSwap(&ctx, 1, 128, 5, 9, &obs, &completion),
            Status::kOk);
  EXPECT_EQ(obs, 5u);
  EXPECT_EQ(buses_[1]->ReadU64(nullptr, 128), 9u);
  EXPECT_EQ(fabric_.nic(0)->CompareSwap(&ctx, 1, 128, 5, 11, &obs, &completion),
            Status::kConflict);
}

TEST_F(PostedVerbTest, PostedVerbInsideHtmStillAborts) {
  sim::HtmEngine engine(buses_[0].get(), &cost_);
  sim::ThreadContext ctx(0, 0, 1);
  sim::HtmTxn* txn = engine.Begin(&ctx);
  uint64_t v;
  ASSERT_EQ(txn->ReadU64(0, &v), Status::kOk);
  uint64_t completion = 0;
  EXPECT_EQ(fabric_.nic(0)->Write(&ctx, 1, 0, &v, sizeof(v), &completion),
            Status::kAborted);
  EXPECT_EQ(ctx.current_htm, nullptr);
}

}  // namespace
}  // namespace drtmr
