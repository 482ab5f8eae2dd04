// Tests of the virtual-time machinery added for benchmarking: interval-booked
// SimResource (backfill, saturation), TimeGate skew bounding, and posted
// (pipelined) RDMA verbs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/fabric.h"
#include "src/sim/htm.h"
#include "src/sim/memory_bus.h"
#include "src/sim/thread_context.h"
#include "src/sim/time_gate.h"
#include "src/util/sim_clock.h"

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

// Yields until `step` reaches `v`: the tests below sequence their actors
// through one counter the main thread raises.
void AwaitStep(const std::atomic<int>& step, int v) {
  while (step.load() < v) {
    std::this_thread::yield();
  }
}

// Yields until `flag` is set, for at most 10 s of real time.
bool Eventually(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return flag.load();
}

TEST(TimeGateTest, BoundsClockSkew) {
  sim::TimeGate gate(/*window_ns=*/1000);
  sim::ThreadContext fast(0, 0, 1), slow(0, 1, 2);
  std::atomic<int> step{0};
  std::atomic<bool> passed{false};
  sim::TimeGate::Actor slow_actor = gate.Spawn(&slow, [&] {
    AwaitStep(step, 1);
    slow.Charge(4500);  // now skew is 500 <= window
    AwaitStep(step, 2);
  });
  sim::TimeGate::Actor fast_actor = gate.Spawn(&fast, [&] {
    fast.Charge(5000);
    sim::TimeGate::Sync(&fast.clock);  // must block: 5000 ahead of slow (window 1000)
    passed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  step.store(1);
  EXPECT_TRUE(Eventually(passed));
  step.store(2);
}

TEST(TimeGateTest, SoleClockNeverBlocks) {
  sim::TimeGate gate(10);
  sim::ThreadContext c(0, 0, 1);
  std::atomic<bool> passed{false};
  gate.Spawn(&c, [&] {
    c.Charge(1 << 30);
    sim::TimeGate::Sync(&c.clock);
    passed.store(true);
  });  // the discarded handle joins here
  EXPECT_TRUE(passed.load());
}

TEST(TimeGateTest, BlockedActorIsReleasedWhenTheLaggardReturns) {
  sim::TimeGate gate(/*window_ns=*/1000);
  sim::ThreadContext fast(0, 0, 1), slow(0, 1, 2);
  std::atomic<int> step{0};
  std::atomic<bool> passed{false};
  sim::TimeGate::Actor slow_actor = gate.Spawn(&slow, [&] { AwaitStep(step, 1); });
  sim::TimeGate::Actor fast_actor = gate.Spawn(&fast, [&] {
    fast.Charge(1'000'000);
    sim::TimeGate::Sync(&fast.clock);
    passed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  step.store(1);  // the laggard returns without advancing; its clock retires
  EXPECT_TRUE(Eventually(passed));
}

TEST(TimeGateTest, ActorSpawnedIntoARunningGateIsWaitedOn) {
  sim::TimeGate gate(/*window_ns=*/1000);
  sim::ThreadContext early(0, 0, 1), late(0, 1, 2);
  std::atomic<int> step{0};
  std::atomic<bool> passed{false};
  sim::TimeGate::Actor early_actor = gate.Spawn(&early, [&] {
    early.Charge(50'000);
    sim::TimeGate::Sync(&early.clock);  // alone in the gate: passes
    step.store(1);
    AwaitStep(step, 2);
    sim::TimeGate::Sync(&early.clock);  // `late` sits at 0 now
    passed.store(true);
  });
  AwaitStep(step, 1);
  sim::TimeGate::Actor late_actor = gate.Spawn(&late, [&] {
    AwaitStep(step, 3);
    late.Charge(49'500);  // catches up to within the window
    AwaitStep(step, 4);
  });
  step.store(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  step.store(3);
  EXPECT_TRUE(Eventually(passed));
  step.store(4);
}

TEST(TimeGateTest, SyncOffAnActorThreadReturnsAtOnce) {
  sim::TimeGate gate(/*window_ns=*/10);
  sim::ThreadContext lagging(0, 0, 1);
  std::atomic<int> step{0};
  sim::TimeGate::Actor actor = gate.Spawn(&lagging, [&] { AwaitStep(step, 1); });
  SimClock mine;
  mine.Advance(1 << 30);
  sim::TimeGate::Sync(&mine);  // this thread has no gate: never blocks
  step.store(1);
  SUCCEED();
}

TEST(TimeGateTest, OverflowingMaxActorsDies) {
  EXPECT_DEATH(
      {
        sim::TimeGate gate(/*window_ns=*/10);
        sim::ThreadContext ctx(0, 0, 1);
        // Each discarded handle joins at once, so one thread lives at a time;
        // retired entries still count.
        for (uint32_t i = 0; i <= sim::TimeGate::kMaxActors; ++i) {
          gate.Spawn(&ctx, [] {});
        }
      },
      "actors in one TimeGate");
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
