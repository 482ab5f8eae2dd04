// Unit tests for the fault-injection plan (sim/fault.h): per-rule semantics
// of delays, drops, partitions, kills, and forced HTM aborts, plus the
// fabric-level behavior of verbs issued against an installed plan.
#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/sim/fabric.h"
#include "src/sim/fault.h"
#include "src/util/cacheline.h"

namespace drtmr::sim {
namespace {

class FaultPlanTest : public ::testing::Test {
 protected:
  FaultPlanTest() {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 3;
    cfg.workers_per_node = 1;
    cfg.memory_bytes = 1 << 20;
    cfg.log_bytes = 1 << 18;
    cluster_ = std::make_unique<cluster::Cluster>(cfg);
    ctx_ = cluster_->node(0)->context(0);
  }

  std::unique_ptr<cluster::Cluster> cluster_;
  ThreadContext* ctx_ = nullptr;
};

TEST_F(FaultPlanTest, EmptyPlanDeliversEverything) {
  FaultPlan plan(1);
  EXPECT_TRUE(plan.empty());
  uint64_t extra = 0, stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(extra, 0u);
  EXPECT_EQ(stall, 0u);
}

TEST_F(FaultPlanTest, CertainDelayAccumulates) {
  FaultPlan plan(1);
  plan.DelayVerbs(0, 1, {0, 0}, /*extra_ns=*/700);
  plan.DelayVerbs(FaultPlan::kAnyNode, FaultPlan::kAnyNode, {0, 0}, /*extra_ns=*/300);
  uint64_t extra = 0, stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(extra, 1000u);  // both matching rules contribute
  extra = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 2, 0, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(extra, 300u);  // only the wildcard rule matches this pair
}

TEST_F(FaultPlanTest, CertainDropLosesTheVerb) {
  FaultPlan plan(1);
  plan.DropVerbs(0, 1, {0, 0}, FaultPlan::kPpmAlways);
  uint64_t extra = 0, stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDrop);
  EXPECT_EQ(plan.OnVerb(ctx_, 1, 0, &extra, &stall), FaultPlan::VerbFate::kDrop);  // symmetric
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 2, &extra, &stall), FaultPlan::VerbFate::kDeliver);
}

TEST_F(FaultPlanTest, TransientPartitionStallsUntilWindowCloses) {
  FaultPlan plan(1);
  plan.Partition(0, 1, {1'000, 5'000});
  uint64_t extra = 0, stall = 0;
  // Before the window: delivered untouched.
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(stall, 0u);
  // Inside the window: delivered after a lossless stall to the window close.
  ctx_->clock.AdvanceTo(2'000);
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(stall, 5'000u);
  // An uninvolved pair is unaffected.
  stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 2, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(stall, 0u);
}

TEST_F(FaultPlanTest, PermanentPartitionIsUnreachable) {
  FaultPlan plan(1);
  plan.Partition(0, 1, {1'000, 0});
  uint64_t extra = 0, stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  ctx_->clock.AdvanceTo(1'500);
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kUnreachable);
}

TEST_F(FaultPlanTest, FreezeIsolatesTheNodeAndReportsFrozenUntil) {
  FaultPlan plan(1);
  plan.Freeze(1, {100, 200});
  EXPECT_EQ(plan.FrozenUntil(1, 150), 200u);
  EXPECT_EQ(plan.FrozenUntil(1, 250), 0u);
  EXPECT_EQ(plan.FrozenUntil(0, 150), 0u);  // other nodes are not frozen
  uint64_t extra = 0, stall = 0;
  ctx_->clock.AdvanceTo(150);
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(stall, 200u);
  stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 2, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  EXPECT_EQ(stall, 0u);
}

TEST_F(FaultPlanTest, KillIsPermanentFromTheInstant) {
  FaultPlan plan(1);
  plan.KillAt(2, 3'000);
  EXPECT_EQ(plan.KillTimeOf(2), 3'000u);
  EXPECT_EQ(plan.KillTimeOf(0), ~0ull);
  uint64_t extra = 0, stall = 0;
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 2, &extra, &stall), FaultPlan::VerbFate::kDeliver);
  ctx_->clock.AdvanceTo(3'000);
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 2, &extra, &stall), FaultPlan::VerbFate::kUnreachable);
  EXPECT_EQ(plan.OnVerb(ctx_, 2, 1, &extra, &stall), FaultPlan::VerbFate::kUnreachable);
  EXPECT_EQ(plan.OnVerb(ctx_, 0, 1, &extra, &stall), FaultPlan::VerbFate::kDeliver);
}

TEST_F(FaultPlanTest, ForcedHtmAbortMatchesSiteAndWindow) {
  FaultPlan plan(1);
  plan.ForceHtmAbort(obs::HtmSite::kCommit, /*abort_code=*/2, FaultPlan::kPpmAlways,
                     {0, 10'000});
  EXPECT_EQ(plan.ForcedHtmAbort(ctx_, obs::HtmSite::kCommit, 5'000), 2u);
  EXPECT_EQ(plan.ForcedHtmAbort(ctx_, obs::HtmSite::kLocalRead, 5'000), 0u);
  EXPECT_EQ(plan.ForcedHtmAbort(ctx_, obs::HtmSite::kCommit, 20'000), 0u);
}

TEST_F(FaultPlanTest, WithoutRuleShrinksAndDescribeNamesRules) {
  FaultPlan plan(7);
  plan.DelayVerbs(0, 1, {0, 0}, 500).KillAt(2, 1'000);
  EXPECT_EQ(plan.num_rules(), 2u);
  const std::string desc = plan.Describe();
  EXPECT_NE(desc.find("delay"), std::string::npos);
  EXPECT_NE(desc.find("kill"), std::string::npos);
  const FaultPlan shrunk = plan.WithoutRule(1);
  EXPECT_EQ(shrunk.num_rules(), 1u);
  EXPECT_EQ(shrunk.KillTimeOf(2), ~0ull);
  EXPECT_EQ(shrunk.seed(), plan.seed());
}

TEST_F(FaultPlanTest, FabricChargesInjectedDelayAndStall) {
  FaultPlan plan(1);
  plan.DelayVerbs(0, 1, {0, 0}, /*extra_ns=*/50'000);
  cluster_->SetFaultPlan(&plan);
  uint64_t word = 0;
  const uint64_t before = ctx_->clock.now_ns();
  // Any remote offset works for a raw read of node 1's memory.
  ASSERT_EQ(cluster_->node(0)->nic()->Read(ctx_, 1, 0, &word, sizeof(word)), Status::kOk);
  EXPECT_GE(ctx_->clock.now_ns() - before, 50'000u);
  cluster_->SetFaultPlan(nullptr);
}

TEST_F(FaultPlanTest, FabricRefusesVerbsToKilledNode) {
  FaultPlan plan(1);
  plan.KillAt(1, 1'000);
  cluster_->SetFaultPlan(&plan);
  ctx_->clock.AdvanceTo(2'000);
  uint64_t word = 0;
  EXPECT_EQ(cluster_->node(0)->nic()->Read(ctx_, 1, 0, &word, sizeof(word)),
            Status::kUnavailable);
  EXPECT_EQ(cluster_->node(0)->nic()->Read(ctx_, 2, 0, &word, sizeof(word)), Status::kOk);
  cluster_->SetFaultPlan(nullptr);
}

TEST_F(FaultPlanTest, PostedBatchPaysInjectedDelayOnce) {
  // Posted verbs overlap their round trips, so a delay on each verb of a
  // batch delays the batch's completion once, not once per verb.
  FaultPlan plan(1);
  plan.DelayVerbs(0, 1, {0, 0}, /*extra_ns=*/10'000);
  cluster_->SetFaultPlan(&plan);
  RdmaNic* nic = cluster_->node(0)->nic();
  auto batch_ns = [&](uint32_t dst, uint64_t at_ns) {
    ctx_->clock.AdvanceTo(at_ns);
    uint64_t completion = 0;
    uint64_t word = 0;
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(nic->Read(ctx_, dst, 64 * i, &word, sizeof(word), &completion), Status::kOk);
    }
    return completion - at_ns;
  };
  const uint64_t delayed = batch_ns(1, 1'000'000);
  const uint64_t clean = batch_ns(2, 2'000'000);  // no rule covers node 2
  EXPECT_EQ(delayed, clean + 10'000);
  cluster_->SetFaultPlan(nullptr);
}

TEST_F(FaultPlanTest, ChainPaysInjectedDelayAtAnyClock) {
  // A delay rule delays a chain's completion relative to when it is rung,
  // whatever the clock reads: the delay is a duration, not a floor.
  FaultPlan plan(1);
  plan.DelayVerbs(0, 1, {0, 0}, /*extra_ns=*/10'000);
  cluster_->SetFaultPlan(&plan);
  RdmaNic* nic = cluster_->node(0)->nic();
  auto chain_ns = [&](uint32_t dst, uint64_t at_ns) {
    const uint64_t off = cluster_->node(dst)->allocator()->Alloc(2 * kCacheLineSize);
    ctx_->clock.AdvanceTo(at_ns);
    RdmaNic::VerbChain chain;
    const uint64_t v = 7;
    EXPECT_EQ(nic->ChainAppend(ctx_, &chain, dst, off, &v, sizeof(v)), Status::kOk);
    EXPECT_EQ(nic->ChainAppend(ctx_, &chain, dst, off + kCacheLineSize, &v, sizeof(v)),
              Status::kOk);
    uint64_t completion = 0;
    nic->ChainRing(ctx_, &chain, &completion);
    return completion - at_ns;
  };
  const uint64_t delayed = chain_ns(1, 1'000'000);
  const uint64_t clean = chain_ns(2, 2'000'000);
  EXPECT_EQ(delayed, clean + 10'000);
  cluster_->SetFaultPlan(nullptr);
}

}  // namespace
}  // namespace drtmr::sim
