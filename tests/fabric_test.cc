#include "src/sim/fabric.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/htm.h"
#include "src/sim/memory_bus.h"
#include "src/util/cacheline.h"

namespace drtmr::sim {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(&cost_) {
    for (int i = 0; i < 3; ++i) {
      buses_.push_back(std::make_unique<MemoryBus>(1 << 20, &cost_, 8, 128, 32));
      engines_.push_back(std::make_unique<HtmEngine>(buses_.back().get(), &cost_));
      fabric_.AddNode(buses_.back().get());
    }
  }

  CostModel cost_;
  Fabric fabric_;
  std::vector<std::unique_ptr<MemoryBus>> buses_;
  std::vector<std::unique_ptr<HtmEngine>> engines_;
};

TEST_F(FabricTest, RemoteReadSeesRemoteMemory) {
  ThreadContext ctx(0, 0, 1);
  ThreadContext remote_ctx(1, 0, 2);
  buses_[1]->WriteU64(&remote_ctx, 512, 0xabcd);
  uint64_t v = 0;
  ASSERT_EQ(fabric_.nic(0)->Read(&ctx, 1, 512, &v, sizeof(v)), Status::kOk);
  EXPECT_EQ(v, 0xabcdu);
}

TEST_F(FabricTest, RemoteWriteLandsInRemoteMemory) {
  ThreadContext ctx(0, 0, 1);
  const char msg[] = "over the wire";
  ASSERT_EQ(fabric_.nic(0)->Write(&ctx, 2, 1024, msg, sizeof(msg)), Status::kOk);
  char out[sizeof(msg)] = {};
  buses_[2]->Read(nullptr, 1024, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST_F(FabricTest, RemoteCas) {
  ThreadContext ctx(0, 0, 1);
  buses_[1]->WriteU64(nullptr, 64, 10);
  uint64_t obs = 0;
  EXPECT_EQ(fabric_.nic(0)->CompareSwap(&ctx, 1, 64, 10, 20, &obs), Status::kOk);
  EXPECT_EQ(obs, 10u);
  EXPECT_EQ(fabric_.nic(0)->CompareSwap(&ctx, 1, 64, 10, 30, &obs), Status::kConflict);
  EXPECT_EQ(obs, 20u);
  EXPECT_EQ(buses_[1]->ReadU64(nullptr, 64), 20u);
}

TEST_F(FabricTest, RemoteFetchAdd) {
  ThreadContext ctx(0, 0, 1);
  buses_[1]->WriteU64(nullptr, 128, 5);
  uint64_t old = 0;
  ASSERT_EQ(fabric_.nic(0)->FetchAdd(&ctx, 1, 128, 3, &old), Status::kOk);
  EXPECT_EQ(old, 5u);
  EXPECT_EQ(buses_[1]->ReadU64(nullptr, 128), 8u);
}

TEST_F(FabricTest, RdmaWriteAbortsConflictingHtmTxn) {
  // The paper's key composition: an RDMA op is cache-coherent with target
  // memory, so it unconditionally aborts a conflicting HTM txn (§2.1).
  ThreadContext local(1, 0, 1);
  HtmTxn* txn = engines_[1]->Begin(&local);
  uint64_t v;
  ASSERT_EQ(txn->ReadU64(2048, &v), Status::kOk);

  ThreadContext remote(0, 0, 2);
  uint64_t payload = 99;
  ASSERT_EQ(fabric_.nic(0)->Write(&remote, 1, 2048, &payload, sizeof(payload)), Status::kOk);

  EXPECT_EQ(txn->ReadU64(2048, &v), Status::kAborted);
  EXPECT_EQ(txn->abort_code(), HtmTxn::AbortCode::kConflict);
}

TEST_F(FabricTest, RdmaInsideHtmAbortsTheRegion) {
  // RTM forbids I/O: issuing a verb inside an HTM region aborts it (§2.1).
  ThreadContext ctx(0, 0, 1);
  HtmTxn* txn = engines_[0]->Begin(&ctx);
  uint64_t v;
  ASSERT_EQ(txn->ReadU64(0, &v), Status::kOk);
  EXPECT_EQ(fabric_.nic(0)->Read(&ctx, 1, 0, &v, sizeof(v)), Status::kAborted);
  EXPECT_EQ(txn->abort_code(), HtmTxn::AbortCode::kIo);
  EXPECT_EQ(ctx.current_htm, nullptr);
}

TEST_F(FabricTest, MultiLineWriteCanBeObservedTorn) {
  // RDMA WRITE is atomic per cache line only. Verify the simulator applies a
  // 3-line write line-by-line by observing the memory between stripe epochs:
  // here we simply verify the full write lands and spans lines.
  ThreadContext ctx(0, 0, 1);
  std::vector<char> data(3 * kCacheLineSize, 'X');
  ASSERT_EQ(fabric_.nic(0)->Write(&ctx, 1, 4096, data.data(), data.size()), Status::kOk);
  std::vector<char> out(data.size());
  buses_[1]->Read(nullptr, 4096, out.data(), out.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), std::string(data.begin(), data.end()));
}

TEST_F(FabricTest, DeadNodeUnavailable) {
  ThreadContext ctx(0, 0, 1);
  fabric_.Kill(1);
  uint64_t v;
  EXPECT_EQ(fabric_.nic(0)->Read(&ctx, 1, 0, &v, sizeof(v)), Status::kUnavailable);
  EXPECT_EQ(fabric_.nic(0)->Write(&ctx, 1, 0, &v, sizeof(v)), Status::kUnavailable);
  EXPECT_EQ(fabric_.nic(0)->CompareSwap(&ctx, 1, 0, 0, 1, nullptr), Status::kUnavailable);
  fabric_.Revive(1);
  EXPECT_EQ(fabric_.nic(0)->Read(&ctx, 1, 0, &v, sizeof(v)), Status::kOk);
}

TEST_F(FabricTest, SendRecvDelivery) {
  ThreadContext src(0, 0, 1);
  ThreadContext dst(1, 0, 2);
  const std::string text = "insert request";
  std::vector<std::byte> payload(text.size());
  std::memcpy(payload.data(), text.data(), text.size());
  ASSERT_EQ(fabric_.nic(0)->Send(&src, 1, std::move(payload)), Status::kOk);

  Message m;
  ASSERT_TRUE(fabric_.nic(1)->TryRecv(&dst, &m));
  EXPECT_EQ(m.src_node, 0u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(m.payload.data()), m.payload.size()), text);
  EXPECT_FALSE(fabric_.nic(1)->TryRecv(&dst, &m));
}

TEST_F(FabricTest, VerbsChargeLatencyAndOccupancy) {
  ThreadContext ctx(0, 0, 1);
  uint64_t v;
  ASSERT_EQ(fabric_.nic(0)->Read(&ctx, 1, 0, &v, sizeof(v)), Status::kOk);
  EXPECT_GE(ctx.clock.now_ns(), cost_.rdma_read_ns);
  const uint64_t t1 = ctx.clock.now_ns();
  ASSERT_EQ(fabric_.nic(0)->Read(&ctx, 1, 0, &v, sizeof(v)), Status::kOk);
  EXPECT_GE(ctx.clock.now_ns(), t1 + cost_.rdma_read_ns);
}

TEST_F(FabricTest, NicSaturationDelaysConcurrentVerbs) {
  // Two "threads" with independent clocks hammer the same target NIC; the
  // occupancy resource must serialize them so their completion times spread
  // rather than overlap — this is the mechanism behind the replication
  // bottleneck in Figs. 15/16.
  ThreadContext a(0, 0, 1);
  ThreadContext b(2, 0, 2);
  std::vector<std::byte> big(64 * 1024);
  ASSERT_EQ(fabric_.nic(0)->Write(&a, 1, 0, big.data(), big.size()), Status::kOk);
  ASSERT_EQ(fabric_.nic(2)->Write(&b, 1, 8 * 64 * 1024, big.data(), big.size()), Status::kOk);
  const uint64_t busy = cost_.nic_verb_busy_ns + cost_.TransferNs(big.size());
  // The second writer must have been pushed behind the first on node 1's NIC.
  EXPECT_GE(std::max(a.clock.now_ns(), b.clock.now_ns()), 2 * busy);
}

TEST_F(FabricTest, LoopbackVerbUsesSingleNic) {
  // The fallback handler CASes *local* records through the NIC (§6.2).
  ThreadContext ctx(0, 0, 1);
  buses_[0]->WriteU64(nullptr, 64, 1);
  uint64_t obs;
  EXPECT_EQ(fabric_.nic(0)->CompareSwap(&ctx, 0, 64, 1, 2, &obs), Status::kOk);
  EXPECT_EQ(buses_[0]->ReadU64(nullptr, 64), 2u);
}

TEST_F(FabricTest, SharedOccupancyForLogicalNodes) {
  // Fig. 12: logical nodes on one machine share the physical NIC.
  RdmaNic::Occupancy shared;
  fabric_.nic(0)->ShareOccupancy(&shared);
  fabric_.nic(1)->ShareOccupancy(&shared);
  ThreadContext a(0, 0, 1);
  ThreadContext b(1, 0, 2);
  uint64_t v;
  ASSERT_EQ(fabric_.nic(0)->Read(&a, 2, 0, &v, sizeof(v)), Status::kOk);
  ASSERT_EQ(fabric_.nic(1)->Read(&b, 2, 64, &v, sizeof(v)), Status::kOk);
  EXPECT_GT(shared.tx.free_at_ns(), 0u);
}

// ---- admission matrix ----
//
// Every verb entry point, waited and posted, passes the same admission
// sequence: the HTM no-I/O rule, then liveness and the fault plan, then (for
// mutating verbs only) the epoch fence. Each row issues one verb from node 0.
class FabricAdmissionTest : public FabricTest {
 protected:
  static constexpr uint64_t kOff = 4096;
  static constexpr uint64_t kValue = 0x5eed;
  static constexpr uint64_t kBudgetNs = 100'000;

  struct VerbCase {
    std::string name;
    bool mutating;
    std::function<Status(ThreadContext*, uint32_t dst)> issue;
  };

  FabricAdmissionTest() {
    obs::Registry::Global().Reset();
    obs::Registry::Global().Enable(true);
  }
  ~FabricAdmissionTest() override {
    fabric_.set_fault_plan(nullptr);
    obs::Registry::Global().Enable(false);
    obs::Registry::Global().Reset();
  }

  std::vector<VerbCase> Verbs() {
    RdmaNic* nic = fabric_.nic(0);
    uint64_t* word = &word_;
    uint64_t* done = &completion_;
    RdmaNic::VerbChain* chain = &chain_;
    const size_t n = sizeof(uint64_t);
    return {
        {"Read", false,
         [=](ThreadContext* c, uint32_t d) { return nic->Read(c, d, kOff, word, n); }},
        {"Read posted", false,
         [=](ThreadContext* c, uint32_t d) { return nic->Read(c, d, kOff, word, n, done); }},
        {"ReadTimeout", false,
         [=](ThreadContext* c, uint32_t d) {
           return nic->ReadTimeout(c, d, kOff, word, n, kBudgetNs);
         }},
        {"Write", true,
         [=](ThreadContext* c, uint32_t d) { return nic->Write(c, d, kOff, &kValue, n); }},
        {"Write posted", true,
         [=](ThreadContext* c, uint32_t d) { return nic->Write(c, d, kOff, &kValue, n, done); }},
        {"CompareSwap", true,
         [=](ThreadContext* c, uint32_t d) {
           return nic->CompareSwap(c, d, kOff, 0, kValue, word);
         }},
        {"CompareSwap posted", true,
         [=](ThreadContext* c, uint32_t d) {
           return nic->CompareSwap(c, d, kOff, 0, kValue, word, done);
         }},
        {"FetchAdd", true,
         [=](ThreadContext* c, uint32_t d) { return nic->FetchAdd(c, d, kOff, kValue, word); }},
        {"Send", true,
         [=](ThreadContext* c, uint32_t d) { return nic->Send(c, d, std::vector<std::byte>(n)); }},
        {"ChainAppend", true,
         [=](ThreadContext* c, uint32_t d) {
           return nic->ChainAppend(c, chain, d, kOff, &kValue, n);
         }},
    };
  }

  // Nothing reached node 1: its word is untouched, no WQE was linked and no
  // message was queued.
  void ExpectTargetUntouched() {
    EXPECT_EQ(buses_[1]->ReadU64(nullptr, kOff), 0u);
    EXPECT_FALSE(chain_.open());
    Message m;
    EXPECT_FALSE(fabric_.nic(1)->TryRecv(nullptr, &m));
  }

  static obs::Snapshot Counts() { return obs::Registry::Global().Collect(); }

  uint64_t word_ = 0;
  uint64_t completion_ = 0;
  RdmaNic::VerbChain chain_;
};

TEST_F(FabricAdmissionTest, InsideHtmRegionEveryVerbAbortsTheRegionUncounted) {
  for (const VerbCase& v : Verbs()) {
    SCOPED_TRACE(v.name);
    ThreadContext ctx(0, 0, 1);
    HtmTxn* txn = engines_[0]->Begin(&ctx);
    uint64_t w;
    ASSERT_EQ(txn->ReadU64(64, &w), Status::kOk);
    EXPECT_EQ(v.issue(&ctx, 1), Status::kAborted);
    EXPECT_EQ(txn->abort_code(), HtmTxn::AbortCode::kIo);
    EXPECT_EQ(ctx.current_htm, nullptr);
  }
  ExpectTargetUntouched();
  EXPECT_EQ(fabric_.nic(0)->verbs_issued(), 0u);
  EXPECT_EQ(Counts().FabricOps(), 0u);
}

TEST_F(FabricAdmissionTest, DeadTargetAndDropRuleRefuseEveryVerb) {
  ThreadContext ctx(0, 0, 1);
  const std::vector<VerbCase> verbs = Verbs();
  fabric_.Kill(1);
  for (const VerbCase& v : verbs) {
    SCOPED_TRACE(v.name + " to a dead target");
    EXPECT_EQ(v.issue(&ctx, 1), Status::kUnavailable);
  }
  fabric_.Revive(1);
  FaultPlan plan(1);
  plan.DropVerbs(0, 1, {0, 0}, FaultPlan::kPpmAlways);
  fabric_.set_fault_plan(&plan);
  for (const VerbCase& v : verbs) {
    SCOPED_TRACE(v.name + " under a drop rule");
    EXPECT_EQ(v.issue(&ctx, 1), Status::kUnavailable);
  }
  ExpectTargetUntouched();
  // A lost verb was still issued and put on the wire: it counts once.
  EXPECT_EQ(fabric_.nic(0)->verbs_issued(), 2 * verbs.size());
  EXPECT_EQ(Counts().FabricOps(), 2 * verbs.size());
}

TEST_F(FabricAdmissionTest, EpochFenceRefusesEveryMutatingVerbAndAdmitsReads) {
  ThreadContext ctx(0, 0, 1);
  fabric_.set_epoch_fencing(true);
  fabric_.StampEpoch(1, 5);
  fabric_.RaiseFence(5);  // node 0's word lags the fence at epoch 0
  uint64_t mutating = 0;
  for (const VerbCase& v : Verbs()) {
    SCOPED_TRACE(v.name);
    EXPECT_EQ(v.issue(&ctx, 1), v.mutating ? Status::kStaleEpoch : Status::kOk);
    mutating += v.mutating ? 1 : 0;
  }
  ExpectTargetUntouched();
  EXPECT_EQ(Counts().counter(obs::Counter::kFenceRejectedVerb), mutating);
  // The refused WQE left the chain valid: once the issuer catches up with the
  // fence, the same chain links, rings and lands.
  fabric_.StampEpoch(0, 5);
  ASSERT_EQ(fabric_.nic(0)->ChainAppend(&ctx, &chain_, 1, kOff, &kValue, sizeof(kValue)),
            Status::kOk);
  fabric_.nic(0)->ChainRing(&ctx, &chain_, &completion_);
  EXPECT_EQ(buses_[1]->ReadU64(nullptr, kOff), kValue);
}

TEST_F(FabricAdmissionTest, ReadTimeoutPastItsBudgetChargesExactlyTheBudget) {
  FaultPlan plan(1);
  plan.Partition(0, 1, {0, 1'000'000});
  fabric_.set_fault_plan(&plan);
  ThreadContext ctx(0, 0, 1);
  const uint64_t wire_ns =
      cost_.nic_verb_busy_ns + cost_.TransferNs(sizeof(uint64_t)) + cost_.rdma_read_ns;
  EXPECT_EQ(fabric_.nic(0)->ReadTimeout(&ctx, 1, kOff, &word_, sizeof(word_), kBudgetNs),
            Status::kUnavailable);
  EXPECT_EQ(ctx.clock.now_ns(), wire_ns + kBudgetNs);
  // Within its budget the read waits the window out and completes.
  EXPECT_EQ(fabric_.nic(0)->ReadTimeout(&ctx, 1, kOff, &word_, sizeof(word_), 10 * 1'000'000),
            Status::kOk);
  EXPECT_EQ(ctx.clock.now_ns(), 1'000'000u);
}

TEST_F(FabricAdmissionTest, EveryAdmittedVerbCountsOnce) {
  ThreadContext ctx(0, 0, 1);
  const std::vector<VerbCase> verbs = Verbs();
  for (const VerbCase& v : verbs) {
    SCOPED_TRACE(v.name);
    const Status s = v.issue(&ctx, 1);
    EXPECT_TRUE(s == Status::kOk || s == Status::kConflict);  // a CAS may miss
  }
  fabric_.nic(0)->ChainRing(&ctx, &chain_, &completion_);
  Message m;
  EXPECT_TRUE(fabric_.nic(1)->TryRecv(nullptr, &m));
  EXPECT_EQ(fabric_.nic(0)->verbs_issued(), verbs.size());
  const obs::Snapshot snap = Counts();
  EXPECT_EQ(snap.FabricOps(), verbs.size());
  EXPECT_EQ(snap.counter(obs::Counter::kFabricDoorbells), 1u);
  EXPECT_EQ(snap.counter(obs::Counter::kFabricChainedVerbs), 1u);
}

}  // namespace
}  // namespace drtmr::sim
