// Teeth tests for the protocol conformance analyzer (DESIGN.md §11): each
// violation class is seeded deliberately through the real sim primitives
// (bus stores, lock CASes, HTM regions, epoch stamps) and must be detected;
// conforming runs — including analyzer-enabled torture seeds across fault
// plans — must report zero violations.
#include "src/chk/protocol_analyzer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/chk/torture.h"
#include "src/cluster/node.h"
#include "src/sim/fabric.h"
#include "src/sim/htm.h"
#include "src/store/hash_store.h"
#include "src/store/record.h"

namespace drtmr::chk {
namespace {

using store::LockWord;
using store::RecordLayout;

// A value spanning two cache lines so the record carries a line-1 version
// word (seqlock torn-read checking is only meaningful for multi-line values).
constexpr size_t kValueSize = 80;

class ProtocolAnalyzerTest : public ::testing::Test {
 protected:
  ProtocolAnalyzerTest() {
    ProtocolAnalyzer::Global().Reset();
    ProtocolAnalyzer::Global().set_seq_parity(true);
    ProtocolAnalyzer::Global().Enable(true);
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 2;
    cfg.workers_per_node = 4;
    cfg.memory_bytes = 16 << 20;
    cfg.log_bytes = 1 << 20;
    cluster_ = std::make_unique<cluster::Cluster>(cfg);
    store_ = std::make_unique<store::HashStore>(cluster_->node(0), 256, kValueSize);
    std::vector<std::byte> value(kValueSize, std::byte{7});
    EXPECT_EQ(store_->Insert(Ctx(0), 42, value.data(), &off_), Status::kOk);
    EXPECT_NE(off_, 0u);
  }

  ~ProtocolAnalyzerTest() override {
    ProtocolAnalyzer::Global().Enable(false);
    ProtocolAnalyzer::Global().Reset();
  }

  sim::ThreadContext* Ctx(uint32_t worker) { return cluster_->node(0)->context(worker); }
  sim::MemoryBus* Bus() { return cluster_->node(0)->bus(); }
  static ProtocolAnalyzer& A() { return ProtocolAnalyzer::Global(); }

  uint64_t ReadSeq() { return Bus()->ReadU64(nullptr, off_ + RecordLayout::kSeqOff); }

  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::HashStore> store_;
  uint64_t off_ = 0;
};

TEST_F(ProtocolAnalyzerTest, CleanCommittedStoreReportsNothing) {
  // Registration, lookups, and reads alone must not trip anything.
  std::vector<std::byte> rec(store_->record_bytes());
  Bus()->Read(Ctx(0), off_, rec.data(), rec.size());
  EXPECT_EQ(RecordLayout::GetKey(rec.data()), 42u);
  EXPECT_EQ(A().total_violations(), 0u);
}

TEST_F(ProtocolAnalyzerTest, DetectsUnlockedWrite) {
  // A plain store into the payload without the record lock, an HTM region,
  // or a seqlock window is exactly the race Eraser-style checking exists for.
  const uint64_t payload = off_ + RecordLayout::kKeyOff + 8;
  const uint64_t junk = 0xdeadbeef;
  Bus()->Write(Ctx(0), payload, &junk, sizeof(junk));
  EXPECT_GE(A().violations(ViolationClass::kUnlockedWrite), 1u);
}

TEST_F(ProtocolAnalyzerTest, LockedWriteIsSanctioned) {
  const uint64_t word = LockWord::Make(0, 1);
  uint64_t obs = 0;
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, 0, word, &obs));
  // Under the lock the owner may mutate payload and versions freely...
  const uint64_t seq = ReadSeq();
  std::vector<std::byte> image(store_->record_bytes());
  Bus()->Read(nullptr, off_, image.data(), image.size());
  RecordLayout::SetSeq(image.data(), seq + 2);
  RecordLayout::SetVersions(image.data(), kValueSize, seq + 2);
  Bus()->Write(Ctx(1), off_ + RecordLayout::kSeqOff,
               image.data() + RecordLayout::kSeqOff,
               image.size() - RecordLayout::kSeqOff);
  // ...and a consistent unlock closes the window without complaint.
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, word, 0, &obs));
  EXPECT_EQ(A().total_violations(), 0u);
}

// Four workers hand one record's lock around, each writing the record while
// it holds the lock. The shadow must apply the lock CASes in the order they
// hit memory: a release shadowed after the next owner's acquire would leave
// the record unlocked in the shadow, and that owner's write flagged.
TEST_F(ProtocolAnalyzerTest, ContendedLockHandoffStaysSanctioned) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kRounds = 2000;
  const uint64_t lock_off = off_ + RecordLayout::kLockOff;
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([this, w, lock_off] {
      sim::ThreadContext* ctx = Ctx(w);
      const uint64_t word = LockWord::Make(0, w);
      std::vector<std::byte> image(store_->record_bytes());
      uint64_t obs = 0;
      for (int i = 0; i < kRounds; ++i) {
        while (!Bus()->CasU64(ctx, lock_off, 0, word, &obs)) {
          std::this_thread::yield();
        }
        Bus()->Read(nullptr, off_, image.data(), image.size());
        const uint64_t seq = RecordLayout::GetSeq(image.data()) + 2;
        RecordLayout::SetSeq(image.data(), seq);
        RecordLayout::SetVersions(image.data(), kValueSize, seq);
        Bus()->Write(ctx, off_ + RecordLayout::kSeqOff, image.data() + RecordLayout::kSeqOff,
                     image.size() - RecordLayout::kSeqOff);
        ASSERT_TRUE(Bus()->CasU64(ctx, lock_off, word, 0, &obs));
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(A().total_violations(), 0u);
}

TEST_F(ProtocolAnalyzerTest, DetectsSeqlockWindowClosedTorn) {
  // Take the lock, bump the seqnum WITHOUT restamping the line-1 version
  // word, and release: a one-sided READ can no longer detect the torn state,
  // which is precisely the §4.2 discipline breach.
  const uint64_t word = LockWord::Make(0, 1);
  uint64_t obs = 0;
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, 0, word, &obs));
  const uint64_t new_seq = ReadSeq() + 2;
  Bus()->WriteU64(Ctx(1), off_ + RecordLayout::kSeqOff, new_seq);
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, word, 0, &obs));
  EXPECT_GE(A().violations(ViolationClass::kSeqlockDiscipline), 1u);
}

TEST_F(ProtocolAnalyzerTest, DetectsTornSnapshotAccepted) {
  // A reader that accepts a snapshot whose line versions disagree with the
  // seqnum (instead of retrying per Fig. 6) is flagged at the acceptance hook.
  A().OnSnapshotAccepted(Bus(), off_, /*seq=*/6, /*lock_word=*/0,
                         /*versions_ok=*/false, /*lock_checked=*/true);
  EXPECT_GE(A().violations(ViolationClass::kSeqlockDiscipline), 1u);
}

TEST_F(ProtocolAnalyzerTest, DetectsLockedSnapshotAccepted) {
  A().OnSnapshotAccepted(Bus(), off_, /*seq=*/6, LockWord::Make(1, 2),
                         /*versions_ok=*/true, /*lock_checked=*/true);
  EXPECT_GE(A().violations(ViolationClass::kSeqlockDiscipline), 1u);
}

TEST_F(ProtocolAnalyzerTest, DetectsStrongAtomicityBreach) {
  // An active HTM region has the payload line in its write set; a conflicting
  // plain access that fails to doom it would break strong atomicity. The sim
  // bus always dooms before this check runs, so seed the breach by invoking
  // the check directly against the still-active region.
  sim::HtmTxn* htm = cluster_->node(0)->htm()->Begin(Ctx(0));
  ASSERT_NE(htm, nullptr);
  ASSERT_EQ(htm->WriteU64(off_ + RecordLayout::kKeyOff, 99), Status::kOk);
  A().CheckStrongAtomicity(Bus(), (off_ + RecordLayout::kKeyOff) / kCacheLineSize,
                           /*is_write=*/true, /*self=*/nullptr);
  EXPECT_GE(A().violations(ViolationClass::kStrongAtomicity), 1u);
  htm->Abort();
}

TEST_F(ProtocolAnalyzerTest, DetectsVerbInsideRegionNotAborting) {
  A().OnVerbInRegion(Ctx(0), /*aborted=*/false);
  EXPECT_GE(A().violations(ViolationClass::kStrongAtomicity), 1u);
  // The conforming outcome — region aborted by the no-I/O rule — is silent.
  const uint64_t before = A().total_violations();
  A().OnVerbInRegion(Ctx(0), /*aborted=*/true);
  EXPECT_EQ(A().total_violations(), before);
}

TEST_F(ProtocolAnalyzerTest, DetectsCrossThreadRelease) {
  const uint64_t owner = LockWord::Make(0, 1);
  uint64_t obs = 0;
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, 0, owner, &obs));
  // Worker 2 releases worker 1's lock without an announced steal.
  ASSERT_TRUE(Bus()->CasU64(Ctx(2), off_ + RecordLayout::kLockOff, owner, 0, &obs));
  EXPECT_GE(A().violations(ViolationClass::kLockHygiene), 1u);
}

TEST_F(ProtocolAnalyzerTest, AnnouncedStealIsSanctioned) {
  const uint64_t owner = LockWord::Make(0, 1);
  uint64_t obs = 0;
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, 0, owner, &obs));
  // §5.2 passive recovery: the steal is announced first, so it is not a
  // hygiene violation even though the releaser does not own the word.
  A().NoteDanglingSteal(Bus(), off_, owner);
  ASSERT_TRUE(Bus()->CasU64(Ctx(2), off_ + RecordLayout::kLockOff, owner, 0, &obs));
  EXPECT_EQ(A().violations(ViolationClass::kLockHygiene), 0u);
}

TEST_F(ProtocolAnalyzerTest, DetectsDoubleRelease) {
  const uint64_t owner = LockWord::Make(0, 1);
  uint64_t obs = 0;
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, 0, owner, &obs));
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, owner, 0, &obs));
  EXPECT_EQ(A().total_violations(), 0u);
  // The second unlock CAS finds the word already free: double release.
  EXPECT_FALSE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, owner, 0, &obs));
  EXPECT_GE(A().violations(ViolationClass::kLockHygiene), 1u);
}

TEST_F(ProtocolAnalyzerTest, SweepFlagsLeakedLockAndHonorsExemption) {
  const uint64_t owner = LockWord::Make(1, 0);
  uint64_t obs = 0;
  ASSERT_TRUE(Bus()->CasU64(Ctx(1), off_ + RecordLayout::kLockOff, 0, owner, &obs));
  // An exempt owner (dead / ever-suspected) is expected debris...
  EXPECT_EQ(A().SweepLocks([](uint32_t node) { return node == 1; }), 0u);
  EXPECT_EQ(A().violations(ViolationClass::kLockHygiene), 0u);
  // ...a live owner's held lock at quiescence is a leak.
  EXPECT_EQ(A().SweepLocks([](uint32_t) { return false; }), 1u);
  EXPECT_GE(A().violations(ViolationClass::kLockHygiene), 1u);
  // The rule itself is shared with the torture oracle's real-memory sweep.
  EXPECT_TRUE(ProtocolAnalyzer::QuiescentLockLeaked(owner, [](uint32_t) { return false; }));
  EXPECT_FALSE(ProtocolAnalyzer::QuiescentLockLeaked(owner, [](uint32_t n) { return n == 1; }));
  EXPECT_FALSE(ProtocolAnalyzer::QuiescentLockLeaked(0, [](uint32_t) { return false; }));
}

TEST_F(ProtocolAnalyzerTest, DetectsStaleEpochVerbAdmission) {
  // Stamp epoch 5 into node 1's registered memory the same way membership
  // does (a CAS on the fabric epoch word); node 0 stays at epoch 0. A
  // mutating verb admitted from node 0 under fence epoch 5 should have been
  // fenced.
  sim::MemoryBus* stamped = cluster_->node(1)->bus();
  uint64_t obs = 0;
  ASSERT_TRUE(stamped->CasU64(nullptr, sim::Fabric::kEpochWordOff, 0, 5, &obs));
  A().OnVerbAdmitted(Bus(), /*src_node=*/0, /*dst_node=*/1, /*fence_epoch=*/5);
  EXPECT_GE(A().violations(ViolationClass::kEpochFencing), 1u);
  // An issuer that carries the fence (or any issuer with fencing off,
  // fence 0) is conforming, whatever the target's word.
  const uint64_t before = A().total_violations();
  A().OnVerbAdmitted(stamped, 1, 0, /*fence_epoch=*/5);
  A().OnVerbAdmitted(Bus(), 0, 1, /*fence_epoch=*/0);
  EXPECT_EQ(A().total_violations(), before);
}

TEST_F(ProtocolAnalyzerTest, ViolationsJsonRoundTrip) {
  A().OnSnapshotAccepted(Bus(), off_, 6, 0, /*versions_ok=*/false, true);
  ASSERT_GE(A().total_violations(), 1u);
  const std::vector<Violation> vs = A().CollectViolations();
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs[0].cls, ViolationClass::kSeqlockDiscipline);
  const std::string path = ::testing::TempDir() + "/violations.json";
  ASSERT_TRUE(A().WriteViolationsJson(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  ASSERT_GT(n, 0u);
  EXPECT_NE(std::strstr(buf, "seqlock-discipline"), nullptr);
  EXPECT_NE(std::strstr(buf, "torn snapshot"), nullptr);
}

// Conforming end-to-end runs: the full engine under the analyzer, across
// fault-plan families, must be violation-free. (The 64-seed sweep lives in
// scripts/check.sh; this keeps a representative slice in the test tier.)
struct TortureAnalyzeCase {
  TorturePlanKind kind;
  uint32_t replicas;
};

class ProtocolAnalyzerTortureTest
    : public ::testing::TestWithParam<TortureAnalyzeCase> {};

TEST_P(ProtocolAnalyzerTortureTest, ConformingRunHasNoViolations) {
  TortureOptions opt;
  opt.shape.nodes = 3;
  opt.shape.workers = 2;
  opt.shape.replicas = GetParam().replicas;
  opt.shape.txns_per_worker = 60;
  opt.seed = 7;
  opt.plan_kind = GetParam().kind;
  opt.analyze = true;
  const TortureResult r = RunTorture(opt);
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_EQ(r.violations, 0u) << r.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ProtocolAnalyzerTortureTest,
    ::testing::Values(TortureAnalyzeCase{TorturePlanKind::kClean, 3},
                      TortureAnalyzeCase{TorturePlanKind::kClean, 1},
                      TortureAnalyzeCase{TorturePlanKind::kDelay, 3},
                      TortureAnalyzeCase{TorturePlanKind::kHtmAbort, 3},
                      TortureAnalyzeCase{TorturePlanKind::kKill, 3}),
    [](const ::testing::TestParamInfo<TortureAnalyzeCase>& info) {
      std::string name = TorturePlanKindName(info.param.kind);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_r" + std::to_string(info.param.replicas);
    });

}  // namespace
}  // namespace drtmr::chk
