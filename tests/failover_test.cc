// Epoch-fenced failover (DESIGN.md §10): a writer removed from the
// configuration must not be able to mutate survivor state (zombie fencing),
// and the full suspect → recover → rejoin → commit round-trip must run with
// no scripted help when the failure is a transient network freeze.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/cluster/membership.h"
#include "src/cluster/partition_map.h"
#include "src/rep/primary_backup.h"
#include "src/rep/recovery.h"
#include "src/sim/fault.h"
#include "src/sim/time_gate.h"
#include "src/store/record.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"
#include "tests/lock_state.h"

namespace drtmr::cluster {
namespace {

using store::RecordLayout;

struct Cell {
  int64_t value;
  uint64_t pad[6];
};

constexpr uint32_t kTableId = 1;
constexpr int64_t kInitialBalance = 1000;

class FailoverTest : public ::testing::Test {
 protected:
  // `fused_seq_lock` picks the §4.4 lock strategy (on a GLOB fabric) over the
  // default lock-word CAS.
  void Build(uint32_t nodes, uint64_t keys_per_node, const MembershipConfig& mcfg,
             uint64_t join_lease_ns, bool fused_seq_lock = false) {
    nodes_ = nodes;
    keys_per_node_ = keys_per_node;
    cfg_.num_nodes = nodes;
    if (fused_seq_lock) {
      cfg_.atomicity = sim::AtomicityLevel::kGlob;
    }
    cfg_.workers_per_node = 2;
    cfg_.memory_bytes = 16 << 20;
    cfg_.log_bytes = 4 << 20;
    cluster_ = std::make_unique<Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    store::TableOptions topt;
    topt.value_size = sizeof(Cell);
    topt.hash_buckets = 256;
    table_ = catalog_->CreateTable(kTableId, topt);
    coordinator_ = std::make_unique<Coordinator>();
    for (uint32_t i = 0; i < nodes; ++i) {
      coordinator_->Join(i, 0, join_lease_ns);
    }
    rep::RepConfig rcfg;
    rcfg.replicas = 3;
    replicator_ = std::make_unique<rep::PrimaryBackupReplicator>(cluster_.get(), rcfg);
    txn::TxnConfig tcfg;
    tcfg.replication = true;
    tcfg.fused_seq_lock = fused_seq_lock;
    engine_ = std::make_unique<txn::TxnEngine>(cluster_.get(), catalog_.get(), tcfg,
                                               coordinator_.get(), replicator_.get());
    engine_->StartServices();
    pmap_ = std::make_unique<PartitionMap>(nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      for (uint64_t i = 0; i < keys_per_node; ++i) {
        Cell c{kInitialBalance, {}};
        ASSERT_EQ(
            table_->hash(n)->Insert(cluster_->node(n)->context(0), KeyOf(n, i), &c, nullptr),
            Status::kOk);
        const uint64_t off = table_->hash(n)->Lookup(nullptr, KeyOf(n, i));
        std::vector<std::byte> img(table_->record_bytes());
        cluster_->node(n)->bus()->Read(nullptr, off, img.data(), img.size());
        for (uint32_t r = 1; r < rcfg.replicas; ++r) {
          replicator_->SeedBackup(cluster_->BackupOf(n, r), kTableId, n, KeyOf(n, i),
                                  img.data(), img.size());
        }
      }
    }
    recovery_ = std::make_unique<rep::RecoveryManager>(engine_.get(), replicator_.get(),
                                                       coordinator_.get());
    membership_ = std::make_unique<MembershipService>(cluster_.get(), coordinator_.get(),
                                                      pmap_.get(), mcfg);
    membership_->set_recovery_fn([this](uint32_t dead, uint32_t host) {
      recovery_->RecoverAfterFailure(cluster_->node(host)->tool_context(), dead, host,
                                     /*pmap=*/nullptr);
    });
    engine_->set_membership(membership_.get());
  }

  ~FailoverTest() override {
    if (membership_ != nullptr) {
      membership_->Stop();
    }
    if (engine_ != nullptr) {
      engine_->StopServices();
    }
  }

  static uint64_t KeyOf(uint32_t part, uint64_t i) {
    return (static_cast<uint64_t>(part) << 16) | (i + 1);
  }

  // Reads partition `part`, key index `i` through the current partition map.
  int64_t ReadValue(uint32_t part, uint64_t i) {
    const uint32_t n = pmap_->node_of(part);
    const uint64_t off = table_->hash(n)->Lookup(nullptr, KeyOf(part, i));
    EXPECT_NE(off, store::HashStore::kNoRecord) << "partition " << part << " key " << i;
    if (off == store::HashStore::kNoRecord) {
      return -1;
    }
    std::vector<std::byte> rec(table_->record_bytes());
    cluster_->node(n)->bus()->Read(nullptr, off, rec.data(), rec.size());
    Cell c{};
    RecordLayout::GatherValue(rec.data(), &c, sizeof(c));
    return c.value;
  }

  // No record of partition `part` holds a lock word or a fused seq lock bit.
  void ExpectPartitionUnlocked(uint32_t part) {
    const uint32_t n = pmap_->node_of(part);
    for (uint64_t i = 0; i < keys_per_node_; ++i) {
      const uint64_t key = KeyOf(part, i);
      ExpectUnlocked(cluster_->node(n)->bus(), table_->hash(n)->Lookup(nullptr, key), key);
    }
  }

  // Runs ZombieWriterIsFencedAfterRemoval on the chosen lock strategy.
  void ExpectZombieWriterFenced(bool fused_seq_lock);

  // One read-modify-write transfer attempt from `ctx`; returns Commit status
  // (or the first failing step's status).
  Status TryDeposit(sim::ThreadContext* ctx, uint32_t part, uint64_t i, int64_t delta) {
    txn::Transaction txn(engine_.get(), ctx);
    txn.Begin();
    Cell v{};
    const uint32_t n = pmap_->node_of(part);
    if (Status s = txn.Read(table_, n, KeyOf(part, i), &v); s != Status::kOk) {
      txn.UserAbort();
      return s;
    }
    v.value += delta;
    if (Status s = txn.Write(table_, n, KeyOf(part, i), &v); s != Status::kOk) {
      txn.UserAbort();
      return s;
    }
    return txn.Commit();
  }

  uint32_t nodes_ = 0;
  uint64_t keys_per_node_ = 0;
  ClusterConfig cfg_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  store::Table* table_ = nullptr;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<rep::PrimaryBackupReplicator> replicator_;
  std::unique_ptr<txn::TxnEngine> engine_;
  std::unique_ptr<PartitionMap> pmap_;
  std::unique_ptr<rep::RecoveryManager> recovery_;
  std::unique_ptr<MembershipService> membership_;
};

// A transaction that began before its node was removed from the view must not
// be able to mutate survivor state afterwards: its begin epoch is the old
// stamp, so the survivor's fabric refuses the C.1 lock CAS (issuer stamp lags
// the target's) and the commit comes back kStaleEpoch, booked as a fencing
// abort, with the target record untouched and unlocked. Both lock strategies
// must type the bounce the same way. Leases are effectively infinite here so
// epoch fencing is the only mechanism under test; the view change is driven
// deterministically by single-stepping the driver — no threads, no timing.
void FailoverTest::ExpectZombieWriterFenced(bool fused_seq_lock) {
  MembershipConfig mcfg;
  mcfg.lease_ns = 1'000'000'000;  // lease checks always pass; fencing is the fence
  Build(/*nodes=*/3, /*keys_per_node=*/4, mcfg, /*join_lease_ns=*/~0ull >> 2, fused_seq_lock);
  membership_->Arm();
  const uint64_t old_epoch = coordinator_->view().epoch;

  // The zombie (node 1) opens a transaction against a record on node 0 and
  // stages a write, then the configuration removes it.
  sim::ThreadContext* zombie = cluster_->node(1)->context(0);
  txn::Transaction txn(engine_.get(), zombie);
  txn.Begin();
  Cell v{};
  ASSERT_EQ(txn.Read(table_, 0, KeyOf(0, 0), &v), Status::kOk);
  v.value += 500;
  ASSERT_EQ(txn.Write(table_, 0, KeyOf(0, 0), &v), Status::kOk);

  coordinator_->Remove(1);
  membership_->TickDriver();  // flip pmap, stamp survivors, recover node 1's data

  EXPECT_EQ(membership_->suspicions(), 1u);
  EXPECT_EQ(membership_->recoveries(), 1u);
  EXPECT_TRUE(membership_->was_suspected(1));
  EXPECT_EQ(pmap_->node_of(1), 2u);  // next ring member hosts the partition
  // Survivors carry the new stamp; the removed node's word was left behind.
  EXPECT_GT(membership_->NodeEpoch(0), old_epoch);
  EXPECT_EQ(membership_->NodeEpoch(1), old_epoch);

  // The staged commit bounces: the survivor's NIC refuses the lock CAS.
  const uint64_t fenced_before = engine_->stats().aborts_stale_epoch.load();
  EXPECT_EQ(txn.Commit(), Status::kStaleEpoch);
  EXPECT_EQ(engine_->stats().aborts_stale_epoch.load(), fenced_before + 1);
  EXPECT_EQ(ReadValue(0, 0), kInitialBalance);
  ExpectPartitionUnlocked(0);

  // A brand-new transaction from the zombie is fenced too — its begin epoch
  // re-reads its own (stale) word, and every mutating verb still bounces.
  EXPECT_EQ(TryDeposit(zombie, 0, 0, 500), Status::kStaleEpoch);
  EXPECT_EQ(ReadValue(0, 0), kInitialBalance);

  // Survivors are unaffected: the same deposit from node 2 commits, including
  // against the partition recovery just re-hosted.
  EXPECT_EQ(TryDeposit(cluster_->node(2)->context(0), 0, 0, 500), Status::kOk);
  EXPECT_EQ(ReadValue(0, 0), kInitialBalance + 500);
  EXPECT_EQ(TryDeposit(cluster_->node(2)->context(0), 1, 0, 77), Status::kOk);
  EXPECT_EQ(ReadValue(1, 0), kInitialBalance + 77);
}

TEST_F(FailoverTest, ZombieWriterIsFencedAfterRemoval) {
  ExpectZombieWriterFenced(/*fused_seq_lock=*/false);
}

TEST_F(FailoverTest, FusedZombieWriterIsFencedAfterRemoval) {
  ExpectZombieWriterFenced(/*fused_seq_lock=*/true);
}

// An epoch install fences the removed node at one instant, after the last
// member is stamped. Until then a survivor that is not stamped yet must still
// reach members that are: here it releases a lock it holds on node 0 with the
// same CAS a finishing commit posts, landed by the stamp hook between node 0's
// and node 2's stamps. Refused, that unlock would be dropped (unlocks are
// fire-and-forget) and the lock leaked. No threads, no timing.
TEST_F(FailoverTest, SurvivorUnlockBetweenMemberStampsIsAdmitted) {
  MembershipConfig mcfg;
  mcfg.lease_ns = 1'000'000'000;
  Build(/*nodes=*/3, /*keys_per_node=*/2, mcfg, /*join_lease_ns=*/~0ull >> 2);
  membership_->Arm();

  sim::ThreadContext* survivor = cluster_->node(2)->context(0);
  sim::RdmaNic* nic = cluster_->node(2)->nic();
  const uint64_t lock_off = table_->hash(0)->Lookup(nullptr, KeyOf(0, 0)) + RecordLayout::kLockOff;
  const uint64_t lock = store::LockWord::Make(2, 0);
  uint64_t observed = 0;
  ASSERT_EQ(nic->CompareSwap(survivor, 0, lock_off, store::LockWord::kUnlocked, lock, &observed),
            Status::kOk);

  Status unlock = Status::kInvalid;
  membership_->set_stamp_hook([&](uint32_t stamped) {
    if (stamped == 0) {
      ASSERT_GT(membership_->NodeEpoch(0), membership_->NodeEpoch(2));
      unlock = nic->CompareSwap(survivor, 0, lock_off, lock, store::LockWord::kUnlocked,
                                &observed);
    }
  });
  coordinator_->Remove(1);
  membership_->TickDriver();

  EXPECT_EQ(unlock, Status::kOk) << StatusString(unlock);
  ExpectPartitionUnlocked(0);
  // Once the fence is up, the removed node's verbs bounce as before.
  EXPECT_EQ(cluster_->node(1)->nic()->CompareSwap(cluster_->node(1)->context(0), 0, lock_off,
                                                  store::LockWord::kUnlocked,
                                                  store::LockWord::Make(1, 0), &observed),
            Status::kStaleEpoch);
  ExpectPartitionUnlocked(0);
}

// The installed view, not the simulator, says who is dead. Node 1 dies
// through the fault plan alone (nobody calls Cluster::Kill) and is removed
// and recovered. A survivor's unlock into its memory was lost, so one of its
// records still carries node 0's lock, and a survivor's backup ring holds a
// newer image of that record under primary 1. When healthy node 3 is removed
// next, its recovery must skip node 1's records: node 1 is outside the view,
// so patching it would spin on a lock nobody will ever release.
TEST_F(FailoverTest, SecondRemovalSkipsAnEarlierVictimsMemory) {
  MembershipConfig mcfg;
  mcfg.lease_ns = 1'000'000'000;
  Build(/*nodes=*/4, /*keys_per_node=*/2, mcfg, /*join_lease_ns=*/~0ull >> 2);
  membership_->Arm();
  sim::FaultPlan plan(/*seed=*/7);
  plan.KillAt(1, 0);
  cluster_->SetFaultPlan(&plan);
  coordinator_->Remove(1);
  membership_->TickDriver();
  ASSERT_EQ(membership_->recoveries(), 1u);

  sim::MemoryBus* bus = cluster_->node(1)->bus();
  const uint64_t off = table_->hash(1)->Lookup(nullptr, KeyOf(1, 0));
  const uint64_t survivor_lock = store::LockWord::Make(0, 0);
  uint64_t observed = 0;
  ASSERT_TRUE(bus->CasU64(nullptr, off + RecordLayout::kLockOff, store::LockWord::kUnlocked,
                          survivor_lock, &observed));
  std::vector<std::byte> img(table_->record_bytes());
  bus->Read(nullptr, off, img.data(), img.size());
  const uint64_t seq = RecordLayout::GetSeq(img.data());
  RecordLayout::SetLock(img.data(), store::LockWord::kUnlocked);
  RecordLayout::SetSeq(img.data(), seq + 2);
  RecordLayout::SetVersions(img.data(), sizeof(Cell), seq + 2);
  replicator_->SeedBackup(/*backup_node=*/2, kTableId, /*primary=*/1, KeyOf(1, 0), img.data(),
                          img.size());

  coordinator_->Remove(3);
  membership_->TickDriver();  // recovers node 3 on node 0; must not spin on node 1
  EXPECT_EQ(membership_->recoveries(), 2u);
  EXPECT_EQ(bus->ReadU64(nullptr, off + RecordLayout::kSeqOff), seq);
  EXPECT_EQ(bus->ReadU64(nullptr, off + RecordLayout::kLockOff), survivor_lock);
  EXPECT_EQ(TryDeposit(cluster_->node(0)->context(0), 3, 0, 5), Status::kOk);
  EXPECT_EQ(ReadValue(3, 0), kInitialBalance + 5);
  cluster_->SetFaultPlan(nullptr);
}

// Full autonomous round-trip under a transient freeze: the victim's heartbeat
// verbs stall past the fault window, its lease expires, the driver removes
// it, re-hosts its partition, and stamps the new epoch — then the thaw lets
// its heartbeat through again and it rejoins in a later epoch, after which it
// can commit transactions against its re-hosted (now remote) partition. The
// harness never tells anyone about the fault.
TEST_F(FailoverTest, FreezeSuspectRecoverRejoinCommitRoundTrip) {
  MembershipConfig mcfg;  // torture-harness defaults: 25us lease, 5us heartbeat
  mcfg.seed = 42;
  Build(/*nodes=*/3, /*keys_per_node=*/4, mcfg, /*join_lease_ns=*/mcfg.lease_ns);
  const uint64_t initial_epoch = coordinator_->view().epoch;

  // Freeze node 1 for far longer than the lease; the window is in virtual
  // time, which the gate keeps roughly common across membership threads.
  sim::FaultPlan plan(mcfg.seed);
  plan.Freeze(1, {40'000, 140'000});
  cluster_->SetFaultPlan(&plan);
  sim::TimeGate gate(/*window_ns=*/8'000);
  membership_->Start(gate);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    if (membership_->rejoins() >= 1 && membership_->recoveries() >= 1 &&
        coordinator_->view().Contains(1)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  membership_->Stop();
  cluster_->SetFaultPlan(nullptr);

  EXPECT_GE(membership_->suspicions(), 1u) << "freeze was never detected";
  EXPECT_GE(membership_->recoveries(), 1u);
  EXPECT_GE(membership_->rejoins(), 1u) << "victim never rejoined after the thaw";
  const ClusterView v = coordinator_->view();
  EXPECT_TRUE(v.Contains(1));
  EXPECT_EQ(v.members.size(), nodes_);
  // Remove + rejoin each bump the committed epoch at least once.
  EXPECT_GE(v.epoch, initial_epoch + 2);
  // The victim's partition moved to the next ring member and survived intact.
  EXPECT_EQ(pmap_->node_of(1), 2u);
  for (uint64_t i = 0; i < keys_per_node_; ++i) {
    EXPECT_EQ(ReadValue(1, i), kInitialBalance) << "re-hosted key " << i;
  }

  // The rejoined node is a first-class member again: it commits against its
  // re-hosted partition (remote now) and against an untouched one.
  sim::ThreadContext* rejoined = cluster_->node(1)->context(0);
  EXPECT_EQ(TryDeposit(rejoined, 1, 0, 250), Status::kOk);
  EXPECT_EQ(ReadValue(1, 0), kInitialBalance + 250);
  EXPECT_EQ(TryDeposit(rejoined, 0, 1, -30), Status::kOk);
  EXPECT_EQ(ReadValue(0, 1), kInitialBalance - 30);
}

}  // namespace
}  // namespace drtmr::cluster
