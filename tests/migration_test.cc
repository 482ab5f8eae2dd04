// Live shard migration (DESIGN.md §14): the catch-up pump, the dual-home
// property, cutover fencing, and the mid-flight fault battery — source
// killed, destination killed, coordinator driver frozen, and a racing
// reconfiguration winning the cutover CAS. Every failure must either
// complete the migration or roll it back cleanly: write admission restored,
// routing flag cleared, the old placement intact, and no decided update
// lost. Plus the torture-harness integration (migrate mode) and unit tests
// for the packed epoch-routing partition map and the rebalance planner.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/chk/torture.h"
#include "src/cluster/membership.h"
#include "src/cluster/partition_map.h"
#include "src/rep/migration.h"
#include "src/rep/primary_backup.h"
#include "src/rep/recovery.h"
#include "src/store/record.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"

namespace drtmr::rep {
namespace {

using store::RecordLayout;

struct Cell {
  int64_t value;
  uint64_t pad[6];
};

constexpr uint32_t kTableId = 1;
constexpr int64_t kInitialBalance = 1000;

uint64_t KeyOf(uint32_t part, uint64_t i) {
  return (static_cast<uint64_t>(part) << 16) | (i + 1);
}

uint32_t PartitionOf(uint64_t key) { return static_cast<uint32_t>(key >> 16); }

class MigrationTest : public ::testing::Test {
 protected:
  void Build(uint32_t nodes, uint64_t keys_per_node) {
    nodes_ = nodes;
    keys_per_node_ = keys_per_node;
    cfg_.num_nodes = nodes;
    cfg_.workers_per_node = 2;
    cfg_.memory_bytes = 16 << 20;
    cfg_.log_bytes = 4 << 20;
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    store::TableOptions topt;
    topt.value_size = sizeof(Cell);
    topt.hash_buckets = 256;
    table_ = catalog_->CreateTable(kTableId, topt);
    coordinator_ = std::make_unique<cluster::Coordinator>();
    for (uint32_t i = 0; i < nodes; ++i) {
      coordinator_->Join(i, 0, /*lease_ns=*/~0ull >> 2);
    }
    rep::RepConfig rcfg;
    rcfg.replicas = 3;
    replicator_ = std::make_unique<PrimaryBackupReplicator>(cluster_.get(), rcfg);
    txn::TxnConfig tcfg;
    tcfg.replication = true;
    engine_ = std::make_unique<txn::TxnEngine>(cluster_.get(), catalog_.get(), tcfg,
                                               coordinator_.get(), replicator_.get());
    engine_->StartServices();
    pmap_ = std::make_unique<cluster::PartitionMap>(nodes);
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
    recovery_ = std::make_unique<RecoveryManager>(engine_.get(), replicator_.get(),
                                                  coordinator_.get());
    cluster::MembershipConfig mcfg;
    mcfg.lease_ns = 1'000'000'000;  // commit admission never lease-bounces
    membership_ = std::make_unique<cluster::MembershipService>(cluster_.get(),
                                                               coordinator_.get(), pmap_.get(),
                                                               mcfg);
    membership_->set_recovery_fn([this](uint32_t dead, uint32_t host) {
      recovery_->RecoverAfterFailure(cluster_->node(host)->tool_context(), dead, host,
                                     /*pmap=*/nullptr);
    });
    engine_->set_membership(membership_.get());
    // Armed, never started: epoch fencing is live but no driver thread runs —
    // exactly the "frozen coordinator driver" regime. The migration manager
    // must make progress on its own (it stamps epochs itself).
    membership_->Arm();

    MigrationSpec spec;
    spec.tables = {table_};
    spec.partition_of = PartitionOf;
    spec.seed = 7;
    migrator_ = std::make_unique<MigrationManager>(engine_.get(), replicator_.get(),
                                                   coordinator_.get(), pmap_.get(), spec);
  }

  ~MigrationTest() override {
    if (membership_ != nullptr) {
      membership_->Stop();
    }
    if (engine_ != nullptr) {
      engine_->StopServices();
    }
  }

  // Direct (non-transactional) read of `part`/`i` from node `home`'s store.
  // Returns false if the home holds no copy.
  bool ReadCopy(uint32_t home, uint32_t part, uint64_t i, Cell* out, uint64_t* seq) {
    const uint64_t off = table_->hash(home)->Lookup(nullptr, KeyOf(part, i));
    if (off == store::HashStore::kNoRecord) {
      return false;
    }
    std::vector<std::byte> rec(table_->record_bytes());
    cluster_->node(home)->bus()->Read(nullptr, off, rec.data(), rec.size());
    RecordLayout::GatherValue(rec.data(), out, sizeof(*out));
    *seq = store::SeqWord::Value(RecordLayout::GetSeq(rec.data()));
    return true;
  }

  int64_t ReadValue(uint32_t part, uint64_t i) {
    Cell c{};
    uint64_t seq = 0;
    EXPECT_TRUE(ReadCopy(pmap_->node_of(part), part, i, &c, &seq));
    return c.value;
  }

  // One deposit attempt routed through the partition map; returns the first
  // failing step's status or the Commit status.
  Status TryDeposit(sim::ThreadContext* ctx, uint32_t part, uint64_t i, int64_t delta) {
    txn::Transaction txn(engine_.get(), ctx);
    txn.Begin();
    uint32_t home = 0;
    if (Status s = pmap_->Route(part, txn.begin_epoch(), /*for_write=*/true, &home);
        s != Status::kOk) {
      txn.UserAbort();
      return s;
    }
    Cell v{};
    if (Status s = txn.Read(table_, home, KeyOf(part, i), &v); s != Status::kOk) {
      txn.UserAbort();
      return s;
    }
    v.value += delta;
    if (Status s = txn.Write(table_, home, KeyOf(part, i), &v); s != Status::kOk) {
      txn.UserAbort();
      return s;
    }
    return txn.Commit();
  }

  // Deposit with retry-until-commit; returns the number of committed deposits
  // (0 or 1). Used by the load threads, which must survive kMigrating and
  // kStaleEpoch aborts across the cutover.
  uint64_t DepositRetry(sim::ThreadContext* ctx, uint32_t part, uint64_t i, int64_t delta,
                        uint32_t max_attempts = 400) {
    for (uint32_t a = 0; a < max_attempts; ++a) {
      const Status s = TryDeposit(ctx, part, i, delta);
      if (s == Status::kOk) {
        return 1;
      }
      ctx->Charge(200 + 100 * a);
    }
    return 0;
  }

  uint32_t nodes_ = 0;
  uint64_t keys_per_node_ = 0;
  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  store::Table* table_ = nullptr;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<PrimaryBackupReplicator> replicator_;
  std::unique_ptr<txn::TxnEngine> engine_;
  std::unique_ptr<cluster::PartitionMap> pmap_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<cluster::MembershipService> membership_;
  std::unique_ptr<MigrationManager> migrator_;
};

// The packed (epoch, migrating, owner) word and its routing contract
// (satellite of DESIGN.md §14): stale routers bounce, writers bounce off a
// draining partition, and the cutover CAS is monotone in the epoch.
TEST(PartitionMapRoutingTest, EpochRoutingAndMonotoneRehost) {
  cluster::PartitionMap pmap(4);
  uint32_t owner = ~0u;
  EXPECT_EQ(pmap.Route(1, /*begin_epoch=*/0, /*for_write=*/true, &owner), Status::kOk);
  EXPECT_EQ(owner, 1u);

  // Flip partition 1 to node 3 under epoch 5: routers that began before the
  // flip are stale (reads and writes both — their placement snapshot is gone).
  EXPECT_TRUE(pmap.Rehost(1, 3, 5));
  EXPECT_EQ(pmap.node_of(1), 3u);
  EXPECT_EQ(pmap.entry_epoch(1), 5u);
  EXPECT_EQ(pmap.Route(1, 0, true, &owner), Status::kStaleEpoch);
  EXPECT_EQ(pmap.Route(1, 0, false, &owner), Status::kStaleEpoch);
  EXPECT_EQ(pmap.Route(1, 5, true, &owner), Status::kOk);
  EXPECT_EQ(owner, 3u);
  // Legacy non-fenced callers accept any entry.
  EXPECT_EQ(pmap.Route(1, ~0ull, true, &owner), Status::kOk);

  // A draining partition refuses writers but keeps serving readers.
  pmap.SetMigrating(1, true);
  EXPECT_TRUE(pmap.migrating(1));
  EXPECT_EQ(pmap.Route(1, 5, true, &owner), Status::kMigrating);
  EXPECT_EQ(pmap.Route(1, 5, false, &owner), Status::kOk);

  // The cutover CAS is monotone: an older epoch loses and changes nothing; a
  // newer epoch wins and clears the migrating flag with the same CAS.
  EXPECT_FALSE(pmap.Rehost(1, 0, 4));
  EXPECT_EQ(pmap.node_of(1), 3u);
  EXPECT_TRUE(pmap.migrating(1));
  EXPECT_TRUE(pmap.Rehost(1, 0, 6));
  EXPECT_EQ(pmap.node_of(1), 0u);
  EXPECT_FALSE(pmap.migrating(1));
}

TEST(PartitionMapRoutingTest, PlanRebalanceRoundRobin) {
  cluster::PartitionMap pmap(6);
  // Scale-in placement: all six partitions packed onto nodes 0-2.
  for (uint32_t p = 3; p < 6; ++p) {
    ASSERT_TRUE(pmap.Rehost(p, p % 3, 1));
  }
  EXPECT_TRUE(MigrationManager::PlanRebalance(pmap, 3).empty());
  const auto out = MigrationManager::PlanRebalance(pmap, 6);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& [part, dst] : out) {
    EXPECT_GE(part, 3u);
    EXPECT_EQ(dst, part);
  }
}

// Full pump under live write load: two deposit threads keep committing into
// the moving partition (and a control partition) while it migrates. The
// cutover must commit, route writes to the new home, and lose none of the
// decided deposits.
TEST_F(MigrationTest, LiveMigrationUnderLoadLosesNothing) {
  Build(/*nodes=*/3, /*keys_per_node=*/8);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed[2] = {{0}, {0}};
  std::vector<std::thread> load;
  for (uint32_t t = 0; t < 2; ++t) {
    load.emplace_back([&, t] {
      sim::ThreadContext* ctx = cluster_->node(t)->context(0);
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Alternate between the moving partition (1) and a control (0).
        const uint32_t part = (i & 1) != 0 ? 1u : 0u;
        committed[t] += DepositRetry(ctx, part, (i / 2) % keys_per_node_, 1);
        ++i;
      }
    });
  }

  const MigrationReport r = migrator_->MigratePartition(1, 2);
  stop.store(true);
  for (auto& th : load) {
    th.join();
  }

  EXPECT_EQ(r.status, Status::kOk) << StatusString(r.status);
  EXPECT_FALSE(r.rolled_back);
  EXPECT_EQ(r.source, 1u);
  EXPECT_EQ(r.destination, 2u);
  EXPECT_GE(r.records_copied, keys_per_node_);
  EXPECT_EQ(r.backups_seeded, keys_per_node_ * 2);  // replicas=3 → 2 ring copies
  EXPECT_EQ(pmap_->node_of(1), 2u);
  EXPECT_FALSE(pmap_->migrating(1));
  EXPECT_GT(pmap_->entry_epoch(1), 0u);
  EXPECT_FALSE(migrator_->block()->active());

  // Post-cutover writes land on the new home and commit.
  EXPECT_EQ(TryDeposit(cluster_->node(0)->context(1), 1, 0, 5), Status::kOk);

  // No decided deposit lost: the primaries' totals account for every commit
  // the load threads (and the probe) got an OK for.
  int64_t total = 0;
  for (uint32_t p = 0; p < nodes_; ++p) {
    for (uint64_t i = 0; i < keys_per_node_; ++i) {
      total += ReadValue(p, i);
    }
  }
  const int64_t expected = static_cast<int64_t>(nodes_ * keys_per_node_) * kInitialBalance +
                           static_cast<int64_t>(committed[0] + committed[1]) + 5;
  EXPECT_EQ(total, expected);
}

// The dual-home property (seeded): inside the window — final copy done,
// cutover not yet published — a read from either home returns the newest
// committed version of every record: identical seq, identical value.
TEST_F(MigrationTest, DualHomeWindowServesNewestFromEitherHome) {
  Build(/*nodes=*/3, /*keys_per_node=*/8);
  // Commit a few deposits first so the copied images carry post-load seqs.
  for (uint64_t i = 0; i < keys_per_node_; ++i) {
    ASSERT_EQ(DepositRetry(cluster_->node(0)->context(0), 1, i, 3), 1u);
  }

  bool hook_ran = false;
  MigrationHooks hooks;
  hooks.on_dual_home = [&] {
    hook_ran = true;
    for (uint64_t i = 0; i < keys_per_node_; ++i) {
      Cell src_c{}, dst_c{};
      uint64_t src_seq = 0, dst_seq = 0;
      ASSERT_TRUE(ReadCopy(1, 1, i, &src_c, &src_seq)) << "source copy of key " << i;
      ASSERT_TRUE(ReadCopy(2, 1, i, &dst_c, &dst_seq)) << "destination copy of key " << i;
      EXPECT_EQ(src_seq, dst_seq) << "key " << i;
      EXPECT_EQ(src_c.value, dst_c.value) << "key " << i;
      EXPECT_EQ(src_c.value, kInitialBalance + 3) << "key " << i;
    }
    // Writers are drained (read-only degradation on the moving shard)…
    EXPECT_EQ(TryDeposit(cluster_->node(0)->context(1), 1, 0, 1), Status::kMigrating);
    // …but reads keep committing through the transaction layer.
    txn::Transaction ro(engine_.get(), cluster_->node(0)->context(1));
    ro.Begin(/*read_only=*/true);
    Cell v{};
    ASSERT_EQ(ro.Read(table_, pmap_->node_of(1), KeyOf(1, 0), &v), Status::kOk);
    EXPECT_EQ(ro.Commit(), Status::kOk);
    EXPECT_EQ(v.value, kInitialBalance + 3);
  };
  migrator_->set_hooks(hooks);

  const MigrationReport r = migrator_->MigratePartition(1, 2);
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(r.status, Status::kOk) << StatusString(r.status);
  EXPECT_EQ(pmap_->node_of(1), 2u);
}

// Source dies inside the dual-home window: the migration must roll back
// cleanly — write admission restored, routing flag cleared, old placement
// standing — and the survivors' partitions keep serving.
TEST_F(MigrationTest, SourceKilledMidFlightRollsBack) {
  Build(/*nodes=*/3, /*keys_per_node=*/6);
  MigrationHooks hooks;
  hooks.on_dual_home = [&] {
    cluster_->Kill(1);
    coordinator_->Remove(1);  // announced, as the membership layer would
  };
  migrator_->set_hooks(hooks);

  const MigrationReport r = migrator_->MigratePartition(1, 2);
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_TRUE(r.rolled_back);
  EXPECT_EQ(pmap_->node_of(1), 1u);  // old placement stands
  EXPECT_FALSE(pmap_->migrating(1));
  EXPECT_FALSE(migrator_->block()->active());
  EXPECT_EQ(migrator_->migrations_rolled_back(), 1u);

  // Formalize the failure the way the membership layer would, then prove no
  // decided update was lost: recovery re-hosts the dead source's partition
  // from its backups and the survivors commit against it.
  coordinator_->Remove(1);
  membership_->TickDriver();
  EXPECT_NE(pmap_->node_of(1), 1u);
  EXPECT_EQ(TryDeposit(cluster_->node(0)->context(0), 1, 0, 7), Status::kOk);
  EXPECT_EQ(ReadValue(1, 0), kInitialBalance + 7);
  EXPECT_EQ(TryDeposit(cluster_->node(0)->context(0), 0, 0, 7), Status::kOk);
}

// Destination dies inside the dual-home window: same clean rollback, and the
// SOURCE keeps full read-write service — the moving shard was only ever
// write-drained, never lost.
TEST_F(MigrationTest, DestinationKilledMidFlightRollsBack) {
  Build(/*nodes=*/3, /*keys_per_node=*/6);
  MigrationHooks hooks;
  hooks.on_dual_home = [&] {
    cluster_->Kill(2);
    coordinator_->Remove(2);  // announced, as the membership layer would
  };
  migrator_->set_hooks(hooks);

  const MigrationReport r = migrator_->MigratePartition(1, 2);
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_TRUE(r.rolled_back);
  EXPECT_EQ(pmap_->node_of(1), 1u);
  EXPECT_FALSE(pmap_->migrating(1));
  EXPECT_FALSE(migrator_->block()->active());

  coordinator_->Remove(2);
  membership_->TickDriver();
  EXPECT_EQ(pmap_->node_of(1), 1u);  // untouched by the dead destination
  EXPECT_EQ(TryDeposit(cluster_->node(0)->context(0), 1, 0, 9), Status::kOk);
  EXPECT_EQ(ReadValue(1, 0), kInitialBalance + 9);
}

// A concurrent reconfiguration (e.g. failure recovery) winning the cutover
// CAS with a newer epoch supersedes the migration: it must notice the lost
// flip and roll back rather than publish a stale placement.
TEST_F(MigrationTest, LostCutoverRaceRollsBack) {
  Build(/*nodes=*/3, /*keys_per_node=*/4);
  MigrationHooks hooks;
  hooks.on_dual_home = [&] {
    // Simulate a racing view change that re-hosted the partition under a
    // far-newer epoch before our flip.
    ASSERT_TRUE(pmap_->Rehost(1, 0, coordinator_->epoch() + 100));
  };
  migrator_->set_hooks(hooks);

  const MigrationReport r = migrator_->MigratePartition(1, 2);
  EXPECT_EQ(r.status, Status::kConflict);
  EXPECT_TRUE(r.rolled_back);
  EXPECT_EQ(pmap_->node_of(1), 0u);  // the racing winner's placement stands
  EXPECT_FALSE(migrator_->block()->active());
}

// Refusal guards: no epoch fencing, self-moves, already-migrating, and dead
// endpoints are rejected up front (kInvalid) without opening a drain window.
TEST_F(MigrationTest, RefusesUnsafeOrNonsensicalMoves) {
  Build(/*nodes=*/3, /*keys_per_node=*/2);
  EXPECT_EQ(migrator_->MigratePartition(1, 1).status, Status::kInvalid);  // self-move
  pmap_->SetMigrating(2, true);
  EXPECT_EQ(migrator_->MigratePartition(2, 0).status, Status::kInvalid);  // already moving
  pmap_->SetMigrating(2, false);
  cluster_->Kill(0);
  coordinator_->Remove(0);  // announced, as the membership layer would
  EXPECT_EQ(migrator_->MigratePartition(2, 0).status, Status::kInvalid);  // dead destination
  EXPECT_EQ(migrator_->MigratePartition(0, 2).status, Status::kInvalid);  // dead source
  EXPECT_EQ(migrator_->migrations_started(), 0u);
  EXPECT_FALSE(migrator_->block()->active());
}

// Torture-harness integration: migrate mode drives at least one live
// migration per seed under the full no-oracle substrate, and the run still
// passes the serializability checker and every quiescence oracle. Odd seeds
// migrate the partition back, so both directions get coverage.
TEST(MigrationTortureTest, MigrateModeSeedsCommitAndStayClean) {
  for (const uint64_t seed : {2ull, 3ull}) {
    chk::TortureOptions opt;
    opt.shape.nodes = 3;
    opt.shape.workers = 2;
    opt.shape.replicas = 3;
    opt.shape.keys_per_node = 8;
    opt.shape.txns_per_worker = 80;
    opt.seed = seed;
    opt.plan_kind = chk::TorturePlanKind::kClean;
    opt.no_oracle = true;
    opt.migrate = true;
    const chk::TortureResult r = chk::RunTorture(opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << "\n" << r.Summary();
    EXPECT_GE(r.migrations, 1u) << "seed " << seed;
    EXPECT_GE(r.migrations_committed, 1u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace drtmr::rep
