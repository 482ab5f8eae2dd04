// Live shard migration (DESIGN.md §14): the catch-up pump, the dual-home
// property, cutover fencing, and the mid-flight fault battery — source
// killed, destination killed, coordinator driver frozen, and a racing
// reconfiguration winning the cutover CAS. Every failure must either
// complete the migration or roll it back cleanly: write admission restored,
// routing flag cleared, the old placement intact, and no decided update
// lost. Plus the torture-harness integration (migrate mode) and unit tests
// for the packed epoch-routing partition map and the rebalance planner.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "src/sim/time_gate.h"
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
  void Build(uint32_t nodes, uint64_t keys_per_node, uint64_t hash_buckets = 256) {
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
    topt.hash_buckets = hash_buckets;
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

// A failover's flip leaves the partition unroutable, to readers and writers
// alike, until FinishRehost; a newer flip that replaced it is left alone.
TEST(PartitionMapRoutingTest, FailoverFlipIsUnroutableUntilRehosted) {
  cluster::PartitionMap pmap(4);
  uint32_t owner = ~0u;
  EXPECT_TRUE(pmap.Apply({{1, 2}, {3, 2}}, /*epoch=*/5, /*rehosting=*/true));
  EXPECT_TRUE(pmap.rehosting(1));
  EXPECT_EQ(pmap.node_of(1), 2u);
  EXPECT_EQ(pmap.entry_epoch(1), 5u);
  EXPECT_EQ(pmap.Route(1, 5, /*for_write=*/true, &owner), Status::kUnavailable);
  EXPECT_EQ(pmap.Route(1, 5, /*for_write=*/false, &owner), Status::kUnavailable);
  EXPECT_EQ(pmap.Route(1, 4, false, &owner), Status::kStaleEpoch);
  pmap.SetMigrating(1, true);  // keeps the rehosting bit
  pmap.SetMigrating(1, false);
  EXPECT_TRUE(pmap.rehosting(1));

  EXPECT_TRUE(pmap.Rehost(3, 0, 6));  // a newer reconfiguration moves 3 on
  pmap.FinishRehost({{1, 2}, {3, 2}}, 5);
  EXPECT_FALSE(pmap.rehosting(1));
  EXPECT_EQ(pmap.Route(1, 5, true, &owner), Status::kOk);
  EXPECT_EQ(owner, 2u);
  EXPECT_EQ(pmap.node_of(3), 0u);
  EXPECT_EQ(pmap.entry_epoch(3), 6u);
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

// The pump as a TimeGate actor: two load actors keep depositing into the
// moving partition (and a control one) while the migration actor, under the
// same gate, moves it. The cutover commits, no decided deposit is lost, and
// at the dual-home hook the pump's clock leads the slowest load actor by at
// most the gate window plus what it charged since its last Sync.
TEST_F(MigrationTest, GatedPumpStaysWithinTheWindowOfTheLoad) {
  // 4096 records of 128 bytes: each pass pulls two 256 KiB copy windows.
  Build(/*nodes=*/3, /*keys_per_node=*/4096, /*hash_buckets=*/4096);
  constexpr uint64_t kWindowNs = 8'000;
  // One copy window: 256 KiB of extent READs at 7 GB/s (~37 us), their
  // latency and fence, and the installs of the records it refreshed.
  constexpr uint64_t kCopyWindowChargeNs = 60'000;
  sim::ThreadContext* load_ctx[2] = {cluster_->node(0)->context(0),
                                     cluster_->node(1)->context(0)};
  sim::ThreadContext* pump_ctx = migrator_->context();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed[2] = {{0}, {0}};
  uint64_t lead_ns = ~0ull;
  MigrationHooks hooks;
  hooks.on_dual_home = [&] {
    const uint64_t slowest =
        std::min(load_ctx[0]->clock.now_ns(), load_ctx[1]->clock.now_ns());
    const uint64_t pump = pump_ctx->clock.now_ns();
    lead_ns = pump > slowest ? pump - slowest : 0;
  };
  migrator_->set_hooks(hooks);

  MigrationReport r;
  sim::TimeGate gate(kWindowNs);
  {
    std::vector<sim::TimeGate::Actor> actors;
    const sim::TimeGate::Hold hold(&gate);
    actors.push_back(gate.Spawn(pump_ctx, [&] {
      // Launch once the load is 100 us of virtual time in (loading the
      // tables left the load clocks past zero).
      pump_ctx->clock.AdvanceTo(
          std::max(load_ctx[0]->clock.now_ns(), load_ctx[1]->clock.now_ns()) + 100'000);
      sim::TimeGate::Sync(&pump_ctx->clock);
      r = migrator_->MigratePartition(1, 2);
      stop.store(true);
    }));
    for (uint32_t t = 0; t < 2; ++t) {
      actors.push_back(gate.Spawn(load_ctx[t], [&, t] {
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const uint32_t part = (i & 1) != 0 ? 1u : 0u;
          committed[t] += DepositRetry(load_ctx[t], part, (i / 2) % keys_per_node_, 1);
        }
      }));
    }
  }  // the hold lifts, then every actor joins

  EXPECT_EQ(r.status, Status::kOk) << StatusString(r.status);
  EXPECT_EQ(pmap_->node_of(1), 2u);
  EXPECT_FALSE(migrator_->block()->active());
  EXPECT_LE(lead_ns, kWindowNs + kCopyWindowChargeNs);
  EXPECT_GT(committed[0] + committed[1], 0u);

  int64_t total = 0;
  for (uint32_t p = 0; p < nodes_; ++p) {
    for (uint64_t i = 0; i < keys_per_node_; ++i) {
      total += ReadValue(p, i);
    }
  }
  EXPECT_EQ(total, static_cast<int64_t>(nodes_ * keys_per_node_) * kInitialBalance +
                       static_cast<int64_t>(committed[0] + committed[1]));
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

// The new home dies after a committed cutover, and the failover re-hosts
// the partition onto its ring successor, which is the old source. The map
// flips before recovery re-hosts the records, so in between the partition
// must stay unroutable: a commit on one of the source's pre-migration copies
// would lose every update made since the cutover.
TEST_F(MigrationTest, FailoverOntoTheOldSourceFindsNoStaleCopy) {
  Build(/*nodes=*/3, /*keys_per_node=*/4);
  sim::ThreadContext* ctx = cluster_->node(1)->context(0);
  // Node 1 caches the record's location on node 0 before the move.
  ASSERT_EQ(TryDeposit(ctx, 0, 0, 2), Status::kOk);
  ASSERT_EQ(migrator_->MigratePartition(0, 2).status, Status::kOk);
  ASSERT_EQ(TryDeposit(ctx, 0, 0, 3), Status::kOk);

  Status between = Status::kOk;
  membership_->set_recovery_fn([&](uint32_t dead, uint32_t host) {
    EXPECT_EQ(host, 0u);               // node 2's successor wraps to node 0
    EXPECT_EQ(pmap_->node_of(0), 0u);  // flipped, not yet re-hosted
    between = TryDeposit(ctx, 0, 0, 1);
    recovery_->RecoverAfterFailure(cluster_->node(host)->tool_context(), dead, host,
                                   /*pmap=*/nullptr);
  });
  cluster_->Kill(2);
  coordinator_->Remove(2);
  membership_->TickDriver();

  EXPECT_EQ(between, Status::kUnavailable) << "a deposit was routed to a pre-migration copy";
  EXPECT_FALSE(pmap_->rehosting(0));
  EXPECT_EQ(TryDeposit(ctx, 0, 0, 7), Status::kOk);
  EXPECT_EQ(ReadValue(0, 0), kInitialBalance + 2 + 3 + 7);
}

// The same hole from the other side: node 2 holds stale copies of partition
// 1, as a move of it to node 2 that rolled back leaves behind, and the
// owner, node 1, dies with node 2 as its ring successor. Until recovery has
// re-hosted the records, the partition serves neither reads nor writes.
TEST_F(MigrationTest, FailoverOntoStaleCopiesWaitsForTheRehost) {
  Build(/*nodes=*/3, /*keys_per_node=*/4);
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  std::vector<std::byte> img(table_->record_bytes());
  for (uint64_t i = 0; i < keys_per_node_; ++i) {
    const uint64_t off = table_->hash(1)->Lookup(nullptr, KeyOf(1, i));
    cluster_->node(1)->bus()->Read(nullptr, off, img.data(), img.size());
    ASSERT_EQ(table_->hash(2)->InsertImage(migrator_->context(), KeyOf(1, i), img.data(),
                                           img.size()),
              Status::kOk);
  }
  ASSERT_EQ(TryDeposit(ctx, 1, 0, 5), Status::kOk);  // node 2's copy is now stale

  Status write_between = Status::kOk;
  Status read_between = Status::kOk;
  membership_->set_recovery_fn([&](uint32_t dead, uint32_t host) {
    EXPECT_EQ(host, 2u);
    EXPECT_EQ(pmap_->node_of(1), 2u);  // flipped, not yet re-hosted
    write_between = TryDeposit(ctx, 1, 0, 1);
    txn::Transaction txn(engine_.get(), ctx);
    txn.Begin(/*read_only=*/true);
    uint32_t home = 0;
    read_between = pmap_->Route(1, txn.begin_epoch(), /*for_write=*/false, &home);
    txn.UserAbort();
    recovery_->RecoverAfterFailure(cluster_->node(host)->tool_context(), dead, host,
                                   /*pmap=*/nullptr);
  });
  cluster_->Kill(1);
  coordinator_->Remove(1);
  membership_->TickDriver();

  EXPECT_EQ(write_between, Status::kUnavailable);
  EXPECT_EQ(read_between, Status::kUnavailable);
  EXPECT_EQ(TryDeposit(ctx, 1, 0, 7), Status::kOk);
  EXPECT_EQ(ReadValue(1, 0), kInitialBalance + 5 + 7);
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

// Refusal guards: no epoch fencing, self-moves, already-migrating, still
// re-hosting after a failover, and dead endpoints are rejected up front
// (kInvalid) without opening a drain window.
TEST_F(MigrationTest, RefusesUnsafeOrNonsensicalMoves) {
  Build(/*nodes=*/3, /*keys_per_node=*/2);
  EXPECT_EQ(migrator_->MigratePartition(1, 1).status, Status::kInvalid);  // self-move
  pmap_->SetMigrating(2, true);
  EXPECT_EQ(migrator_->MigratePartition(2, 0).status, Status::kInvalid);  // already moving
  pmap_->SetMigrating(2, false);
  ASSERT_TRUE(pmap_->Apply({{2, 2}}, coordinator_->epoch(), /*rehosting=*/true));
  EXPECT_EQ(migrator_->MigratePartition(2, 0).status, Status::kInvalid);  // re-hosting
  pmap_->FinishRehost({{2, 2}}, coordinator_->epoch());
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
