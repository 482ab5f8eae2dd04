// Failover demo: 3-way replication, machine failures, and recovery — the §5
// machinery end to end, in two acts.
//
// Act 1 (scripted): machine 1 is killed and the demo itself removes it from
// the configuration and calls recovery by hand. Data written before the
// failure survives, the dead machine's partition is revived on a survivor,
// and new transactions keep running against the re-hosted records.
//
// Act 2 (automatic, DESIGN.md §10): a MembershipService is started and the
// machine now hosting those records is killed — and nobody is told. Lease
// heartbeats suspect it off virtual time, the driver fences the old epoch
// (stamped into each machine's registered memory), re-hosts from the backup
// copies recovery re-seeded in act 1, and the demo commits against the
// twice-migrated partition.
//
//   $ ./examples/failover_demo
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/cluster/coordinator.h"
#include "src/cluster/membership.h"
#include "src/cluster/partition_map.h"
#include "src/rep/primary_backup.h"
#include "src/rep/recovery.h"
#include "src/sim/time_gate.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"

using namespace drtmr;

struct Profile {
  uint64_t version;
  char name[40];
};

int main() {
  constexpr uint32_t kNodes = 4;
  cluster::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = 2;
  cfg.memory_bytes = 16 << 20;
  cfg.log_bytes = 4 << 20;
  cluster::Cluster cluster(cfg);
  store::Catalog catalog(&cluster);
  store::TableOptions opt;
  opt.value_size = sizeof(Profile);
  opt.hash_buckets = 256;
  store::Table* profiles = catalog.CreateTable(1, opt);

  cluster::Coordinator coordinator;
  for (uint32_t i = 0; i < kNodes; ++i) {
    coordinator.Join(i, 0, /*lease_ms=*/1u << 30);
  }
  rep::RepConfig rcfg;
  rcfg.replicas = 3;
  rep::PrimaryBackupReplicator replicator(&cluster, rcfg);
  txn::TxnConfig tcfg;
  tcfg.replication = true;
  tcfg.replicas = 3;
  txn::TxnEngine engine(&cluster, &catalog, tcfg, &coordinator, &replicator);
  engine.StartServices();

  // Write profiles hosted on machine 1 (backups land on machines 2 and 3).
  sim::ThreadContext* ctx = cluster.node(0)->context(0);
  txn::Transaction txn(&engine, ctx);
  for (uint64_t k = 1; k <= 5; ++k) {
    Profile p{};
    std::snprintf(p.name, sizeof(p.name), "user-%llu", (unsigned long long)k);
    txn.Begin();
    (void)txn.Insert(profiles, /*node=*/1, k, &p);  // buffered; Commit reports the outcome
    if (txn.Commit() != Status::kOk) {
      return 1;
    }
    // Seed the backups for the freshly inserted record (inserts go through
    // the store, not the write-set path; production loaders do the same).
    const uint64_t off = profiles->hash(1)->Lookup(nullptr, k);
    std::vector<std::byte> image(profiles->record_bytes());
    cluster.node(1)->bus()->Read(nullptr, off, image.data(), image.size());
    for (uint32_t r = 1; r < 3; ++r) {
      replicator.SeedBackup(cluster.BackupOf(1, r), 1, 1, k, image.data(), image.size());
    }
    // An update through the transactional path replicates via the NVM logs.
    while (true) {
      txn.Begin();
      Profile cur{};
      if (txn.Read(profiles, 1, k, &cur) != Status::kOk) {
        txn.UserAbort();
        continue;
      }
      cur.version = 7;
      (void)txn.Write(profiles, 1, k, &cur);  // key was just read: buffers, cannot fail
      if (txn.Commit() == Status::kOk) {
        break;
      }
    }
  }
  std::printf("wrote 5 replicated profiles on machine 1\n");

  // Fail machine 1 and recover its partition onto machine 2.
  cluster::PartitionMap pmap(kNodes);
  cluster.Kill(1);
  coordinator.Remove(1);
  std::printf("machine 1 failed (fail-stop); configuration epoch is now %llu\n",
              (unsigned long long)coordinator.epoch());
  rep::RecoveryManager rm(&engine, &replicator, &coordinator);
  const rep::RecoveryReport report =
      rm.RecoverAfterFailure(cluster.node(2)->tool_context(), /*dead=*/1, /*host=*/2, &pmap);
  std::printf("recovery: %llu records re-hosted on machine 2, %llu log entries drained\n",
              (unsigned long long)report.records_rehosted,
              (unsigned long long)report.log_entries_drained);

  // The data survived, with the committed update.
  txn::Transaction ro(&engine, cluster.node(3)->context(0));
  int survivors = 0;
  for (uint64_t k = 1; k <= 5; ++k) {
    ro.Begin(/*read_only=*/true);
    Profile p{};
    if (ro.Read(profiles, /*node=*/2, k, &p) == Status::kOk && ro.Commit() == Status::kOk &&
        p.version == 7) {
      survivors++;
      std::printf("  %s survived (version %llu)\n", p.name, (unsigned long long)p.version);
    }
  }
  // And the re-hosted partition accepts new transactions.
  txn::Transaction w(&engine, cluster.node(0)->context(1));
  while (true) {
    w.Begin();
    Profile p{};
    if (w.Read(profiles, 2, 3, &p) != Status::kOk) {
      w.UserAbort();
      continue;
    }
    p.version = 8;
    (void)w.Write(profiles, 2, 3, &p);  // key was just read: buffers, cannot fail
    if (w.Commit() == Status::kOk) {
      break;
    }
  }
  std::printf("post-failure update committed on the re-hosted partition\n");

  // ---- Act 2: kill the host of the re-hosted records; tell no one. ----
  std::printf("\n-- act 2: automatic failover (no scripted Remove/recovery) --\n");
  cluster::MembershipConfig mcfg;  // 25us leases, 5us heartbeats (virtual)
  sim::TimeGate gate(/*window_ns=*/8'000);
  cluster::MembershipService membership(&cluster, &coordinator, &pmap, mcfg);
  membership.set_recovery_fn([&](uint32_t dead, uint32_t host) {
    const rep::RecoveryReport r = rm.RecoverAfterFailure(
        cluster.node(host)->tool_context(), dead, host, /*pmap=*/nullptr);
    std::printf("  auto-recovery: %llu records re-hosted on machine %u\n",
                (unsigned long long)r.records_rehosted, host);
  });
  engine.set_membership(&membership);
  membership.Start(gate);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // leases active

  cluster.Kill(2);  // the machine the profiles migrated to in act 1
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline &&
         (membership.recoveries() < 1 || coordinator.view().Contains(2))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  membership.Stop();
  const bool detected = membership.suspicions() >= 1 && membership.recoveries() >= 1 &&
                        !coordinator.view().Contains(2);
  std::printf("machine 2 failed; heartbeats suspected it on their own "
              "(%llu suspicion(s), epoch now %llu)\n",
              (unsigned long long)membership.suspicions(),
              (unsigned long long)coordinator.epoch());
  for (uint32_t n = 0; n < kNodes; ++n) {
    std::printf("  machine %u registered epoch word: %llu%s\n", n,
                (unsigned long long)cluster.fabric()->epoch_word(n),
                cluster.fabric()->epoch_word(n) < coordinator.epoch() ? "  (fenced out)" : "");
  }

  // The records moved a second time — the re-seeded backup ring from act 1's
  // recovery is what makes the cascaded failover lossless.
  const uint32_t home = pmap.node_of(1);
  int survivors2 = 0;
  for (uint64_t k = 1; k <= 5; ++k) {
    ro.Begin(/*read_only=*/true);
    Profile p{};
    if (ro.Read(profiles, home, k, &p) == Status::kOk && ro.Commit() == Status::kOk &&
        p.version >= 7) {
      survivors2++;
    }
  }
  std::printf("%d/5 profiles survived the second failure (now on machine %u)\n", survivors2,
              home);
  while (true) {
    w.Begin();
    Profile p{};
    if (w.Read(profiles, home, 3, &p) != Status::kOk) {
      w.UserAbort();
      continue;
    }
    p.version = 9;
    (void)w.Write(profiles, home, 3, &p);  // key was just read: buffers, cannot fail
    if (w.Commit() == Status::kOk) {
      break;
    }
  }
  std::printf("post-failure update committed against the twice-migrated partition\n");

  engine.StopServices();
  const bool ok = survivors == 5 && survivors2 == 5 && detected;
  std::printf(ok ? "FAILOVER OK: no committed data lost, no oracle needed\n"
                 : "FAILOVER INCOMPLETE: act1 %d/5, act2 %d/5, detected=%d\n",
              survivors, survivors2, (int)detected);
  return ok ? 0 : 1;
}
