// Live shard migration (DESIGN.md §14): planned, zero-downtime re-hosting of
// a partition from its current owner to another live node, built on the same
// epoch-fence substrate the failure path uses (DESIGN.md §10).
//
// Protocol per partition:
//
//   1. Bulk copy. The destination pulls every record of the partition from
//      the source with one-sided RDMA READs (per-line version check for
//      consistency, seq-parity check under replication) and installs them
//      via InsertImage (freshest-wins), while the source keeps committing.
//      Passes repeat, each chasing the delta the previous pass missed, until
//      the delta is small.
//   2. Drain. The write-admission block (txn::MigrationBlock) opens: commits
//      that would write the moving partition — on either home, which matters
//      once the map flips — abort with kMigrating (callers retry with
//      jittered backoff); in-flight commits are drained via the
//      Node::EnterCommit counters. Reads keep flowing.
//   3. Final copy. With the source quiesced for writes, one more pass copies
//      the remaining delta; now source and destination agree — the dual-home
//      window, in which a read served by either home returns the newest
//      committed version.
//   4. Re-seed backups. The moved records' backup ring is re-seeded under
//      the destination's name, so a later failure of the destination cannot
//      strand them (mirrors recovery's cascaded-failover rule).
//   5. Cutover. The coordinator commits a new epoch, and the membership
//      service's install step (cluster::MembershipService::InstallEpoch, the
//      same one failover uses) installs it: the partition map entry flips to
//      (destination, new epoch) with one monotone CAS (a racing recovery with
//      a newer epoch wins and the migration rolls back); the new epoch is
//      stamped into every member's registered memory and the fabric's fence
//      raised, fencing transactions that began under the old placement;
//      in-flight commits are drained once more; then the write block closes.
//
// Fault tolerance: the source or destination failing mid-flight (a verb to
// either returns kUnavailable, or the view drops either) or losing the
// cutover CAS rolls the migration back cleanly — block closed, migrating flag
// cleared, destination-side copies left as freshest-wins debris unreachable
// through the partition map. Copies left on a node are harmless: a failover
// that later moves the partition there keeps it unroutable until recovery
// has overwritten them (cluster::PartitionMap's rehosting bit), and a
// partition in that state is refused here. A frozen coordinator driver
// merely stalls the epoch bump; the moving shard degrades to read-only
// (bounded kMigrating retries) rather than stalling the cluster, because the
// manager runs the install step itself and never waits on the membership
// driver.
//
// Pacing: the pump runs on the manager's one control clock, and callers
// spawn it as a TimeGate actor on context() next to the load. It syncs
// before every copy window and every retry record, so it never leads the
// slowest actor by more than the gate window plus one window's charges.
#ifndef DRTMR_SRC_REP_MIGRATION_H_
#define DRTMR_SRC_REP_MIGRATION_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/cluster/partition_map.h"
#include "src/rep/primary_backup.h"
#include "src/txn/txn_engine.h"

namespace drtmr::rep {

struct MigrationSpec {
  // Tables whose records move with a partition (hash tables only).
  std::vector<store::Table*> tables;
  // Maps a key to its partition (the workload's sharding function).
  std::function<uint32_t(uint64_t key)> partition_of;
  uint64_t seed = 1;
};

// Test instrumentation. on_dual_home fires inside the dual-home window:
// final copy done, backups re-seeded, cutover flip not yet published.
struct MigrationHooks {
  std::function<void()> on_dual_home;
};

struct MigrationReport {
  Status status = Status::kOk;  // kOk = cutover committed
  bool rolled_back = false;     // failure path completed cleanly
  uint32_t partition = 0;
  uint32_t source = 0;
  uint32_t destination = 0;
  uint64_t epoch = 0;  // epoch the cutover committed (0 if rolled back)
  uint64_t bulk_passes = 0;
  uint64_t records_copied = 0;  // records actually refreshed on the destination
  uint64_t backups_seeded = 0;
  uint64_t duration_ns = 0;  // virtual time on the control context
};

class MigrationManager {
 public:
  // `replicator` may be null (no replication: step 4 is skipped). `pmap`
  // must be the map `engine`'s membership service installs epochs on.
  // Registers its write-admission block with `engine`.
  MigrationManager(txn::TxnEngine* engine, PrimaryBackupReplicator* replicator,
                   cluster::Coordinator* coordinator, cluster::PartitionMap* pmap,
                   MigrationSpec spec);

  void set_hooks(MigrationHooks hooks) { hooks_ = std::move(hooks); }

  // Moves `partition` to `dst` (must be live and distinct from the current
  // owner). Blocking; run on context()'s clock, not a worker's. Returns kOk
  // on committed cutover; any other status means the migration rolled back
  // (or was refused) and the old placement still stands.
  MigrationReport MigratePartition(uint32_t partition, uint32_t dst);

  // Reconfiguration planner: the (partition, destination) moves that
  // rebalance ownership round-robin across nodes [0, active_nodes). Emits
  // only partitions whose current owner differs from the target. Scale-out
  // passes a larger active set than the current placement uses; scale-in a
  // smaller one.
  static std::vector<std::pair<uint32_t, uint32_t>> PlanRebalance(
      const cluster::PartitionMap& pmap, uint32_t active_nodes);

  txn::MigrationBlock* block() { return &block_; }

  // The control context every migration charges; spawn the pump on it.
  sim::ThreadContext* context() { return &ctx_; }

  uint64_t migrations_started() const { return started_; }
  uint64_t migrations_committed() const { return committed_; }
  uint64_t migrations_rolled_back() const { return rolled_back_; }

 private:
  // One bulk/delta/final copy pass over every spec table. `*refreshed`
  // counts records whose destination copy this pass updated. On the final
  // pass a record that never yields a clean image fails the pass (kConflict)
  // unless the destination already holds a copy at least as fresh.
  Status CopyPass(uint32_t partition, uint32_t src, uint32_t dst, bool final_pass,
                  uint64_t* refreshed);

  // Re-seeds the backup ring of every moved record under the destination's
  // name (primary = dst). No-op without replication.
  uint64_t ReseedBackups(uint32_t partition, uint32_t dst);

  // Rolls the drain window back: block closed, migrating flag cleared.
  void Rollback(uint32_t partition, MigrationReport* report, Status why);

  txn::TxnEngine* engine_;
  PrimaryBackupReplicator* replicator_;
  cluster::Coordinator* coordinator_;
  cluster::PartitionMap* pmap_;
  MigrationSpec spec_;
  MigrationHooks hooks_;
  txn::MigrationBlock block_;

  // The control context, labelled node 0, on the last worker slot (every
  // node's tool-context slot) so HTM descriptor indexing stays in range on
  // whichever destination it installs into. A private object: clock and RNG
  // are not shared with recovery, and HashStore::InsertImage (its one HTM
  // use) serializes it against recovery's use of the same slot.
  sim::ThreadContext ctx_;

  uint64_t started_ = 0;
  uint64_t committed_ = 0;
  uint64_t rolled_back_ = 0;
};

}  // namespace drtmr::rep

#endif  // DRTMR_SRC_REP_MIGRATION_H_
