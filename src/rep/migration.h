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
//   5. Cutover. The coordinator commits a new epoch; the partition map entry
//      flips to (destination, new epoch) with one monotone CAS (a racing
//      recovery with a newer epoch wins and the migration rolls back); the
//      new epoch is stamped into every member's registered memory, fencing
//      transactions that began under the old placement; in-flight commits
//      are drained once more; then the write block closes.
//
// Fault tolerance: the source or destination dying mid-flight (reads return
// kUnavailable / killed() observed at pass boundaries) or losing the cutover
// CAS rolls the migration back cleanly — block closed, migrating flag
// cleared, destination-side copies left as harmless freshest-wins debris
// unreachable through the partition map. A frozen coordinator driver merely
// stalls the epoch bump; the moving shard degrades to read-only (bounded
// kMigrating retries) rather than stalling the cluster, because the manager
// stamps epochs itself and never waits on the membership driver thread.
#ifndef DRTMR_SRC_REP_MIGRATION_H_
#define DRTMR_SRC_REP_MIGRATION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
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
  uint64_t duration_ns = 0;  // virtual time on the migration context
};

class MigrationManager {
 public:
  // `replicator` may be null (no replication: step 4 is skipped).
  // Registers its write-admission block with `engine`.
  MigrationManager(txn::TxnEngine* engine, PrimaryBackupReplicator* replicator,
                   cluster::Coordinator* coordinator, cluster::PartitionMap* pmap,
                   MigrationSpec spec);

  void set_hooks(MigrationHooks hooks) { hooks_ = std::move(hooks); }

  // Moves `partition` to `dst` (must be live and distinct from the current
  // owner). Blocking; run from a control thread, not a worker. Returns kOk
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

  // Monotone raise of every current member's epoch word to `epoch` (direct
  // bus CAS, same mechanism as the membership driver). No-op when fabric
  // fencing is off.
  void StampMembers(uint64_t epoch);

  // Spins until no node has an in-flight commit. Returns false (and gives
  // up) if the drain does not converge within a generous real-time budget —
  // the rollback path for a wedged cluster.
  bool DrainInflightCommits();

  // Paces the pump against the workers' virtual-clock frontier: yields real
  // time while `ctx`'s clock leads the frontier by more than the pacing
  // budget. Keeping the lead well under the SimResource booking horizon is
  // what makes the migration background load — a pump that raced ahead would
  // fold the shared NIC timelines forward and drag every worker's clock onto
  // its own. Returns immediately when no worker clock is advancing (idle or
  // wedged cluster), so the control thread can never hang here.
  void PaceToWorkers(sim::ThreadContext* ctx);
  uint64_t WorkerFrontierNs();

  // Rolls the drain window back: block closed, migrating flag cleared.
  void Rollback(uint32_t partition, MigrationReport* report, Status why);

  sim::ThreadContext* ctx_of(uint32_t node);

  txn::TxnEngine* engine_;
  PrimaryBackupReplicator* replicator_;
  cluster::Coordinator* coordinator_;
  cluster::PartitionMap* pmap_;
  MigrationSpec spec_;
  MigrationHooks hooks_;
  txn::MigrationBlock block_;

  // Private per-node control-plane contexts (worker slot num_slots()+2 by
  // convention: membership uses num_slots() and num_slots()+1). Not gate
  // registered: migration runs in real time like recovery, fast-forwarding
  // its clocks to the workers' frontier at each migration start.
  std::vector<std::unique_ptr<sim::ThreadContext>> ctx_;

  uint64_t started_ = 0;
  uint64_t committed_ = 0;
  uint64_t rolled_back_ = 0;

  // Pacing state: the highest worker frontier seen and the real time it last
  // moved. A frontier static for longer than the staleness budget means no
  // workers are running — pacing bails instead of waiting on a dead clock.
  uint64_t pace_frontier_ns_ = 0;
  std::chrono::steady_clock::time_point pace_moved_at_{};
};

}  // namespace drtmr::rep

#endif  // DRTMR_SRC_REP_MIGRATION_H_
