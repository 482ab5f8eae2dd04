// Primary-backup replication with doorbell-batched chains and group-commit
// durability (§5.1; DESIGN.md §13). The transaction layer *stages* one
// speculative log slot per written record per backup as early as
// lock-acquire time (StageUpdate), appended onto a per-(lane, backup) verb
// chain so all slots bound for one backup share a single doorbell. The
// commit decision (CommitTxnLog / AbortTxnLog) publishes the lane's
// watermark past the staged slots — committed slots become eligible for the
// backup pump, aborted ones are tombstoned first — and the durability fence
// is amortized across a group-commit window of decisions. Each node's
// service thread calls Pump() to consume rings into the BackupStore and
// truncate, woken by the service doorbell every chain append rings; the pump
// trusts only slots below the watermark.
#ifndef DRTMR_SRC_REP_PRIMARY_BACKUP_H_
#define DRTMR_SRC_REP_PRIMARY_BACKUP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/node.h"
#include "src/rep/backup_store.h"
#include "src/rep/log.h"
#include "src/txn/replicator.h"
#include "src/util/spinlock.h"

namespace drtmr::rep {

struct RepConfig {
  uint32_t replicas = 3;            // f+1 copies including the primary
  uint64_t max_record_bytes = 512;  // bounds the log slot size
  // Group commit: number of commit/abort decisions one worker lane closes
  // before ringing its chains and paying one durability fence for all of
  // them. 1 = fence every transaction (the paper's per-txn R.1 durability).
  uint32_t group_commit_window = 1;
  // Age bound: a decision also flushes if the window has been open this long
  // in virtual time, so a slow lane cannot hold its peers' commits unfenced
  // indefinitely.
  uint64_t group_commit_max_open_ns = 50000;
  // Teeth-test overrides (tests/rep_batching_test.cc): each deliberately
  // breaks one invariant of the slot lifecycle so the serializability
  // checker / protocol analyzer can demonstrate it would catch the bug.
  struct TestOverrides {
    bool pump_ignores_watermark = false;  // pump consumes speculative slots
    bool pump_applies_tombstones = false; // pump applies aborted images
    bool watermark_at_stage = false;      // watermark published before decision
  } test;
};

class PrimaryBackupReplicator : public txn::Replicator {
 public:
  PrimaryBackupReplicator(cluster::Cluster* cluster, const RepConfig& config);

  // txn::Replicator
  Status StageUpdate(sim::ThreadContext* ctx, uint64_t txn_id, uint32_t primary,
                     uint32_t table_id, uint64_t key, uint64_t record_offset,
                     const std::byte* image, size_t image_len) override;
  Status SupersedeUpdate(sim::ThreadContext* ctx, uint64_t txn_id, uint32_t primary,
                         uint32_t table_id, uint64_t key, uint64_t record_offset,
                         const std::byte* image, size_t image_len) override;
  Status CommitTxnLog(sim::ThreadContext* ctx, uint64_t txn_id) override;
  void AbortTxnLog(sim::ThreadContext* ctx, uint64_t txn_id) override;
  void FlushLog(sim::ThreadContext* ctx) override;
  void EndTransaction(sim::ThreadContext* ctx, uint64_t txn_id) override;
  bool Pump(sim::ThreadContext* ctx) override;

  // Seeds backup copies at load time (initial data placement provides f+1
  // copies without going through the log path).
  void SeedBackup(uint32_t backup_node, uint32_t table_id, uint32_t primary, uint64_t key,
                  const std::byte* image, size_t image_len);

  BackupStore* backup_store(uint32_t node) { return stores_[node].get(); }
  const RepConfig& config() const { return config_; }
  cluster::Cluster* cluster() { return cluster_; }

  // Drains every ring addressed to `node` (used by recovery before reading
  // backup copies; also callable on live nodes). Consumes up to each ring's
  // watermark only: speculative slots belong to undecided transactions.
  void DrainNode(sim::ThreadContext* ctx, uint32_t node);

  // Discards the unusable tail of every ring on `node` written by a lane of
  // machine `writer`: torn slots, and complete-looking slots at or beyond the
  // writer's published watermark (speculative — their transactions never
  // decided, so discarding is the roll-back the protocol requires, §5.2).
  // Only valid once `writer` is dead. Returns the number of slots discarded.
  uint64_t TruncateTornTail(sim::ThreadContext* ctx, uint32_t node, uint32_t writer);

  uint64_t log_writes() const { return log_writes_.load(std::memory_order_relaxed); }
  uint64_t entries_applied() const { return entries_applied_.load(std::memory_order_relaxed); }
  uint64_t torn_slots() const { return torn_slots_.load(std::memory_order_relaxed); }
  // Ring positions the pump consumed without applying because a writer lapped
  // them while this machine was unreachable (its consumer could not run, and
  // the writers' flow-control reads failed): the backup is stale for those
  // keys until freshest-wins Apply or recovery reconciles it.
  uint64_t ring_overruns() const { return ring_overruns_.load(std::memory_order_relaxed); }

  // Writer lane of a context: every context slot on every machine owns one
  // single-writer set of rings, which is what makes the per-lane watermark a
  // well-defined prefix frontier.
  uint32_t LaneOf(const sim::ThreadContext* ctx) const {
    return ctx->node_id * lanes_per_node_ + ctx->worker_id;
  }
  uint32_t num_lanes() const { return num_lanes_; }

  RingGeometry Ring(uint32_t lane) const;

 private:
  // Per-lane, per-destination writer cursors. Owned exclusively by the lane's
  // thread: no atomics needed.
  struct DstState {
    sim::RdmaNic::VerbChain chain;
    uint64_t next = 0;           // next slot index in this lane's ring on dst
    uint64_t watermark = 0;      // decided frontier (mirror of the published word)
    uint64_t consumed_seen = 0;  // flow-control view of the consumer's progress
  };
  struct StagedSlot {
    uint32_t dst;        // backup node (== lane's node for deferred local applies)
    uint64_t index;      // ring index (unused for local applies)
    uint64_t txn_id;
    uint64_t key;
    uint64_t record_off;
    uint32_t table_id;
    uint32_t primary;
    uint32_t image_len;
    std::vector<std::byte> local_image;  // buffered image for dst == lane node
  };
  struct LaneState {
    std::vector<DstState> dst;       // [num_nodes]
    std::vector<StagedSlot> staged;  // current transaction's speculative slots
    uint64_t window_txns = 0;        // decisions since the last fence
    uint64_t window_open_ns = 0;     // virtual time the window opened
    uint64_t completion_ns = 0;      // slowest chain completion this window
  };

  LaneState& Lane(const sim::ThreadContext* ctx) { return *lanes_[LaneOf(ctx)]; }

  // Writes `slot` into the lane's ring on `dst` at `index`, chained onto the
  // lane's open chain for `dst` (falling back to a direct bus write when the
  // verb is refused, so the ring stays continuous). Returns the verb status.
  Status PushSlot(sim::ThreadContext* ctx, LaneState& lane, uint32_t dst, uint64_t index,
                  const void* slot, size_t slot_len);
  // Reserves the next index in the lane's ring on `dst`, builds the slot, and
  // pushes it (with flow control against the consumer). Sets *index_out to
  // the reserved index.
  Status StageSlotTo(sim::ThreadContext* ctx, LaneState& lane, uint32_t dst, uint64_t txn_id,
                     uint32_t primary, uint32_t table_id, uint64_t key, uint64_t record_offset,
                     const std::byte* image, size_t image_len, uint64_t* index_out);
  // Publishes the lane's watermark for `dst` (chain-appended after the slots
  // it covers; FIFO per chain keeps "slots land before their watermark").
  void PublishWatermark(sim::ThreadContext* ctx, LaneState& lane, uint32_t dst);
  // Tombstones one staged remote slot (header rewrite, image left in place).
  void TombstoneSlot(sim::ThreadContext* ctx, LaneState& lane, const StagedSlot& s);
  // Closes one decision: advances watermarks over the staged slots, counts
  // window occupancy, and fences if the window is full (or aged out).
  void CloseDecision(sim::ThreadContext* ctx, LaneState& lane);
  // Rings every open chain and pays the window's durability fence.
  void FlushWindow(sim::ThreadContext* ctx, LaneState& lane);

  // Consumes at most `budget` slots of writer lane `lane`'s ring on `node`.
  // `wait` blocks for exclusive ring access (recovery) instead of skipping
  // when another consumer is active (service-thread fast path). Returns true
  // if it consumed a slot or skipped the ring because another consumer held
  // it.
  bool PumpRing(sim::ThreadContext* ctx, uint32_t node, uint32_t lane, uint64_t budget,
                bool wait);

  cluster::Cluster* cluster_;
  RepConfig config_;
  uint32_t num_nodes_;
  uint32_t lanes_per_node_;
  uint32_t num_lanes_;
  std::vector<std::unique_ptr<BackupStore>> stores_;

  std::vector<std::unique_ptr<LaneState>> lanes_;  // [num_lanes]

  // Consumer-side progress, indexed by [consumer_node * num_lanes + lane].
  // PumpRing may be called by the node's auxiliary thread and by recovery
  // concurrently; pump_mu_ guarantees a single consumer per ring at a time
  // (two interleaved consumers could regress the pointer after a ring wrap
  // and deadlock the writers).
  std::vector<std::atomic<uint64_t>> consumed_;
  std::unique_ptr<Spinlock[]> pump_mu_;

  std::atomic<uint64_t> log_writes_{0};
  std::atomic<uint64_t> entries_applied_{0};
  std::atomic<uint64_t> torn_slots_{0};
  std::atomic<uint64_t> ring_overruns_{0};
};

}  // namespace drtmr::rep

#endif  // DRTMR_SRC_REP_PRIMARY_BACKUP_H_
