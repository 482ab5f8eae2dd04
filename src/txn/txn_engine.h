// TxnEngine: per-cluster runtime of the DrTM+R transaction layer. Owns the
// protocol configuration, statistics, per-worker location caches, the
// insert/delete RPC service (§4.3: mutations are shipped to the hosting
// machine over SEND/RECV and executed there inside HTM regions), and the
// record-read helpers shared by read-write and read-only transactions.
#ifndef DRTMR_SRC_TXN_TXN_ENGINE_H_
#define DRTMR_SRC_TXN_TXN_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/cluster/node.h"
#include "src/store/table.h"
#include "src/txn/replicator.h"
#include "src/txn/types.h"

namespace drtmr::cluster {
class MembershipService;
}  // namespace drtmr::cluster

namespace drtmr::txn {

// Live-migration write admission (DESIGN.md §14). During a partition's
// cutover the migration manager opens a drain window by activating a block
// naming the partition; Transaction::Commit then refuses read-write
// transactions that touch that partition — on ANY home — with kMigrating
// *before* entering the commit protocol, so the source quiesces while reads
// keep flowing. The block is deliberately partition-wide rather than keyed
// to the source node: after the map flips, writes route to the destination,
// and a destination write committing while a reader of the frozen source
// copy is still admissible (same epoch, not yet stamped) would let that
// reader validate a stale snapshot — the source record never changes again,
// so seq re-checks cannot catch it. Holding both homes blocked until the
// epoch stamp + drain close the window restores the fence's guarantee. One
// partition migrates at a time, so a single word suffices; the blocked
// writer retries with jittered backoff and lands after cutover (routed to
// the new home by its next Begin()).
struct MigrationBlock {
  static constexpr uint64_t kNone = ~0ull;

  // Maps a key to its partition (workload sharding function). Set once
  // before any Activate; read concurrently by committing workers.
  std::function<uint32_t(uint64_t key)> partition_of;
  std::atomic<uint64_t> target{kNone};

  void Activate(uint32_t partition) {
    target.store(partition, std::memory_order_release);
  }
  void Deactivate() { target.store(kNone, std::memory_order_release); }
  bool active() const { return target.load(std::memory_order_acquire) != kNone; }

  bool Blocks(uint64_t key) const {
    const uint64_t t = target.load(std::memory_order_acquire);
    if (t == kNone) {
      return false;
    }
    return partition_of(key) == static_cast<uint32_t>(t);
  }
};

class TxnEngine {
 public:
  // `coordinator` (optional) supplies the current configuration for passive
  // dangling-lock release (§5.2); `replicator` (optional) is required when
  // config.replication is on.
  TxnEngine(cluster::Cluster* cluster, store::Catalog* catalog, const TxnConfig& config,
            cluster::Coordinator* coordinator = nullptr, Replicator* replicator = nullptr);
  ~TxnEngine();

  cluster::Cluster* cluster() { return cluster_; }
  store::Catalog* catalog() { return catalog_; }
  const TxnConfig& config() const { return config_; }
  SeqRules seq_rules() const {
    return SeqRules{config_.replication, config_.unsafe_skip_read_validation};
  }
  Replicator* replicator() { return replicator_; }
  TxnStats& stats() { return stats_; }
  const sim::CostModel* cost() const { return cluster_->cost(); }

  uint64_t NextTxnId() { return next_txn_id_.fetch_add(1, std::memory_order_relaxed); }

  store::LocationCache* cache(uint32_t node, uint32_t worker) {
    return caches_[node * workers_per_node_ + worker].get();
  }

  // Optional availability layer (DESIGN.md §10). When set, transactions
  // snapshot their begin epoch, check commit admission against it, and treat
  // replication failures as fatal (a cut-off primary must not report commit).
  void set_membership(cluster::MembershipService* m) { membership_ = m; }
  cluster::MembershipService* membership() const { return membership_; }
  bool fencing() const { return membership_ != nullptr; }

  // Optional live-migration write admission (DESIGN.md §14). When set,
  // Transaction::Commit consults it before running the commit protocol.
  void set_migration_block(MigrationBlock* b) { migration_block_ = b; }
  MigrationBlock* migration_block() const { return migration_block_; }

  // True when the lock word's owner machine is absent from the current
  // configuration — the survivor may release the dangling lock (§5.2). With a
  // coordinator that tracks lease tombstones, release is additionally gated on
  // the steal grace having elapsed past the absent owner's last lease deadline
  // (`ctx` supplies the caller's virtual time).
  bool OwnerAbsent(const sim::ThreadContext* ctx, uint64_t lock_word) const;

  // ---- execution-phase record reads (Figs. 5, 6, 8) ----

  // Local read: lock-checked copy inside a small HTM region, retried with
  // randomized backoff while the record is remote-locked; falls back to a
  // seqlock-style read after the retry threshold. Fills `entry` and, if
  // value_out != nullptr, the payload.
  Status ReadLocalRecord(sim::ThreadContext* ctx, store::Table* table, uint64_t key,
                         void* value_out, AccessEntry* entry);

  // Remote read: location-cache + one-sided RDMA READ with per-line version
  // consistency check. `check_lock` is the read-only-transaction variant that
  // refuses records currently locked by a committing transaction (§4.5).
  Status ReadRemoteRecord(sim::ThreadContext* ctx, store::Table* table, uint32_t node,
                          uint64_t key, void* value_out, AccessEntry* entry, bool check_lock);

  // A record's line-0 metadata as commit-time validation re-reads it: the
  // lock, incarnation and seq words, 24 B at kLockOff in one bus read or one
  // RDMA READ. Validation must see the lock: a committer that holds it may
  // not have written the record back yet, so an unchanged seq proves nothing.
  struct RecordMeta {
    uint64_t lock = 0;
    uint64_t inc = 0;
    uint64_t seq = 0;
  };
  void ReadMetaLocal(sim::ThreadContext* ctx, const AccessEntry& e, RecordMeta* meta);
  Status ReadMetaRemote(sim::ThreadContext* ctx, const AccessEntry& e, RecordMeta* meta);

  // Passive dangling-lock release (§5.2): if `lock_word`'s owner is absent,
  // CAS it off the record at (node, offset) through the NIC (loopback for a
  // local record) and return true; losing the race means another survivor
  // freed it. The lock word is only ever CASed through the NIC: on kHca
  // fabrics a CPU CAS racing an RDMA CAS on the same word is silently lost.
  bool StealIfOwnerAbsent(sim::ThreadContext* ctx, uint32_t node, uint64_t offset,
                          uint64_t lock_word);

  // ---- mutation RPC (§4.3) ----

  // Applies an insert/remove on the hosting node. Local mutations run
  // directly; remote ones are shipped via SEND/RECV and executed by the
  // target's service thread.
  Status Mutate(sim::ThreadContext* ctx, const MutationEntry& m);

  // Starts the per-node service threads (RPC handling; `idle` hooks such as
  // log truncation may be chained by the replication layer).
  void StartServices();
  void StopServices();

 private:
  struct RpcMsg;
  void HandleRpc(sim::ThreadContext* ctx, const sim::Message& msg);
  Status ApplyMutation(sim::ThreadContext* ctx, MutationEntry::Op op, uint32_t table_id,
                       uint64_t key, const std::byte* value, size_t value_len);

  cluster::Cluster* cluster_;
  store::Catalog* catalog_;
  TxnConfig config_;
  cluster::Coordinator* coordinator_;
  cluster::MembershipService* membership_ = nullptr;
  MigrationBlock* migration_block_ = nullptr;
  Replicator* replicator_;
  TxnStats stats_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> next_rpc_token_{1};
  uint32_t workers_per_node_;
  std::vector<std::unique_ptr<store::LocationCache>> caches_;
  bool services_running_ = false;
};

}  // namespace drtmr::txn

#endif  // DRTMR_SRC_TXN_TXN_ENGINE_H_
