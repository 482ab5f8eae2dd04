// Partition -> hosting-node map. Workloads shard by partition (e.g. one
// TPC-C warehouse group per partition); after a failure, recovery re-hosts
// the dead machine's partitions on survivors, and live migration re-hosts
// them proactively during scale-out/in. Lock-free reads on the hot path.
//
// Each entry packs (epoch, migrating, owner) into one 64-bit word so a
// routing read observes a *consistent* pair — the stale-routing hole of the
// old two-field design was that a reader could pick up the new owner but
// route under its old begin epoch (or vice versa) and land a mutating verb
// on the pre-migration home after cutover. Rehost is a monotone CAS: a flip
// carrying an epoch older than the installed one is refused, which resolves
// concurrent migration-vs-recovery races in whichever order they land.
//
// A failover flips a dead node's partitions to their new host before
// recovery has re-hosted the records there, and the host may already hold
// copies of them: a migration's source or rolled-back destination, or a
// node that rejoined after a false suspicion. Until recovery overwrites
// those with the freshest backup images, a transaction served by one would
// commit on a stale version. The failover therefore flips with the
// rehosting bit set, which keeps the partition unroutable (reads included),
// and clears it once recovery is done.
//
// Word layout: bits[31:0] owner node, bit[32] migrating (write-drain window
// open), bit[33] rehosting (recovery still re-hosting onto the owner),
// bits[63:34] epoch of the flip that installed this owner.
#ifndef DRTMR_SRC_CLUSTER_PARTITION_MAP_H_
#define DRTMR_SRC_CLUSTER_PARTITION_MAP_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/util/status.h"

namespace drtmr::cluster {

class PartitionMap {
 public:
  explicit PartitionMap(uint32_t num_partitions) : entry_(num_partitions) {
    for (uint32_t i = 0; i < num_partitions; ++i) {
      entry_[i].store(Pack(i, /*migrating=*/false, /*epoch=*/0), std::memory_order_relaxed);
    }
  }

  uint32_t node_of(uint32_t partition) const {
    return OwnerOf(entry_[partition].load(std::memory_order_acquire));
  }

  uint64_t entry_epoch(uint32_t partition) const {
    return EpochOf(entry_[partition].load(std::memory_order_acquire));
  }

  bool migrating(uint32_t partition) const {
    return MigratingOf(entry_[partition].load(std::memory_order_acquire));
  }

  bool rehosting(uint32_t partition) const {
    return (entry_[partition].load(std::memory_order_acquire) & kRehostingBit) != 0;
  }

  // Routing read with staleness rejection. `begin_epoch` is the reader's
  // transaction begin epoch (pass ~0ull to accept any entry — legacy
  // non-fenced runs). Returns:
  //   kOk          — *owner filled, safe to route.
  //   kStaleEpoch  — the entry was flipped by an epoch newer than the
  //                  reader's begin epoch; the reader must re-begin.
  //   kMigrating   — for_write and the partition is in its write-drain
  //                  window; back off and retry.
  //   kUnavailable — a failover's recovery is still re-hosting the
  //                  partition onto its owner; back off and retry.
  Status Route(uint32_t partition, uint64_t begin_epoch, bool for_write,
               uint32_t* owner) const {
    const uint64_t e = entry_[partition].load(std::memory_order_acquire);
    if (EpochOf(e) > begin_epoch) {
      return Status::kStaleEpoch;
    }
    if ((e & (for_write ? kMigratingBit | kRehostingBit : kRehostingBit)) != 0) {
      return (e & kRehostingBit) != 0 ? Status::kUnavailable : Status::kMigrating;
    }
    *owner = OwnerOf(e);
    return Status::kOk;
  }

  // Installs (node, epoch), clears the migrating flag and sets the
  // rehosting flag to `rehosting`. Monotone: refuses (returns false) when the
  // installed entry already carries a newer epoch — the caller lost a race
  // against another reconfiguration and must treat its flip as not having
  // happened.
  bool Rehost(uint32_t partition, uint32_t node, uint64_t epoch, bool rehosting = false) {
    uint64_t cur = entry_[partition].load(std::memory_order_acquire);
    const uint64_t next =
        Pack(node, /*migrating=*/false, epoch) | (rehosting ? kRehostingBit : 0);
    while (true) {
      if (EpochOf(cur) > epoch) {
        return false;
      }
      if (entry_[partition].compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
        return true;
      }
    }
  }

  // One partition's re-host within a configuration change.
  struct Move {
    uint32_t partition;
    uint32_t node;
  };

  // The moves that re-host every partition `from` owns onto `to`.
  std::vector<Move> MovesOff(uint32_t from, uint32_t to) const {
    std::vector<Move> moves;
    for (uint32_t p = 0; p < num_partitions(); ++p) {
      if (node_of(p) == from) {
        moves.push_back({p, to});
      }
    }
    return moves;
  }

  // Rehosts each move under `epoch`; false if any flip lost to a newer epoch
  // (the other moves still land).
  bool Apply(const std::vector<Move>& moves, uint64_t epoch, bool rehosting = false) {
    bool all = true;
    for (const Move& m : moves) {
      all = Rehost(m.partition, m.node, epoch, rehosting) && all;
    }
    return all;
  }

  // Makes the moves that Apply(moves, epoch, /*rehosting=*/true) installed
  // routable. An entry a newer reconfiguration replaced is left as it is.
  void FinishRehost(const std::vector<Move>& moves, uint64_t epoch) {
    for (const Move& m : moves) {
      uint64_t held = Pack(m.node, /*migrating=*/false, epoch) | kRehostingBit;
      entry_[m.partition].compare_exchange_strong(held, held & ~kRehostingBit,
                                                  std::memory_order_acq_rel);
    }
  }

  // Opens/closes the write-drain window without changing owner or epoch.
  void SetMigrating(uint32_t partition, bool on) {
    uint64_t cur = entry_[partition].load(std::memory_order_acquire);
    while (true) {
      const uint64_t next = on ? (cur | kMigratingBit) : (cur & ~kMigratingBit);
      if (cur == next ||
          entry_[partition].compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
        return;
      }
    }
  }

  uint32_t num_partitions() const { return static_cast<uint32_t>(entry_.size()); }

 private:
  static constexpr uint64_t kMigratingBit = 1ull << 32;
  static constexpr uint64_t kRehostingBit = 1ull << 33;
  static constexpr uint32_t kEpochShift = 34;

  static constexpr uint64_t Pack(uint32_t owner, bool migrating, uint64_t epoch) {
    return static_cast<uint64_t>(owner) | (migrating ? kMigratingBit : 0) |
           (epoch << kEpochShift);
  }
  static constexpr uint32_t OwnerOf(uint64_t e) { return static_cast<uint32_t>(e); }
  static constexpr bool MigratingOf(uint64_t e) { return (e & kMigratingBit) != 0; }
  static constexpr uint64_t EpochOf(uint64_t e) { return e >> kEpochShift; }

  std::vector<std::atomic<uint64_t>> entry_;
};

}  // namespace drtmr::cluster

#endif  // DRTMR_SRC_CLUSTER_PARTITION_MAP_H_
