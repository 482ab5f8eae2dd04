// Autonomous availability layer (§5.2; DESIGN.md §10): failure detector,
// epoch fencing, and the reconfiguration → recovery driver.
//
// Components, all driven off virtual time through the simulated fabric:
//
//  * Per-node lease heartbeats. Each node runs a heartbeat thread that proves
//    connectivity by RDMA-READing the configuration epoch word of a current
//    view member (the lowest-numbered member first, itself only as a last
//    resort) and then renews its lease with the coordinator at its own
//    virtual timestamp. A node that is frozen or partitioned sees its
//    heartbeat verb stall past the fault window, so the renewal arrives late
//    and is refused — genuine suspicion, not test-scripted knowledge. A
//    refused renewal (or a lease observed expired) self-fences the node into
//    degraded mode: it stops committing until it rejoins in a later epoch.
//
//  * Epoch stamping. The committed ClusterView epoch is written into every
//    *member*'s registered memory at sim::Fabric::kEpochWordOff by the driver
//    (simulating the new configuration's fencing write to registered memory —
//    see the deviation note in DESIGN.md §10). A removed node's word is
//    deliberately left behind: that is what fences it — the fabric rejects
//    mutating verbs whose issuer's stamp lags the target's
//    (RdmaNic::Deliver), so a zombie's lock CAS, log append, and write-back
//    all bounce off survivors. The stamp is a plain bus CAS, so it also dooms
//    any HTM commit region that read the word.
//
//  * Reconfiguration driver. A single control thread periodically runs
//    Coordinator::Reconfigure as the expiry backstop and processes every
//    committed view change in order: re-host the removed node's partitions
//    onto the deterministically chosen survivor (next view member in ring
//    order), stamp the new epoch into every node's registered memory, drain
//    in-flight commits that entered before the stamp (Node::EnterCommit
//    counters), run the injected recovery callback, then grant all surviving
//    members a fresh lease so real-time recovery work cannot cascade into
//    further suspicions.
//
//  * Rejoin. A degraded node's heartbeat keeps ticking; once its reads go
//    through again (READs are exempt from fencing) and recovery for its old
//    incarnation has finished, it re-Joins — the coordinator bumps the epoch
//    and issues a fresh lease, never resurrecting the old one — and leaves
//    degraded mode. Its former partitions stay where recovery moved them.
#ifndef DRTMR_SRC_CLUSTER_MEMBERSHIP_H_
#define DRTMR_SRC_CLUSTER_MEMBERSHIP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/cluster/node.h"
#include "src/cluster/partition_map.h"
#include "src/util/time_gate.h"

namespace drtmr::cluster {

struct MembershipConfig {
  // All durations are virtual nanoseconds; the coordinator is driven with
  // raw ns timestamps. Defaults suit the torture harness's microsecond-scale
  // fault windows: lease < shortest freeze (so freezes are detected), and
  // lease > heartbeat period + gate window + slack (so healthy nodes are
  // never suspected).
  uint64_t lease_ns = 25'000;
  uint64_t seed = 1;
};

// Added to a committer's clock when checking its lease at commit entry; must
// exceed the TimeGate window so that once a node's lease expires, no
// straggler commit (at most a window behind) can still pass the check.
inline constexpr uint64_t kCommitGuardNs = 12'000;

class MembershipService {
 public:
  // Runs recovery for `dead`, re-hosting onto `host`; injected by the harness
  // (normally rep::RecoveryManager::RecoverAfterFailure with a null pmap —
  // the driver flips the partition map itself, before stamping).
  using RecoveryFn = std::function<void(uint32_t dead, uint32_t host)>;

  // `pmap` may be null (no partition re-hosting). The coordinator must
  // already hold the initial membership (Join'ed by the harness).
  MembershipService(Cluster* cluster, Coordinator* coordinator, PartitionMap* pmap,
                    const MembershipConfig& config);
  ~MembershipService();

  void set_recovery_fn(RecoveryFn fn) { recovery_fn_ = std::move(fn); }

  // Registers the heartbeat/driver clocks with the gate (call before Start
  // and before gate-synced workers run; TimeGate registration is not
  // thread-safe).
  void set_time_gate(TimeGate* gate);

  // Enables fabric fencing, stamps the current epoch everywhere, and records
  // the initial view — without spawning threads. Deterministic unit tests
  // call this and then drive TickHeartbeat/TickDriver by hand.
  void Arm();
  // Arm() + spawn the heartbeat and driver threads.
  void Start();
  // Stops the threads and marks their gate clocks done.
  void Stop();

  // ---- state queried by the transaction layer ----

  // The epoch stamped in `node`'s registered memory.
  uint64_t NodeEpoch(uint32_t node);
  bool degraded(uint32_t node) const {
    return degraded_[node].load(std::memory_order_acquire);
  }
  // True if `node` was ever removed by a view change (even if it rejoined).
  // Quiescence sweeps use this to distinguish locks leaked by a healthy node
  // (a bug) from locks a fenced zombie could not release (expected; released
  // passively on next touch).
  bool was_suspected(uint32_t node) const {
    return ever_suspected_[node].load(std::memory_order_acquire);
  }
  uint64_t lease_deadline_ns(uint32_t node) const {
    return lease_deadline_[node].load(std::memory_order_acquire);
  }
  // The lease is valid beyond the commit guard and the stamped epoch still
  // equals the transaction's begin epoch: the check a read-only snapshot
  // needs (DESIGN.md §10).
  bool LeaseAndEpochValid(uint32_t node, uint64_t now_ns, uint64_t begin_epoch);
  // Full commit-entry admission check: not degraded, plus LeaseAndEpochValid.
  bool CommitAllowed(uint32_t node, uint64_t now_ns, uint64_t begin_epoch) {
    return !degraded(node) && LeaseAndEpochValid(node, now_ns, begin_epoch);
  }

  // ---- counters (also mirrored into obs) ----
  uint64_t suspicions() const { return suspicions_.load(std::memory_order_relaxed); }
  uint64_t epoch_changes() const { return epoch_changes_.load(std::memory_order_relaxed); }
  uint64_t rejoins() const { return rejoins_.load(std::memory_order_relaxed); }
  uint64_t recoveries() const { return recoveries_.load(std::memory_order_relaxed); }

  // ---- deterministic single-step hooks (unit tests; threads not running) ----
  void TickHeartbeat(uint32_t node);
  void TickDriver();

 private:
  void HeartbeatOnce(uint32_t node, sim::ThreadContext* ctx);
  void DriverOnce(sim::ThreadContext* ctx);
  void ProcessViewChange(const ClusterView& view, sim::ThreadContext* ctx);
  // Monotone raise of `node`'s epoch word to at least `epoch` (direct bus
  // CAS: control-plane write, reaches partitioned nodes, dooms HTM readers).
  void StampEpoch(uint32_t node, uint64_t epoch);
  // Stamps the view's epoch into the view's *members* only; a removed node's
  // word stays at its old epoch — that lag is what fences its verbs.
  void StampMembers(const ClusterView& view);
  // Deterministic re-host target for `dead` under `view`: the next member in
  // ring order (smallest member id greater than `dead`, wrapping around).
  static uint32_t PickHost(const ClusterView& view, uint32_t dead);

  Cluster* cluster_;
  Coordinator* coordinator_;
  PartitionMap* pmap_;
  MembershipConfig config_;
  RecoveryFn recovery_fn_;

  // Private contexts: heartbeat thread per node + one driver thread. Workers'
  // slots on the Node are untouched.
  std::vector<std::unique_ptr<sim::ThreadContext>> hb_ctx_;
  std::unique_ptr<sim::ThreadContext> driver_ctx_;

  std::vector<std::atomic<bool>> degraded_;
  std::vector<std::atomic<bool>> ever_suspected_;
  std::vector<std::atomic<uint64_t>> lease_deadline_;
  // Blocks a removed node's rejoin until recovery of its old incarnation has
  // completed (a Join mid-recovery would race RecoveryManager's view checks).
  std::vector<std::atomic<bool>> pending_recovery_;

  // Driver-private view tracking (driver thread / manual ticks only).
  uint64_t last_epoch_ = 0;
  std::vector<uint32_t> last_members_;

  TimeGate* gate_ = nullptr;
  std::vector<uint32_t> gate_ids_;  // heartbeat clocks, then driver clock

  std::atomic<uint64_t> suspicions_{0};
  std::atomic<uint64_t> epoch_changes_{0};
  std::atomic<uint64_t> rejoins_{0};
  std::atomic<uint64_t> recoveries_{0};

  std::atomic<bool> stop_{false};
  bool armed_ = false;
  bool running_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace drtmr::cluster

#endif  // DRTMR_SRC_CLUSTER_MEMBERSHIP_H_
