// One simulated machine: registered memory (MemoryBus), HTM engine, RDMA NIC
// port, a region allocator over its data area, an NVM log area, and thread
// contexts for its worker and auxiliary threads (§3: n worker threads atop n
// cores, plus auxiliary threads for log truncation and insert/delete RPCs).
#ifndef DRTMR_SRC_CLUSTER_NODE_H_
#define DRTMR_SRC_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/cluster/region_allocator.h"
#include "src/sim/fabric.h"
#include "src/sim/htm.h"
#include "src/sim/memory_bus.h"
#include "src/util/time_gate.h"

namespace drtmr::cluster {

class Node {
 public:
  // `slots` = worker threads + auxiliary threads that may run HTM regions.
  Node(uint32_t id, size_t memory_bytes, size_t log_bytes, const sim::CostModel* cost,
       uint32_t slots);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node();

  uint32_t id() const { return id_; }
  sim::MemoryBus* bus() { return bus_.get(); }
  sim::HtmEngine* htm() { return htm_.get(); }
  RegionAllocator* allocator() { return alloc_.get(); }

  // Set by Cluster once the node is attached to the fabric.
  void AttachNic(sim::RdmaNic* nic) { nic_ = nic; }
  sim::RdmaNic* nic() { return nic_; }

  // NVM log area: the top `log_bytes` of the registered region, RDMA-writable
  // by remote primaries (R.1) and readable by recovery.
  uint64_t log_begin() const { return log_begin_; }
  uint64_t log_size() const { return log_size_; }

  // Fail-stop flag: worker loops poll this and exit when set; the service
  // thread sleeps while it is set and Revive() rings it awake.
  bool killed() const { return killed_.load(std::memory_order_acquire); }
  void Kill() { killed_.store(true, std::memory_order_release); }
  void Revive();

  // In-flight commit tracking: Transaction::Commit brackets its commit phase
  // with Enter/Exit so the reconfiguration driver can drain commits that
  // entered before an epoch stamp (DESIGN.md §10) before re-hosting data.
  void EnterCommit() { inflight_commits_.fetch_add(1, std::memory_order_acq_rel); }
  void ExitCommit() { inflight_commits_.fetch_sub(1, std::memory_order_acq_rel); }
  uint32_t inflight_commits() const { return inflight_commits_.load(std::memory_order_acquire); }

  // Contexts. Worker i uses slot i; auxiliary thread j uses slot workers+j.
  sim::ThreadContext* context(uint32_t slot) { return contexts_[slot].get(); }
  uint32_t num_slots() const { return static_cast<uint32_t>(contexts_.size()); }

  // Auxiliary service thread: drains the NIC's service receive queue (queue
  // 0), dispatching each message to `handler`, then runs `idle` (the backup
  // pump lives there). When neither did any work it sleeps on the NIC's
  // service doorbell until a producer rings it (sim::ServiceDoorbell;
  // DESIGN.md §6). Sleeping charges no virtual time.
  using MessageHandler = std::function<void(sim::ThreadContext*, const sim::Message&)>;
  // Returns true if it did work or saw work it could not take yet (e.g. a
  // ring another consumer holds); false lets the service sleep.
  using IdleFn = std::function<bool(sim::ThreadContext*)>;
  // `slot` selects the context the service thread runs on; the default is the
  // first auxiliary slot (workers occupy [0, workers); the last slot is a
  // spare reserved for tools such as recovery). Requires an attached NIC.
  void StartService(MessageHandler handler, IdleFn idle, uint32_t slot = kAutoSlot);
  static constexpr uint32_t kAutoSlot = ~0u;

  // Spare context for management operations (recovery, loaders) that must
  // not collide with worker or service slots.
  sim::ThreadContext* tool_context() { return contexts_.back().get(); }
  void StopService();
  bool service_running() const { return service_running_.load(std::memory_order_acquire); }

 private:
  uint32_t id_;
  std::unique_ptr<sim::MemoryBus> bus_;
  std::unique_ptr<sim::HtmEngine> htm_;
  std::unique_ptr<RegionAllocator> alloc_;
  sim::RdmaNic* nic_ = nullptr;
  uint64_t log_begin_;
  uint64_t log_size_;
  std::atomic<bool> killed_{false};
  std::atomic<uint32_t> inflight_commits_{0};
  std::vector<std::unique_ptr<sim::ThreadContext>> contexts_;

  std::atomic<bool> service_running_{false};
  std::atomic<bool> service_stop_{false};
  std::thread service_thread_;
};

// Auxiliary threads per node: the service thread that runs insert/delete
// RPCs and the backup log pump. Each node has worker slots, then these, then
// one spare tool slot.
inline constexpr uint32_t kAuxThreads = 1;

struct ClusterConfig {
  uint32_t num_nodes = 2;
  uint32_t workers_per_node = 4;
  size_t memory_bytes = 48ull << 20;
  size_t log_bytes = 8ull << 20;
  // Logical nodes per physical machine (Fig. 12); logical nodes on the same
  // machine share one physical NIC's occupancy.
  uint32_t logical_per_machine = 1;
  sim::AtomicityLevel atomicity = sim::AtomicityLevel::kHca;
};

// Builds N nodes wired to one fabric. Owns everything.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  const ClusterConfig& config() const { return config_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  Node* node(uint32_t id) { return nodes_[id].get(); }
  sim::Fabric* fabric() { return fabric_.get(); }
  const sim::CostModel* cost() const { return &cost_; }

  // Fail-stop a machine: unreachable on the fabric, worker loops told to exit.
  void Kill(uint32_t id);
  void Revive(uint32_t id);

  // Installs a deterministic fault schedule (sim/fault.h) on the fabric and
  // on every node's HTM engine; nullptr clears it. The plan must outlive its
  // installation and stay immutable while installed.
  void SetFaultPlan(const sim::FaultPlan* plan);

  // Rewinds all virtual clocks and NIC occupancy resources to zero so that
  // benchmark runs over the same cluster start from a clean time base.
  void ResetSimTime();

  // Optional conservative time-window gate (set by the benchmark driver);
  // transaction Begin() paths call Sync() through it. May be null.
  void set_time_gate(TimeGate* gate) { time_gate_.store(gate, std::memory_order_release); }
  TimeGate* time_gate() const { return time_gate_.load(std::memory_order_acquire); }
  void SyncGate(const SimClock* clock) const {
    TimeGate* g = time_gate();
    if (g != nullptr) {
      g->Sync(clock);
    }
  }

  // Replica placement: primary + (replicas-1) backups at successive nodes.
  uint32_t BackupOf(uint32_t primary, uint32_t replica_index) const {
    return (primary + replica_index) % num_nodes();
  }

 private:
  ClusterConfig config_;
  // The testbed's cost model (sim/cost_model.h), shared by every node.
  const sim::CostModel cost_{};
  std::atomic<TimeGate*> time_gate_{nullptr};
  std::unique_ptr<sim::Fabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<sim::RdmaNic::Occupancy>> machine_nics_;
};

}  // namespace drtmr::cluster

#endif  // DRTMR_SRC_CLUSTER_NODE_H_
