// Simulated RDMA fabric: one RdmaNic per machine, connected by a Fabric that
// routes one-sided verbs (READ / WRITE / CAS / FETCH_AND_ADD) and two-sided
// SEND/RECV messages into the target machine's MemoryBus.
//
// Properties preserved from real InfiniBand RDMA (§2.1 of the paper):
//  * verbs bypass the remote CPU entirely and are cache-coherent with it —
//    they go through the target MemoryBus, so they doom conflicting HTM
//    transactions (strong consistency meets strong atomicity);
//  * WRITE is atomic per cache line only (the bus applies it line by line);
//  * CAS atomicity level is configurable: IBV_ATOMIC_HCA (atomic only against
//    other RDMA atomics, the paper's ConnectX-3) or IBV_ATOMIC_GLOB (also
//    atomic against CPU atomics). Under kHca the NIC serializes atomics
//    through a per-target-NIC token. Mixing RDMA and local CAS on one word
//    is neither detected nor counted (the simulator cannot exhibit the real
//    silent corruption), so lock words are only ever CASed through the NIC;
//  * issuing any verb inside an HTM region aborts the region (no I/O in RTM);
//  * each NIC is a shared resource with a message rate and bandwidth; verbs
//    reserve it in virtual time, which models NIC saturation (Figs. 15/16).
//
// Failure injection: Kill(node) makes a machine unreachable (fail-stop);
// verbs targeting it return kUnavailable after a timeout charge. Richer,
// deterministic fault schedules (delays, drops, partitions, timed kills) are
// installed via Fabric::set_fault_plan (see sim/fault.h); every verb consults
// the plan after charging its cost.
//
// Admission: every verb, waited, posted or chained, passes one sequence in
// this order. (1) The HTM no-I/O rule: inside a region the verb returns
// kAborted, dooms the region and is not counted. (2) The charge: NIC
// occupancy, then the caller's clock (waited) or *completion_ns (posted); a
// chained WQE charges CPU only and its chain books the wire at ChainRing.
// (3) Liveness and the fault plan: kUnavailable if lost; a stall or injected
// delay moves this verb's own completion. (4) Mutating verbs only (WRITE,
// CAS, FAA, SEND, chained WRITE): the epoch fence, kStaleEpoch. Only an
// admitted verb touches target memory.
//
// Service doorbell: each NIC also carries the word its machine's service
// thread (cluster::Node) sleeps on. Every action that lands work for that
// thread rings it: a SEND to queue 0 and a log-chain WRITE (ChainAppend)
// ring it here; Node::Revive, Node::StopService and the replicator's
// ring-continuity and truncation writes ring it from their layers.
#ifndef DRTMR_SRC_SIM_FABRIC_H_
#define DRTMR_SRC_SIM_FABRIC_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/memory_bus.h"
#include "src/sim/thread_context.h"
#include "src/util/cacheline.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace drtmr::sim {

// Address in the partitioned global address space.
struct GlobalAddr {
  uint32_t node = 0;
  uint64_t offset = 0;

  bool operator==(const GlobalAddr&) const = default;
  // Total order used to sort lock acquisition (deadlock avoidance, §6.1).
  auto operator<=>(const GlobalAddr&) const = default;
};

struct Message {
  uint32_t src_node = 0;
  std::vector<std::byte> payload;
};

enum class AtomicityLevel { kHca, kGlob };

class Fabric;

// The word a machine's service thread sleeps on while it has no work. A
// producer calls Ring() after its memory effects land; while the service is
// awake that costs one fence and one read of a rarely-written line. The
// service announces sleep with Arm(), re-checks every work source, then
// either Sleep()s or Disarm()s. Both sides put a seq_cst fence between their
// write (the work, or the armed flag) and their read (the flag, or the work),
// so either the producer sees the service armed and wakes it, or the
// service's re-check sees the work: no wakeup is lost (DESIGN.md §6).
class alignas(kCacheLineSize) ServiceDoorbell {
 public:
  void Ring() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (armed_.load(std::memory_order_relaxed) != 0 &&
        armed_.exchange(0, std::memory_order_acq_rel) != 0) {
      armed_.notify_one();
    }
  }

  void Arm() {
    armed_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  void Disarm() { armed_.store(0, std::memory_order_relaxed); }
  // Blocks until a Ring() after the matching Arm(); returns disarmed.
  void Sleep() { armed_.wait(1, std::memory_order_acquire); }

 private:
  std::atomic<uint32_t> armed_{0};
};

class RdmaNic {
 public:
  static constexpr uint64_t kPostCpuNs = 40;  // WQE build + doorbell

  RdmaNic(Fabric* fabric, uint32_t node_id, const CostModel* cost)
      : fabric_(fabric), node_id_(node_id), cost_(cost) {}

  uint32_t node_id() const { return node_id_; }

  // One-sided verbs; failures as under "Admission" above. With
  // `completion_ns` null the caller waits for the verb; non-null posts it
  // (see "Posted verbs" below).
  Status Read(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf, size_t len,
              uint64_t* completion_ns = nullptr);
  Status Write(ThreadContext* ctx, uint32_t dst, uint64_t offset, const void* src, size_t len,
               uint64_t* completion_ns = nullptr);
  Status CompareSwap(ThreadContext* ctx, uint32_t dst, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed, uint64_t* completion_ns = nullptr);
  Status FetchAdd(ThreadContext* ctx, uint32_t dst, uint64_t offset, uint64_t delta,
                  uint64_t* old_value);
  // Read with a bounded transport-retry budget: if a partition/freeze window
  // would stall the verb more than `timeout_ns` past issue, the NIC gives up
  // after charging the timeout and completes with kUnavailable instead of
  // waiting the window out — RC retry_cnt exhaustion on real hardware. The
  // failure detector's probes use this so that probing a frozen peer costs a
  // bounded amount of the prober's own lease.
  Status ReadTimeout(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf, size_t len,
                     uint64_t timeout_ns);

  // Posted (pipelined) verbs: multiple verbs are pushed back-to-back and
  // their round-trip latencies overlap, as with real doorbell batching. Each
  // reserves NIC occupancy and charges only the CPU posting cost;
  // `completion_ns` is raised to the verb's simulated completion, injected
  // faults included. Fence() once per batch waits for the slowest verb (e.g.
  // before declaring log writes durable, §5.1): it advances the caller past
  // the batch completion plus one verb latency.
  void Fence(ThreadContext* ctx, uint64_t completion_ns, uint64_t latency_ns);

  // What an installed FaultPlan adds to a delivered verb: a partition stall
  // until `stall_until_ns`, then `delay_ns` of injected latency.
  struct FaultCharge {
    uint64_t stall_until_ns = 0;
    uint64_t delay_ns = 0;
    uint64_t After(uint64_t done_ns) const { return std::max(done_ns, stall_until_ns) + delay_ns; }
  };

  // ---- doorbell-batched verb chains ----
  //
  // A VerbChain accumulates WRITE work-queue entries destined for one target
  // into a single chained submission: each ChainAppend links a WQE (CPU cost
  // only — no doorbell, no NIC occupancy) and applies the write's memory
  // effects; ChainRing rings one doorbell for the whole chain, reserving NIC
  // occupancy of one full verb plus a discounted per-chained-verb cost and
  // the aggregate payload transfer, and raises *completion_ns like the other
  // posted verbs (Fence() once per batch for durability).
  //
  // Memory effects land at append time, as for a posted Write: in the
  // simulator "posted" verbs take effect at issue and only their virtual-time
  // completion is deferred. The chain is therefore a cost/occupancy batching
  // construct; ordering per target is FIFO by construction (appends apply in
  // program order on the issuing thread).
  struct VerbChain {
    uint32_t dst = 0;
    uint32_t verbs = 0;   // WQEs linked since the last doorbell
    uint64_t bytes = 0;   // aggregate payload of those WQEs
    FaultCharge fault;    // latest stall and largest delay among those WQEs
    bool open() const { return verbs > 0; }
  };

  // Links one WRITE WQE onto `chain` (which must be closed or already bound
  // to `dst`) and applies its memory effects. Same failure surface as Write:
  // kAborted inside an HTM region (region doomed, nothing written),
  // kUnavailable for dead/dropped, kStaleEpoch when fenced — in every failure
  // case the WQE is not linked and the chain stays valid.
  Status ChainAppend(ThreadContext* ctx, VerbChain* chain, uint32_t dst, uint64_t offset,
                     const void* src, size_t len);
  // Rings the doorbell for `chain`: charges one posting cost, reserves NIC
  // occupancy for the whole chain, raises *completion_ns, and resets the
  // chain. No-op on an empty chain.
  void ChainRing(ThreadContext* ctx, VerbChain* chain, uint64_t* completion_ns);

  // Two-sided messaging (SEND/RECV verbs) — used for insert/delete shipping
  // (§4.3) and by the Calvin baseline (at IPoIB cost, set by the caller).
  // `qp` selects the target receive queue: 0 is the node's service queue,
  // 1 + worker_id addresses a specific worker (RPC replies).
  Status Send(ThreadContext* ctx, uint32_t dst, std::vector<std::byte> payload, uint32_t qp = 0);
  bool TryRecv(ThreadContext* ctx, Message* out, uint32_t qp = 0);

  // Full-duplex DMA engines: independent transmit and receive occupancy.
  struct Occupancy {
    SimResource tx;
    SimResource rx;
    void Reset() {
      tx.Reset();
      rx.Reset();
    }
  };

  // Multiple logical nodes on one machine share a physical NIC (Fig. 12):
  // point this NIC's occupancy at a shared one.
  void ShareOccupancy(Occupancy* shared) { occupancy_ = shared; }
  Occupancy* occupancy() { return occupancy_; }

  uint64_t verbs_issued() const { return verbs_issued_.load(std::memory_order_relaxed); }

  ServiceDoorbell* service_doorbell() { return &service_doorbell_; }

 private:
  friend class Fabric;

  static constexpr uint64_t kNoTimeout = ~0ull;

  // The RTM no-I/O rule: inside an HTM region the region is aborted and the
  // verb is not performed (false); otherwise the verb is counted as issued.
  bool IoAllowed(ThreadContext* ctx);
  // Books `busy_ns` on this NIC's transmit engine from `now_ns`, then on
  // `dst_nic`'s receive engine; returns the wire completion.
  uint64_t ReserveWire(uint64_t now_ns, RdmaNic* dst_nic, uint64_t busy_ns);
  // Charges a waited (completion_ns null: the clock passes the completion
  // plus `latency_ns`) or posted verb of `bytes` payload, then Delivers it.
  // Any injected fault is applied to the verb's own completion.
  Status Issue(ThreadContext* ctx, obs::Verb verb, uint32_t dst, uint64_t bytes,
               uint64_t latency_ns, uint64_t* completion_ns, uint64_t timeout_ns = kNoTimeout);
  // Admits a charged verb to `dst`: counts it, then returns kUnavailable if
  // it is lost (dead node, permanent partition, drop rule, or a stall past
  // `timeout_ns`, after charging the timeout), and for mutating verbs
  // kStaleEpoch if the issuer's epoch word lags the fence epoch. A verb the fault
  // plan delivers (even one then fenced) leaves its stall and delay in
  // *fault for the caller to apply to its completion.
  Status Deliver(ThreadContext* ctx, obs::Verb verb, uint32_t dst, uint64_t bytes,
                 FaultCharge* fault, uint64_t timeout_ns = kNoTimeout);

  Fabric* fabric_;
  uint32_t node_id_;
  const CostModel* cost_;
  Occupancy own_occupancy_;
  Occupancy* occupancy_ = &own_occupancy_;
  SimResource atomic_unit_;  // serializes RDMA atomics targeting this NIC (kHca)
  std::atomic<uint64_t> verbs_issued_{0};

  static constexpr uint32_t kRecvQueues = 64;
  std::mutex recv_mu_[kRecvQueues];
  std::deque<Message> recv_queue_[kRecvQueues];
  ServiceDoorbell service_doorbell_;
};

class Fabric {
 public:
  explicit Fabric(const CostModel* cost, AtomicityLevel atomicity = AtomicityLevel::kHca)
      : cost_(cost), atomicity_(atomicity) {}

  // Registers a machine's memory with the fabric; returns its node id.
  uint32_t AddNode(MemoryBus* bus);

  size_t num_nodes() const { return nodes_.size(); }
  RdmaNic* nic(uint32_t node) { return nodes_[node]->nic.get(); }
  MemoryBus* bus(uint32_t node) { return nodes_[node]->bus; }
  const CostModel* cost() const { return cost_; }
  AtomicityLevel atomicity() const { return atomicity_; }

  bool alive(uint32_t node) const { return nodes_[node]->alive.load(std::memory_order_acquire); }
  void Kill(uint32_t node) { nodes_[node]->alive.store(false, std::memory_order_release); }
  void Revive(uint32_t node) { nodes_[node]->alive.store(true, std::memory_order_release); }

  // Installs (or clears, with nullptr) the fault plan every verb consults.
  // The plan must outlive its installation and stay immutable while installed.
  void set_fault_plan(const FaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }
  const FaultPlan* fault_plan() const { return fault_plan_.load(std::memory_order_acquire); }

  // ---- epoch fencing (§5.2; DESIGN.md §10) ----
  //
  // Each machine's registered memory reserves the word at kEpochWordOff (the
  // allocator never hands out line 0) for the configuration epoch it was last
  // stamped with. The fence epoch is the newest configuration installed
  // cluster-wide: the membership layer's install step stamps every member's
  // word and only then raises the fence, so a configuration takes effect at
  // one instant. With fencing enabled, every *mutating* verb (WRITE / CAS /
  // FAA / SEND) whose issuer's word lags the fence is refused with
  // kStaleEpoch: the issuer has been fenced out of the configuration. No
  // member is ever refused because another member's stamp landed first.
  // READs stay exempt so a fenced node can still fetch the current epoch and
  // rejoin. Disabled (the default), the verb path is bit-identical to the
  // unfenced simulator.
  static constexpr uint64_t kEpochWordOff = 0;
  void set_epoch_fencing(bool on) { epoch_fencing_.store(on, std::memory_order_release); }
  bool epoch_fencing() const { return epoch_fencing_.load(std::memory_order_acquire); }
  uint64_t epoch_word(uint32_t node) { return bus(node)->ReadU64(nullptr, kEpochWordOff); }
  // Monotone raise of `node`'s word to at least `epoch`. A direct bus CAS:
  // a control-plane write that reaches a partitioned node and dooms any HTM
  // region that read the word.
  void StampEpoch(uint32_t node, uint64_t epoch);
  // Monotone raise of the fence epoch; call once every member carries it.
  void RaiseFence(uint64_t epoch);
  uint64_t fence_epoch() const { return fence_epoch_.load(std::memory_order_acquire); }

 private:
  friend class RdmaNic;

  struct NodePort {
    MemoryBus* bus = nullptr;
    std::unique_ptr<RdmaNic> nic;
    std::atomic<bool> alive{true};
  };

  const CostModel* cost_;
  AtomicityLevel atomicity_;
  std::vector<std::unique_ptr<NodePort>> nodes_;
  std::atomic<const FaultPlan*> fault_plan_{nullptr};
  std::atomic<bool> epoch_fencing_{false};
  std::atomic<uint64_t> fence_epoch_{0};
};

}  // namespace drtmr::sim

#endif  // DRTMR_SRC_SIM_FABRIC_H_
