#include "src/cluster/node.h"

#include "src/util/logging.h"

namespace drtmr::cluster {

namespace {

// HTM capacity of the paper's Haswell testbed, in cache lines.
constexpr uint32_t kHtmReadLines = 1024;  // lines trackable in the read set
constexpr uint32_t kHtmWriteLines = 512;  // 32KB L1 / 64B lines

}  // namespace

Node::Node(uint32_t id, size_t memory_bytes, size_t log_bytes, const sim::CostModel* cost,
           uint32_t slots)
    : id_(id),
      bus_(std::make_unique<sim::MemoryBus>(memory_bytes, cost, slots, kHtmReadLines,
                                            kHtmWriteLines)),
      htm_(std::make_unique<sim::HtmEngine>(bus_.get(), cost)),
      log_begin_(memory_bytes - log_bytes),
      log_size_(log_bytes) {
  DRTMR_CHECK(log_bytes < memory_bytes);
  // Offset 0 is reserved so stores can use 0 as a null record offset.
  alloc_ = std::make_unique<RegionAllocator>(kCacheLineSize, log_begin_);
  contexts_.reserve(slots);
  for (uint32_t i = 0; i < slots; ++i) {
    contexts_.push_back(std::make_unique<sim::ThreadContext>(
        id, i, /*seed=*/(static_cast<uint64_t>(id) << 32) | (i + 1)));
  }
}

Node::~Node() { StopService(); }

void Node::Revive() {
  killed_.store(false, std::memory_order_release);
  if (nic_ != nullptr) {
    nic_->service_doorbell()->Ring();
  }
}

void Node::StartService(MessageHandler handler, IdleFn idle, uint32_t slot) {
  DRTMR_CHECK(!service_running_.load());
  DRTMR_CHECK(nic_ != nullptr) << "service thread needs a NIC to sleep on";
  service_stop_.store(false);
  service_running_.store(true);
  if (slot == kAutoSlot) {
    slot = static_cast<uint32_t>(contexts_.size()) - 2;
  }
  sim::ThreadContext* ctx = contexts_[slot].get();
  service_thread_ = std::thread([this, ctx, handler = std::move(handler),
                                 idle = std::move(idle)] {
    sim::ServiceDoorbell* bell = nic_->service_doorbell();
    sim::Message msg;
    // After a pass that found no work the loop arms the doorbell and makes
    // one more pass: a producer that landed work before seeing the armed
    // flag is caught by that re-check, any later one rings (DESIGN.md §6).
    bool armed = false;
    while (!service_stop_.load(std::memory_order_acquire)) {
      bool busy = false;
      if (!killed()) {
        while (nic_->TryRecv(ctx, &msg)) {
          busy = true;
          handler(ctx, msg);
        }
        if (idle && idle(ctx)) {
          busy = true;
        }
      }
      if (busy) {
        if (armed) {
          bell->Disarm();
          armed = false;
        }
      } else if (!armed) {
        bell->Arm();
        armed = true;
      } else {
        bell->Sleep();
        armed = false;
      }
    }
  });
}

void Node::StopService() {
  if (service_running_.load()) {
    service_stop_.store(true, std::memory_order_release);
    nic_->service_doorbell()->Ring();
    service_thread_.join();
    service_running_.store(false);
  }
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  fabric_ = std::make_unique<sim::Fabric>(&cost_, config_.atomicity);
  const uint32_t slots = config_.workers_per_node + kAuxThreads + 1;
  const uint32_t machines =
      (config_.num_nodes + config_.logical_per_machine - 1) / config_.logical_per_machine;
  machine_nics_.reserve(machines);
  for (uint32_t m = 0; m < machines; ++m) {
    machine_nics_.push_back(std::make_unique<sim::RdmaNic::Occupancy>());
  }
  for (uint32_t i = 0; i < config_.num_nodes; ++i) {
    auto node =
        std::make_unique<Node>(i, config_.memory_bytes, config_.log_bytes, &cost_, slots);
    const uint32_t nid = fabric_->AddNode(node->bus());
    DRTMR_CHECK(nid == i);
    sim::RdmaNic* nic = fabric_->nic(i);
    if (config_.logical_per_machine > 1) {
      nic->ShareOccupancy(machine_nics_[i / config_.logical_per_machine].get());
    }
    node->AttachNic(nic);
    nodes_.push_back(std::move(node));
  }
}

Cluster::~Cluster() {
  for (auto& n : nodes_) {
    n->StopService();
  }
}

void Cluster::Kill(uint32_t id) {
  nodes_[id]->Kill();
  fabric_->Kill(id);
}

void Cluster::Revive(uint32_t id) {
  fabric_->Revive(id);
  nodes_[id]->Revive();
}

void Cluster::SetFaultPlan(const sim::FaultPlan* plan) {
  fabric_->set_fault_plan(plan);
  for (auto& n : nodes_) {
    n->htm()->set_fault_plan(plan);
  }
}

void Cluster::ResetSimTime() {
  for (auto& n : nodes_) {
    for (uint32_t s = 0; s < n->num_slots(); ++s) {
      n->context(s)->clock.Reset();
    }
    n->nic()->occupancy()->Reset();
  }
  for (auto& r : machine_nics_) {
    r->Reset();
  }
}

}  // namespace drtmr::cluster
