#include "src/sim/fabric.h"

#include "src/chk/protocol_analyzer.h"
#include "src/obs/metrics.h"
#include "src/sim/htm.h"
#include "src/util/logging.h"

namespace drtmr::sim {

uint32_t Fabric::AddNode(MemoryBus* bus) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  auto port = std::make_unique<NodePort>();
  port->bus = bus;
  port->nic = std::make_unique<RdmaNic>(this, id, cost_);
  nodes_.push_back(std::move(port));
  return id;
}

void Fabric::StampEpoch(uint32_t node, uint64_t epoch) {
  MemoryBus* b = bus(node);
  uint64_t cur = b->ReadU64(nullptr, kEpochWordOff);
  while (cur < epoch && !b->CasU64(nullptr, kEpochWordOff, cur, epoch, &cur)) {
  }
}

void Fabric::RaiseFence(uint64_t epoch) {
  uint64_t cur = fence_epoch_.load(std::memory_order_acquire);
  while (cur < epoch &&
         !fence_epoch_.compare_exchange_weak(cur, epoch, std::memory_order_acq_rel)) {
  }
}

bool RdmaNic::IoAllowed(ThreadContext* ctx) {
  // RTM forbids I/O: a verb issued inside an HTM region aborts the region and
  // the verb itself is not performed (the transaction layer must retry
  // outside, or restructure — which is exactly why DrTM+R's commit phase
  // keeps all RDMA steps outside the HTM-protected steps C.3/C.4).
  if (ctx->current_htm != nullptr) {
    ctx->current_htm->Abort(HtmTxn::AbortCode::kIo);
    if (chk::AnalyzerEnabled()) {
      chk::ProtocolAnalyzer::Global().OnVerbInRegion(ctx, /*aborted=*/true);
    }
    return false;
  }
  verbs_issued_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t RdmaNic::ReserveWire(uint64_t now_ns, RdmaNic* dst_nic, uint64_t busy_ns) {
  const uint64_t src_start = occupancy_->tx.Reserve(now_ns, busy_ns);
  if (dst_nic->occupancy() == occupancy()) {
    return src_start + busy_ns;
  }
  return dst_nic->occupancy()->rx.Reserve(src_start, busy_ns) + busy_ns;
}

Status RdmaNic::Issue(ThreadContext* ctx, obs::Verb verb, uint32_t dst, uint64_t bytes,
                      uint64_t latency_ns, uint64_t* completion_ns, uint64_t timeout_ns) {
  if (!IoAllowed(ctx)) {
    return Status::kAborted;
  }
  const uint64_t busy = cost_->nic_verb_busy_ns + cost_->TransferNs(bytes);
  const uint64_t done = ReserveWire(ctx->clock.now_ns(), fabric_->nic(dst), busy);
  FaultCharge fault;
  if (completion_ns == nullptr) {
    ctx->clock.AdvanceTo(done + latency_ns);
    const Status s = Deliver(ctx, verb, dst, bytes, &fault, timeout_ns);
    ctx->clock.AdvanceTo(fault.After(ctx->clock.now_ns()));
    return s;
  }
  // Posted: doorbell + WQE construction on the CPU; Fence awaits completion,
  // which carries this verb's own faults so batched verbs still overlap.
  ctx->Charge(kPostCpuNs);
  const Status s = Deliver(ctx, verb, dst, bytes, &fault, timeout_ns);
  *completion_ns = std::max(*completion_ns, fault.After(done));
  return s;
}

Status RdmaNic::Deliver(ThreadContext* ctx, obs::Verb verb, uint32_t dst, uint64_t bytes,
                        FaultCharge* fault, uint64_t timeout_ns) {
  obs::CountVerb(verb, node_id_, dst, bytes);
  if (!fabric_->alive(node_id_) || !fabric_->alive(dst)) {
    return Status::kUnavailable;
  }
  if (const FaultPlan* plan = fabric_->fault_plan(); plan != nullptr) {
    uint64_t delay_ns = 0;
    uint64_t stall_until_ns = 0;
    if (plan->OnVerb(ctx, node_id_, dst, &delay_ns, &stall_until_ns) !=
        FaultPlan::VerbFate::kDeliver) {
      return Status::kUnavailable;
    }
    const uint64_t now = ctx->clock.now_ns();
    if (stall_until_ns > now && stall_until_ns - now > timeout_ns) {
      // The stall outlasts the transport's retry budget: complete with an
      // error after the timeout instead of waiting the window out.
      ctx->Charge(timeout_ns);
      return Status::kUnavailable;
    }
    *fault = FaultCharge{stall_until_ns, delay_ns};
  }
  if (verb == obs::Verb::kRead) {
    return Status::kOk;  // READs are never fenced: a fenced node rejoins by reading
  }
  // Load the fence before the issuer's word: the install step stamps every
  // member before it raises the fence, so a member that sees the new fence
  // also sees its own new stamp. Reading the word non-transactionally is
  // HTM-safe: a plain bus read only dooms regions that *write* the line, and
  // nothing but an epoch stamp ever writes line 0.
  const uint64_t fence = fabric_->epoch_fencing() ? fabric_->fence_epoch() : 0;
  if (fence != 0 && fabric_->epoch_word(node_id_) < fence) {
    obs::Count(obs::Counter::kFenceRejectedVerb);
    return Status::kStaleEpoch;
  }
  // Conformance check for epoch fencing (analyzer class 5): the analyzer
  // re-derives the verdict from its own shadow of the issuer's word, so an
  // admission path that lost the fence above still trips it.
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().OnVerbAdmitted(fabric_->bus(node_id_), node_id_, dst, fence);
  }
  return Status::kOk;
}

void RdmaNic::Fence(ThreadContext* ctx, uint64_t completion_ns, uint64_t latency_ns) {
  ctx->clock.AdvanceTo(completion_ns + latency_ns);
}

Status RdmaNic::Read(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf, size_t len,
                     uint64_t* completion_ns) {
  const Status s = Issue(ctx, obs::Verb::kRead, dst, len, cost_->rdma_read_ns, completion_ns);
  if (s == Status::kOk) {
    fabric_->bus(dst)->Read(/*ctx=*/nullptr, offset, buf, len);
  }
  return s;
}

Status RdmaNic::ReadTimeout(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf,
                            size_t len, uint64_t timeout_ns) {
  const Status s =
      Issue(ctx, obs::Verb::kRead, dst, len, cost_->rdma_read_ns, nullptr, timeout_ns);
  if (s == Status::kOk) {
    fabric_->bus(dst)->Read(/*ctx=*/nullptr, offset, buf, len);
  }
  return s;
}

Status RdmaNic::Write(ThreadContext* ctx, uint32_t dst, uint64_t offset, const void* src,
                      size_t len, uint64_t* completion_ns) {
  if (Status s = Issue(ctx, obs::Verb::kWrite, dst, len, cost_->rdma_write_ns, completion_ns);
      s != Status::kOk) {
    return s;
  }
  // The verb bypasses the remote CPU (ctx == nullptr below); pin the issuing
  // worker's identity so the analyzer can attribute the store.
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  fabric_->bus(dst)->Write(/*ctx=*/nullptr, offset, src, len);
  return Status::kOk;
}

Status RdmaNic::CompareSwap(ThreadContext* ctx, uint32_t dst, uint64_t offset, uint64_t expected,
                            uint64_t desired, uint64_t* observed, uint64_t* completion_ns) {
  if (Status s = Issue(ctx, obs::Verb::kCas, dst, sizeof(uint64_t), cost_->rdma_atomic_ns,
                       completion_ns);
      s != Status::kOk) {
    return s;
  }
  // Under IBV_ATOMIC_HCA, atomics are serialized by the target HCA rather
  // than by the host's coherence fabric: a waited CAS reserves the NIC's
  // atomic unit in virtual time. The actual memory update still goes through
  // the bus so the simulation stays race-free; see DESIGN.md §6 for the
  // fidelity note.
  if (completion_ns == nullptr && fabric_->atomicity() == AtomicityLevel::kHca) {
    const uint64_t start = fabric_->nic(dst)->atomic_unit_.Reserve(ctx->clock.now_ns(), 1);
    ctx->clock.AdvanceTo(start + 1);
  }
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  const bool swapped = fabric_->bus(dst)->CasU64(/*ctx=*/nullptr, offset, expected, desired,
                                                 observed);
  return swapped ? Status::kOk : Status::kConflict;
}

Status RdmaNic::FetchAdd(ThreadContext* ctx, uint32_t dst, uint64_t offset, uint64_t delta,
                         uint64_t* old_value) {
  if (Status s = Issue(ctx, obs::Verb::kFaa, dst, sizeof(uint64_t), cost_->rdma_atomic_ns,
                       nullptr);
      s != Status::kOk) {
    return s;
  }
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  const uint64_t old = fabric_->bus(dst)->FetchAddU64(/*ctx=*/nullptr, offset, delta);
  if (old_value != nullptr) {
    *old_value = old;
  }
  return Status::kOk;
}

Status RdmaNic::ChainAppend(ThreadContext* ctx, VerbChain* chain, uint32_t dst, uint64_t offset,
                            const void* src, size_t len) {
  DRTMR_CHECK(!chain->open() || chain->dst == dst);
  if (!IoAllowed(ctx)) {
    return Status::kAborted;
  }
  // WQE link: CPU only. Occupancy for the wire work is reserved in one piece
  // by ChainRing, which is the whole point of the batch.
  ctx->Charge(cost_->chain_wqe_build_ns + cost_->CopyNs(len));
  FaultCharge fault;
  if (Status s = Deliver(ctx, obs::Verb::kWrite, dst, len, &fault); s != Status::kOk) {
    return s;
  }
  chain->dst = dst;
  chain->verbs++;
  chain->bytes += len;
  chain->fault.stall_until_ns = std::max(chain->fault.stall_until_ns, fault.stall_until_ns);
  chain->fault.delay_ns = std::max(chain->fault.delay_ns, fault.delay_ns);
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  fabric_->bus(dst)->Write(/*ctx=*/nullptr, offset, src, len);
  // Chains carry log slots and watermarks, which the target's pump consumes.
  fabric_->nic(dst)->service_doorbell_.Ring();
  return Status::kOk;
}

void RdmaNic::ChainRing(ThreadContext* ctx, VerbChain* chain, uint64_t* completion_ns) {
  if (!chain->open()) {
    return;
  }
  const uint64_t busy = cost_->nic_verb_busy_ns +
                        (chain->verbs - 1) * cost_->nic_chained_verb_busy_ns +
                        cost_->TransferNs(chain->bytes);
  // The chain's WQEs share one wire completion, so their faults overlap too.
  const uint64_t done =
      chain->fault.After(ReserveWire(ctx->clock.now_ns(), fabric_->nic(chain->dst), busy));
  ctx->Charge(kPostCpuNs);  // one doorbell for the whole chain
  obs::Count(obs::Counter::kFabricDoorbells);
  obs::Count(obs::Counter::kFabricChainedVerbs, chain->verbs);
  if (completion_ns != nullptr && done > *completion_ns) {
    *completion_ns = done;
  }
  *chain = VerbChain{};
}

Status RdmaNic::Send(ThreadContext* ctx, uint32_t dst, std::vector<std::byte> payload,
                     uint32_t qp) {
  DRTMR_CHECK(qp < kRecvQueues);
  if (Status s = Issue(ctx, obs::Verb::kSend, dst, payload.size(), cost_->send_recv_ns, nullptr);
      s != Status::kOk) {
    return s;
  }
  RdmaNic* dst_nic = fabric_->nic(dst);
  Message m;
  m.src_node = node_id_;
  m.payload = std::move(payload);
  {
    std::lock_guard<std::mutex> g(dst_nic->recv_mu_[qp]);
    dst_nic->recv_queue_[qp].push_back(std::move(m));
  }
  if (qp == 0) {
    dst_nic->service_doorbell_.Ring();
  }
  return Status::kOk;
}

bool RdmaNic::TryRecv(ThreadContext* ctx, Message* out, uint32_t qp) {
  DRTMR_CHECK(qp < kRecvQueues);
  std::lock_guard<std::mutex> g(recv_mu_[qp]);
  if (recv_queue_[qp].empty()) {
    return false;
  }
  *out = std::move(recv_queue_[qp].front());
  recv_queue_[qp].pop_front();
  if (ctx != nullptr) {
    ctx->Charge(cost_->line_access_ns);
  }
  return true;
}

}  // namespace drtmr::sim
