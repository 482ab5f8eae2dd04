#include "src/sim/fabric.h"

#include "src/chk/protocol_analyzer.h"
#include "src/obs/metrics.h"
#include "src/sim/htm.h"
#include "src/util/logging.h"

namespace drtmr::sim {
namespace {

// Conformance check for epoch fencing (analyzer class 5), deliberately placed
// in each mutating verb *independently* of FenceCheck: a verb path that lost
// its fence call still trips the analyzer.
inline void AnalyzerVerbAdmitted(Fabric* fabric, uint32_t src, uint32_t dst) {
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().OnVerbAdmitted(fabric->bus(src), fabric->bus(dst), src, dst,
                                                   fabric->epoch_fencing());
  }
}

}  // namespace

uint32_t Fabric::AddNode(MemoryBus* bus) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  auto port = std::make_unique<NodePort>();
  port->bus = bus;
  port->nic = std::make_unique<RdmaNic>(this, id, cost_);
  nodes_.push_back(std::move(port));
  return id;
}

bool RdmaNic::ChargeVerb(ThreadContext* ctx, RdmaNic* dst_nic, uint64_t latency_ns,
                         uint64_t bytes, bool posted, uint64_t* completion_ns) {
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
  const uint64_t busy = cost_->nic_verb_busy_ns + cost_->TransferNs(bytes);
  const uint64_t src_start = occupancy_->tx.Reserve(ctx->clock.now_ns(), busy);
  uint64_t done = src_start + busy;
  if (dst_nic->occupancy() != occupancy()) {
    const uint64_t dst_start = dst_nic->occupancy()->rx.Reserve(src_start, busy);
    done = dst_start + busy;
  }
  if (posted) {
    // Doorbell + WQE construction on the CPU; completion is awaited by Fence.
    ctx->Charge(kPostCpuNs);
    if (completion_ns != nullptr && done > *completion_ns) {
      *completion_ns = done;
    }
  } else {
    ctx->clock.AdvanceTo(done + latency_ns);
  }
  return true;
}

void RdmaNic::Fence(ThreadContext* ctx, uint64_t completion_ns, uint64_t latency_ns) {
  ctx->clock.AdvanceTo(completion_ns + latency_ns);
}

Status RdmaNic::ApplyFaults(ThreadContext* ctx, uint32_t dst, uint64_t* completion_ns) {
  if (!fabric_->alive(node_id_) || !fabric_->alive(dst)) {
    return Status::kUnavailable;
  }
  const FaultPlan* plan = fabric_->fault_plan();
  if (plan == nullptr) {
    return Status::kOk;
  }
  uint64_t extra_ns = 0;
  uint64_t stall_until_ns = 0;
  switch (plan->OnVerb(ctx, node_id_, dst, &extra_ns, &stall_until_ns)) {
    case FaultPlan::VerbFate::kUnreachable:
    case FaultPlan::VerbFate::kDrop:
      return Status::kUnavailable;
    case FaultPlan::VerbFate::kDeliver:
      break;
  }
  if (completion_ns != nullptr) {
    // Posted verb: its completion slides out; the caller observes the
    // stall/delay at Fence, so batched verbs still overlap.
    if (stall_until_ns > *completion_ns) {
      *completion_ns = stall_until_ns;
    }
    *completion_ns += extra_ns;
  } else {
    if (stall_until_ns > ctx->clock.now_ns()) {
      ctx->clock.AdvanceTo(stall_until_ns);
    }
    if (extra_ns > 0) {
      ctx->Charge(extra_ns);
    }
  }
  return Status::kOk;
}

Status RdmaNic::ApplyFaultsBounded(ThreadContext* ctx, uint32_t dst, uint64_t timeout_ns) {
  if (!fabric_->alive(node_id_) || !fabric_->alive(dst)) {
    return Status::kUnavailable;
  }
  const FaultPlan* plan = fabric_->fault_plan();
  if (plan == nullptr) {
    return Status::kOk;
  }
  uint64_t extra_ns = 0;
  uint64_t stall_until_ns = 0;
  switch (plan->OnVerb(ctx, node_id_, dst, &extra_ns, &stall_until_ns)) {
    case FaultPlan::VerbFate::kUnreachable:
    case FaultPlan::VerbFate::kDrop:
      return Status::kUnavailable;
    case FaultPlan::VerbFate::kDeliver:
      break;
  }
  const uint64_t now = ctx->clock.now_ns();
  if (stall_until_ns > now + timeout_ns) {
    // The stall outlasts the transport's retry budget: complete with an error
    // after the timeout instead of waiting the window out.
    ctx->Charge(timeout_ns);
    return Status::kUnavailable;
  }
  if (stall_until_ns > now) {
    ctx->clock.AdvanceTo(stall_until_ns);
  }
  if (extra_ns > 0) {
    ctx->Charge(extra_ns);
  }
  return Status::kOk;
}

Status RdmaNic::FenceCheck(uint32_t dst) {
  if (!fabric_->epoch_fencing()) {
    return Status::kOk;
  }
  // Reading the epoch words non-transactionally is HTM-safe: a plain bus read
  // only dooms regions that *write* the line, and nothing but the membership
  // stamp ever writes line 0.
  const uint64_t src_epoch = fabric_->bus(node_id_)->ReadU64(nullptr, Fabric::kEpochWordOff);
  const uint64_t dst_epoch = fabric_->bus(dst)->ReadU64(nullptr, Fabric::kEpochWordOff);
  if (src_epoch < dst_epoch) {
    obs::Count(obs::Counter::kFenceRejectedVerb);
    return Status::kStaleEpoch;
  }
  return Status::kOk;
}

Status RdmaNic::ReadPosted(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf,
                           size_t len, uint64_t* completion_ns) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_read_ns, len, /*posted=*/true, completion_ns)) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kRead, node_id_, dst, len);
  if (Status s = ApplyFaults(ctx, dst, completion_ns); s != Status::kOk) {
    return s;
  }
  fabric_->bus(dst)->Read(/*ctx=*/nullptr, offset, buf, len);
  return Status::kOk;
}

Status RdmaNic::WritePosted(ThreadContext* ctx, uint32_t dst, uint64_t offset, const void* src,
                            size_t len, uint64_t* completion_ns) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_write_ns, len, /*posted=*/true, completion_ns)) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kWrite, node_id_, dst, len);
  if (Status s = ApplyFaults(ctx, dst, completion_ns); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
  // The verb bypasses the remote CPU (ctx == nullptr below); pin the issuing
  // worker's identity so the analyzer can attribute the store.
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  fabric_->bus(dst)->Write(/*ctx=*/nullptr, offset, src, len);
  return Status::kOk;
}

Status RdmaNic::ChainAppend(ThreadContext* ctx, VerbChain* chain, uint32_t dst, uint64_t offset,
                            const void* src, size_t len) {
  DRTMR_CHECK(!chain->open() || chain->dst == dst);
  if (ctx->current_htm != nullptr) {
    ctx->current_htm->Abort(HtmTxn::AbortCode::kIo);
    if (chk::AnalyzerEnabled()) {
      chk::ProtocolAnalyzer::Global().OnVerbInRegion(ctx, /*aborted=*/true);
    }
    return Status::kAborted;
  }
  // WQE link: CPU only. Occupancy for the wire work is reserved in one piece
  // by ChainRing, which is the whole point of the batch.
  verbs_issued_.fetch_add(1, std::memory_order_relaxed);
  ctx->Charge(cost_->chain_wqe_build_ns + cost_->CopyNs(len));
  obs::CountVerb(obs::Verb::kWrite, node_id_, dst, len);
  if (Status s = ApplyFaults(ctx, dst, &chain->fault_floor_ns); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  chain->dst = dst;
  chain->verbs++;
  chain->bytes += len;
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
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
  RdmaNic* dst_nic = fabric_->nic(chain->dst);
  const uint64_t busy = cost_->nic_verb_busy_ns +
                        (chain->verbs - 1) * cost_->nic_chained_verb_busy_ns +
                        cost_->TransferNs(chain->bytes);
  const uint64_t src_start = occupancy_->tx.Reserve(ctx->clock.now_ns(), busy);
  uint64_t done = src_start + busy;
  if (dst_nic->occupancy() != occupancy()) {
    const uint64_t dst_start = dst_nic->occupancy()->rx.Reserve(src_start, busy);
    done = dst_start + busy;
  }
  if (chain->fault_floor_ns > done) {
    done = chain->fault_floor_ns;
  }
  ctx->Charge(kPostCpuNs);  // one doorbell for the whole chain
  obs::Count(obs::Counter::kFabricDoorbells);
  obs::Count(obs::Counter::kFabricChainedVerbs, chain->verbs);
  if (completion_ns != nullptr && done > *completion_ns) {
    *completion_ns = done;
  }
  *chain = VerbChain{};
}

Status RdmaNic::CompareSwapPosted(ThreadContext* ctx, uint32_t dst, uint64_t offset,
                                  uint64_t expected, uint64_t desired, uint64_t* observed,
                                  uint64_t* completion_ns) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_atomic_ns, sizeof(uint64_t), /*posted=*/true,
                  completion_ns)) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kCas, node_id_, dst, sizeof(uint64_t));
  if (Status s = ApplyFaults(ctx, dst, completion_ns); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  const bool swapped = fabric_->bus(dst)->CasU64(/*ctx=*/nullptr, offset, expected, desired,
                                                 observed);
  return swapped ? Status::kOk : Status::kConflict;
}

Status RdmaNic::Read(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf, size_t len) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_read_ns, len)) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kRead, node_id_, dst, len);
  if (Status s = ApplyFaults(ctx, dst); s != Status::kOk) {
    return s;
  }
  fabric_->bus(dst)->Read(/*ctx=*/nullptr, offset, buf, len);
  return Status::kOk;
}

Status RdmaNic::ReadTimeout(ThreadContext* ctx, uint32_t dst, uint64_t offset, void* buf,
                            size_t len, uint64_t timeout_ns) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_read_ns, len)) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kRead, node_id_, dst, len);
  if (Status s = ApplyFaultsBounded(ctx, dst, timeout_ns); s != Status::kOk) {
    return s;
  }
  fabric_->bus(dst)->Read(/*ctx=*/nullptr, offset, buf, len);
  return Status::kOk;
}

Status RdmaNic::Write(ThreadContext* ctx, uint32_t dst, uint64_t offset, const void* src,
                      size_t len) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_write_ns, len)) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kWrite, node_id_, dst, len);
  if (Status s = ApplyFaults(ctx, dst); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  fabric_->bus(dst)->Write(/*ctx=*/nullptr, offset, src, len);
  return Status::kOk;
}

Status RdmaNic::CompareSwap(ThreadContext* ctx, uint32_t dst, uint64_t offset, uint64_t expected,
                            uint64_t desired, uint64_t* observed) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_atomic_ns, sizeof(uint64_t))) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kCas, node_id_, dst, sizeof(uint64_t));
  if (Status s = ApplyFaults(ctx, dst); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  // Under IBV_ATOMIC_HCA, atomics are serialized by the target HCA rather
  // than by the host's coherence fabric: reserve the NIC's atomic unit in
  // virtual time. The actual memory update still goes through the bus so the
  // simulation stays race-free; see DESIGN.md §6 for the fidelity note.
  if (fabric_->atomicity() == AtomicityLevel::kHca) {
    const uint64_t start = dst_nic->atomic_unit_.Reserve(ctx->clock.now_ns(), 1);
    ctx->clock.AdvanceTo(start + 1);
  }
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  const bool swapped = fabric_->bus(dst)->CasU64(/*ctx=*/nullptr, offset, expected, desired,
                                                 observed);
  return swapped ? Status::kOk : Status::kConflict;
}

Status RdmaNic::FetchAdd(ThreadContext* ctx, uint32_t dst, uint64_t offset, uint64_t delta,
                         uint64_t* old_value) {
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->rdma_atomic_ns, sizeof(uint64_t))) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kFaa, node_id_, dst, sizeof(uint64_t));
  if (Status s = ApplyFaults(ctx, dst); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
  chk::ScopedActor actor(node_id_, ctx->worker_id);
  const uint64_t old = fabric_->bus(dst)->FetchAddU64(/*ctx=*/nullptr, offset, delta);
  if (old_value != nullptr) {
    *old_value = old;
  }
  return Status::kOk;
}

Status RdmaNic::Send(ThreadContext* ctx, uint32_t dst, std::vector<std::byte> payload,
                     uint32_t qp) {
  DRTMR_CHECK(qp < kRecvQueues);
  RdmaNic* dst_nic = fabric_->nic(dst);
  if (!ChargeVerb(ctx, dst_nic, cost_->send_recv_ns, payload.size())) {
    return Status::kAborted;
  }
  obs::CountVerb(obs::Verb::kSend, node_id_, dst, payload.size());
  if (Status s = ApplyFaults(ctx, dst); s != Status::kOk) {
    return s;
  }
  if (Status s = FenceCheck(dst); s != Status::kOk) {
    return s;
  }
  AnalyzerVerbAdmitted(fabric_, node_id_, dst);
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
