#include "src/sim/htm.h"

#include <algorithm>
#include <cstring>

#include "src/chk/protocol_analyzer.h"
#include "src/sim/fault.h"
#include "src/util/logging.h"

namespace drtmr::sim {

HtmEngine::HtmEngine(MemoryBus* bus, const CostModel* cost) : bus_(bus), cost_(cost) {
  txns_.reserve(bus->num_slots());
  for (uint32_t i = 0; i < bus->num_slots(); ++i) {
    txns_.push_back(new HtmTxn(this, bus, bus->desc(i)));
  }
}

HtmEngine::~HtmEngine() {
  for (HtmTxn* t : txns_) {
    delete t;
  }
}

HtmTxn* HtmEngine::Begin(ThreadContext* ctx, obs::HtmSite site) {
  if (ctx->current_htm != nullptr) {
    return nullptr;
  }
  DRTMR_CHECK(ctx->worker_id < txns_.size()) << "worker slot out of range";
  HtmTxn* txn = txns_[ctx->worker_id];
  txn->BeginInternal(ctx, site);
  return txn;
}

HtmEngine::Stats& HtmEngine::stats() {
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts[HtmTxn::kAbortCodes] = {};
  for (const HtmTxn* t : txns_) {
    begins += t->counters_.begins.load(std::memory_order_relaxed);
    commits += t->counters_.commits.load(std::memory_order_relaxed);
    for (size_t code = 0; code < HtmTxn::kAbortCodes; ++code) {
      aborts[code] += t->counters_.aborts[code].load(std::memory_order_relaxed);
    }
  }
  auto aborted = [&aborts](HtmTxn::AbortCode code) { return aborts[static_cast<size_t>(code)]; };
  stats_.begins = begins;
  stats_.commits = commits;
  stats_.aborts_conflict = aborted(HtmTxn::AbortCode::kConflict);
  stats_.aborts_capacity = aborted(HtmTxn::AbortCode::kCapacity);
  stats_.aborts_explicit = aborted(HtmTxn::AbortCode::kExplicit);
  stats_.aborts_io = aborted(HtmTxn::AbortCode::kIo);
  return stats_;
}

void HtmTxn::BeginInternal(ThreadContext* ctx, obs::HtmSite site) {
  ctx_ = ctx;
  in_txn_ = true;
  site_ = site;
  last_abort_ = AbortCode::kNone;
  redo_.Clear();
  desc_->doom_code.store(HtmDesc::kNone, std::memory_order_relaxed);
  desc_->state.store(HtmDesc::kActive, std::memory_order_release);
  ctx->current_htm = this;
  Bump(counters_.begins);
  ctx->Charge(engine_->cost_->htm_begin_ns * bus_->cost_scale_pct() / 100);
}

bool HtmTxn::active() const {
  return in_txn_ && desc_->state.load(std::memory_order_acquire) == HtmDesc::kActive;
}

void HtmTxn::End(bool committed) {
  if (!committed) {
    // Resolve the abort reason: an explicit Abort() already set last_abort_;
    // otherwise take the doom code planted by the conflicting access.
    if (last_abort_ == AbortCode::kNone) {
      last_abort_ = static_cast<AbortCode>(desc_->doom_code.load(std::memory_order_acquire));
      if (last_abort_ == AbortCode::kNone) {
        last_abort_ = AbortCode::kConflict;
      }
    }
    Bump(counters_.aborts[static_cast<size_t>(last_abort_)]);
    if (obs::Enabled()) {
      obs::Registry& reg = obs::Registry::Global();
      reg.AddHtmAbort(static_cast<uint32_t>(last_abort_), site_);
      if (obs::TraceEnabled()) {
        reg.AddTrace(obs::TraceName::kHtmAbort, ctx_->node_id, ctx_->worker_id,
                     ctx_->clock.now_ns(), 0, static_cast<uint64_t>(last_abort_),
                     /*instant=*/true);
      }
    }
    ctx_->Charge(engine_->cost_->htm_abort_ns * bus_->cost_scale_pct() / 100);
  } else {
    Bump(counters_.commits);
    ctx_->Charge(engine_->cost_->htm_commit_ns * bus_->cost_scale_pct() / 100);
  }
  desc_->state.store(HtmDesc::kFree, std::memory_order_release);
  desc_->reads.Clear();
  desc_->writes.Clear();
  redo_.Clear();
  ctx_->current_htm = nullptr;
  in_txn_ = false;
  ctx_ = nullptr;
}

void HtmTxn::OverlayRedo(uint64_t offset, void* dst, size_t len) const {
  auto* out = static_cast<std::byte*>(dst);
  for (const RedoLog::Entry& e : redo_.entries()) {
    const uint64_t lo = std::max(offset, e.offset);
    const uint64_t hi = std::min(offset + len, e.offset + e.len);
    if (lo < hi) {
      std::memcpy(out + (lo - offset), redo_.data(e) + (lo - e.offset), hi - lo);
    }
  }
}

Status HtmTxn::Read(uint64_t offset, void* dst, size_t len) {
  if (!in_txn_) {
    return Status::kAborted;
  }
  if (!active()) {
    End(false);
    return Status::kAborted;
  }
  if (!bus_->TxRead(ctx_, desc_, offset, dst, len)) {
    End(false);
    return Status::kAborted;
  }
  if (CrossSocketEviction(offset, len)) {
    Abort(AbortCode::kCapacity);
    return Status::kAborted;
  }
  OverlayRedo(offset, dst, len);
  return Status::kOk;
}

bool HtmTxn::CrossSocketEviction(uint64_t offset, size_t len) {
  // Cross-socket runs add an eviction/conflict probability per tracked line
  // (see CostModel::cross_socket_htm_abort_ppm_per_line). Regions tracking
  // many lines — whole-transaction HTM as in DrTM — abort much more often
  // than DrTM+R's commit-only regions.
  if (bus_->cost_scale_pct() <= 100) {
    return false;
  }
  const uint64_t ppm = engine_->cost()->cross_socket_htm_abort_ppm_per_line;
  if (ppm == 0) {
    return false;
  }
  const uint64_t lines = LineEnd(offset, len) - LineOf(offset);
  return ctx_->rng.Uniform(1000000) < ppm * lines;
}

Status HtmTxn::Write(uint64_t offset, const void* src, size_t len) {
  if (!in_txn_) {
    return Status::kAborted;
  }
  if (!active()) {
    End(false);
    return Status::kAborted;
  }
  if (!bus_->TxRegisterWrite(ctx_, desc_, offset, len)) {
    End(false);
    return Status::kAborted;
  }
  if (CrossSocketEviction(offset, len)) {
    Abort(AbortCode::kCapacity);
    return Status::kAborted;
  }
  redo_.Append(offset, src, len);
  return Status::kOk;
}

Status HtmTxn::ReadU64(uint64_t offset, uint64_t* value) {
  return Read(offset, value, sizeof(*value));
}

Status HtmTxn::WriteU64(uint64_t offset, uint64_t value) {
  return Write(offset, &value, sizeof(value));
}

Status HtmTxn::Commit() {
  if (!in_txn_) {
    return Status::kInvalid;
  }
  if (active()) {
    if (const FaultPlan* plan = engine_->fault_plan()) {
      const uint32_t code = plan->ForcedHtmAbort(ctx_, site_, ctx_->clock.now_ns());
      if (code != 0) {
        Abort(static_cast<AbortCode>(code));
        return Status::kAborted;
      }
    }
  }
  const bool committed = bus_->TxCommitApply(ctx_, desc_, redo_);
  if (committed && chk::AnalyzerEnabled()) {
    // Fold the just-applied redo into the analyzer's record shadows; HTM
    // commits are protected by definition, so no unlocked-write check runs.
    chk::ProtocolAnalyzer::Global().OnTxCommitApply(bus_, ctx_, redo_);
  }
  End(committed);
  return committed ? Status::kOk : Status::kAborted;
}

void HtmTxn::Abort(AbortCode code) {
  if (!in_txn_) {
    return;
  }
  last_abort_ = code;
  End(false);
}

}  // namespace drtmr::sim
