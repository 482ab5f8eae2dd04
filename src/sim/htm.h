// Software simulation of Intel Restricted Transactional Memory (RTM).
//
// An HtmTxn corresponds to one XBEGIN..XEND region. Semantics reproduced:
//  * cache-line-granularity read/write sets with bounded capacity
//    (capacity aborts; the write set models the 32KB L1 budget, §6.4);
//  * eager conflict detection with strong atomicity — conflicting accesses
//    from outside the region (plain CPU ops or RDMA verbs) doom the region;
//  * buffered (speculative) writes invisible until an atomic commit;
//  * explicit aborts (XABORT), used by the protocol when a local read finds a
//    record locked by a remote committer (Fig. 5);
//  * best-effort only: no forward-progress guarantee, hence the transaction
//    layer's fallback handler (§6.1);
//  * no I/O: any RDMA verb issued while inside the region aborts it (the NIC
//    enforces this via ThreadContext::current_htm).
//
// Control flow is status-based rather than setjmp-based: every operation
// returns a Status, and callers bail out on kAborted. The enclosing retry
// loop lives in the transaction layer, as it would around XBEGIN.
#ifndef DRTMR_SRC_SIM_HTM_H_
#define DRTMR_SRC_SIM_HTM_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/memory_bus.h"
#include "src/sim/thread_context.h"
#include "src/util/status.h"

namespace drtmr::sim {

class FaultPlan;
class HtmEngine;

class HtmTxn {
 public:
  enum class AbortCode : uint32_t {
    kNone = 0,
    kConflict = HtmDesc::kConflict,
    kCapacity = HtmDesc::kCapacity,
    kExplicit = HtmDesc::kExplicit,
    kIo = HtmDesc::kIo,
  };

  // All accessors return kOk, or kAborted once the region is doomed/ended.
  Status Read(uint64_t offset, void* dst, size_t len);
  Status Write(uint64_t offset, const void* src, size_t len);
  Status ReadU64(uint64_t offset, uint64_t* value);
  Status WriteU64(uint64_t offset, uint64_t value);

  // XEND. Returns kOk if the region committed atomically, kAborted otherwise.
  // Either way the region is over afterwards.
  Status Commit();
  // XABORT. Ends the region, discarding buffered writes.
  void Abort(AbortCode code = AbortCode::kExplicit);

  bool active() const;
  AbortCode abort_code() const { return last_abort_; }

 private:
  friend class HtmEngine;
  HtmTxn(HtmEngine* engine, MemoryBus* bus, HtmDesc* desc) : engine_(engine), bus_(bus), desc_(desc) {}

  void BeginInternal(ThreadContext* ctx, obs::HtmSite site);
  bool CrossSocketEviction(uint64_t offset, size_t len);
  // Ends the region: clears sets/redo and detaches from the thread context.
  void End(bool committed);
  // Copies buffered bytes overlapping [offset, offset+len) over dst.
  void OverlayRedo(uint64_t offset, void* dst, size_t len) const;

  HtmEngine* engine_;
  MemoryBus* bus_;
  HtmDesc* desc_;
  ThreadContext* ctx_ = nullptr;
  bool in_txn_ = false;
  AbortCode last_abort_ = AbortCode::kNone;
  obs::HtmSite site_ = obs::HtmSite::kOther;  // call site, keys the abort taxonomy
  std::vector<RedoEntry> redo_;
};

class HtmEngine {
 public:
  struct Stats {
    std::atomic<uint64_t> begins{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> aborts_conflict{0};
    std::atomic<uint64_t> aborts_capacity{0};
    std::atomic<uint64_t> aborts_explicit{0};
    std::atomic<uint64_t> aborts_io{0};

    uint64_t TotalAborts() const {
      return aborts_conflict + aborts_capacity + aborts_explicit + aborts_io;
    }
  };

  HtmEngine(MemoryBus* bus, const CostModel* cost);
  HtmEngine(const HtmEngine&) = delete;
  HtmEngine& operator=(const HtmEngine&) = delete;
  ~HtmEngine();

  // XBEGIN on the calling thread (slot = ctx->worker_id). Returns nullptr if
  // the thread is already inside a region (we do not model flattened nesting).
  // `site` tags the region for the observability abort taxonomy (§6.4).
  HtmTxn* Begin(ThreadContext* ctx, obs::HtmSite site = obs::HtmSite::kOther);

  Stats& stats() { return stats_; }
  MemoryBus* bus() { return bus_; }
  const CostModel* cost() const { return cost_; }

  // Fault injection (sim/fault.h): regions whose call site matches a
  // ForceHtmAbort rule abort at XEND instead of committing, exercising the
  // fallback handler deterministically. nullptr clears.
  void set_fault_plan(const FaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }
  const FaultPlan* fault_plan() const { return fault_plan_.load(std::memory_order_acquire); }

 private:
  friend class HtmTxn;
  void RecordAbort(HtmTxn::AbortCode code);

  MemoryBus* bus_;
  const CostModel* cost_;
  std::vector<HtmTxn*> txns_;  // one per descriptor slot
  Stats stats_;
  std::atomic<const FaultPlan*> fault_plan_{nullptr};
};

}  // namespace drtmr::sim

#endif  // DRTMR_SRC_SIM_HTM_H_
