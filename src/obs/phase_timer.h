// RAII per-phase timer driven by the virtual clock. Construction snapshots
// the calling worker's SimClock; Stop() (or destruction) attributes the
// elapsed virtual nanoseconds to the phase histogram and, when tracing is on,
// emits a matching trace span. When the registry is disabled the constructor
// is a single relaxed load and the timer is inert.
#ifndef DRTMR_SRC_OBS_PHASE_TIMER_H_
#define DRTMR_SRC_OBS_PHASE_TIMER_H_

#include "src/obs/metrics.h"
#include "src/sim/thread_context.h"

namespace drtmr::obs {

class PhaseTimer {
 public:
  PhaseTimer(sim::ThreadContext* ctx, Phase phase) {
    if (Enabled()) {
      ctx_ = ctx;
      phase_ = phase;
      start_ns_ = ctx->clock.now_ns();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { Stop(); }

  // Ends the phase early (idempotent); the destructor is then a no-op.
  void Stop() {
    if (ctx_ == nullptr) {
      return;
    }
    const uint64_t end_ns = ctx_->clock.now_ns();
    Registry& reg = Registry::Global();
    reg.AddPhase(phase_, end_ns - start_ns_);
    if (TraceEnabled()) {
      reg.AddTrace(TraceNameOf(phase_), ctx_->node_id, ctx_->worker_id, start_ns_,
                   end_ns - start_ns_, 0);
    }
    ctx_ = nullptr;
  }

 private:
  sim::ThreadContext* ctx_ = nullptr;
  Phase phase_ = Phase::kExecution;
  uint64_t start_ns_ = 0;
};

}  // namespace drtmr::obs

#endif  // DRTMR_SRC_OBS_PHASE_TIMER_H_
