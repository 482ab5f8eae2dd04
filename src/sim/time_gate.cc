#include "src/sim/time_gate.h"

#include "src/util/logging.h"

namespace drtmr::sim {
namespace {

// Counted in yields, not wall time: simulator code reads no wall clock
// (drtmr-wallclock-determinism).
constexpr uint64_t kStallYields = 1ull << 22;

}  // namespace

thread_local const TimeGate* TimeGate::current_ = nullptr;
thread_local const TimeGate::Entry* TimeGate::self_ = nullptr;

TimeGate::Entry* TimeGate::Register(const ThreadContext* ctx) {
  std::lock_guard<std::mutex> g(register_mu_);
  const uint32_t i = count_.load(std::memory_order_relaxed);
  DRTMR_CHECK(i < kMaxActors) << "more than " << kMaxActors << " actors in one TimeGate";
  entries_[i].ctx = ctx;
  count_.store(i + 1, std::memory_order_release);
  return &entries_[i];
}

void TimeGate::Sync(const SimClock* mine) {
  const TimeGate* gate = current_;
  if (gate == nullptr) {
    return;
  }
  for (uint64_t yields = 1;; ++yields) {
    uint64_t min_ns = ~0ull;
    const Entry* lag = nullptr;
    const uint32_t n = gate->count_.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
      const Entry& e = gate->entries_[i];
      if (e.retired.load(std::memory_order_acquire)) {
        continue;
      }
      const uint64_t now = e.ctx->clock.now_ns();
      if (now < min_ns) {
        min_ns = now;
        lag = &e;
      }
    }
    if (min_ns == ~0ull || mine->now_ns() <= min_ns + gate->window_ns_) {
      return;
    }
    if (yields == kStallYields) {
      gate->LogStall(mine, lag);
    }
    std::this_thread::yield();
  }
}

void TimeGate::LogStall(const SimClock* mine, const Entry* lag) const {
  DRTMR_LOG(Warning) << "TimeGate stall: node " << self_->ctx->node_id << " slot "
                     << self_->ctx->worker_id << " at " << mine->now_ns()
                     << " ns waits on node " << lag->ctx->node_id << " slot "
                     << lag->ctx->worker_id << " at " << lag->ctx->clock.now_ns()
                     << " ns (retired " << lag->retired.load(std::memory_order_acquire)
                     << ") after " << kStallYields << " yields";
}

}  // namespace drtmr::sim
