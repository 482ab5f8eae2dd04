// One backoff policy to rule the retry loops. Before this header existed,
// three near-identical-but-divergent policies lived in the tree: the
// remote-lock dangling CAS jitter in txn/transaction.cc, the workload-level
// abort-retry backoff, and the local-read HTM retry in txn/txn_engine.cc. Each
// computed "random delay, escalating with attempts" slightly differently,
// which made it impossible to reason about retry storms (e.g. the
// kMigrating drain window) in one place.
//
// Backoff computes a *delay in virtual nanoseconds*; the caller charges it
// (ctx->Charge(delay)) or sleeps it, so the policy stays usable from both
// gated worker threads and free-running control-plane contexts. Jitter is
// deterministic: it comes from the caller's FastRand, which is seeded from
// the test seed, so every retry schedule replays exactly under a fixed seed.
//
// Two shapes cover every policy in the tree:
//   Exponential(lo, hi, max_shift, cap): Range(lo, hi) << min(attempt,
//       max_shift), clamped to cap. The SmallBank and TPC-C abort retries
//       use it uncapped (lo=400, hi=1600, max_shift=7).
//   Linear(lo, hi): Range(lo, hi) * (attempt + 1). Reproduces the historical
//       local-read HTM retry byte-for-byte (lo=50, hi=400).
#ifndef DRTMR_SRC_UTIL_BACKOFF_H_
#define DRTMR_SRC_UTIL_BACKOFF_H_

#include <cstdint>

#include "src/util/rand.h"

namespace drtmr::util {

class Backoff {
 public:
  static constexpr uint64_t kNoCap = ~0ull;

  static Backoff Exponential(uint64_t lo_ns, uint64_t hi_ns, uint32_t max_shift,
                             uint64_t cap_ns = kNoCap) {
    return Backoff(Shape::kExponential, lo_ns, hi_ns, max_shift, cap_ns);
  }

  static Backoff Linear(uint64_t lo_ns, uint64_t hi_ns) {
    return Backoff(Shape::kLinear, lo_ns, hi_ns, 0, kNoCap);
  }

  // Delay for attempt index `attempt` (0-based), without touching the
  // internal counter — for callers whose retry loop tracks attempts itself.
  // The RNG draw happens on every call (even when the shifted value would
  // saturate the cap) so the consumption pattern of the caller's FastRand
  // stays stable.
  uint64_t DelayAt(uint32_t attempt, FastRand* rng) const {
    if (shape_ == Shape::kExponential) {
      const uint32_t shift = attempt < max_shift_ ? attempt : max_shift_;
      const uint64_t delay = rng->Range(lo_ns_, hi_ns_) << shift;
      return delay > cap_ns_ ? cap_ns_ : delay;
    }
    return rng->Range(lo_ns_, hi_ns_) * (attempt + 1);
  }

  // Delay for the next retry; advances the attempt counter.
  uint64_t NextDelay(FastRand* rng) { return DelayAt(attempt_++, rng); }

  uint32_t attempts() const { return attempt_; }
  void Reset() { attempt_ = 0; }

 private:
  enum class Shape : uint8_t { kExponential, kLinear };

  Backoff(Shape shape, uint64_t lo, uint64_t hi, uint32_t max_shift, uint64_t cap)
      : shape_(shape), lo_ns_(lo), hi_ns_(hi), max_shift_(max_shift), cap_ns_(cap) {}

  Shape shape_;
  uint64_t lo_ns_;
  uint64_t hi_ns_;
  uint32_t max_shift_;
  uint64_t cap_ns_;
  uint32_t attempt_ = 0;
};

}  // namespace drtmr::util

#endif  // DRTMR_SRC_UTIL_BACKOFF_H_
