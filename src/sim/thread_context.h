// Per-worker-thread context threaded through every simulated hardware
// operation: the thread's virtual clock, its RNG, its identity, and the HTM
// transaction it is currently inside of (if any). The NIC uses the latter to
// enforce RTM's no-I/O rule: issuing any RDMA verb inside an HTM region
// unconditionally aborts the region.
#ifndef DRTMR_SRC_SIM_THREAD_CONTEXT_H_
#define DRTMR_SRC_SIM_THREAD_CONTEXT_H_

#include <cstdint>

#include "src/util/cacheline.h"
#include "src/util/rand.h"
#include "src/util/sim_clock.h"

namespace drtmr::sim {

class HtmTxn;

// Line-aligned: the clock is written on every Charge and read by every
// TimeGate::Sync, and contexts are allocated next to each other.
struct alignas(kCacheLineSize) ThreadContext {
  ThreadContext(uint32_t node, uint32_t worker, uint64_t seed)
      : node_id(node), worker_id(worker), rng(seed) {}

  uint32_t node_id = 0;
  uint32_t worker_id = 0;  // index within the node, also the HTM descriptor slot
  SimClock clock;
  FastRand rng;
  HtmTxn* current_htm = nullptr;  // non-null while inside an HTM region

  void Charge(uint64_t ns) { clock.Advance(ns); }
};

}  // namespace drtmr::sim

#endif  // DRTMR_SRC_SIM_THREAD_CONTEXT_H_
