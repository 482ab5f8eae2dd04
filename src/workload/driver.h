// Benchmark driver: runs one workload function on every (node, worker) pair
// and aggregates committed counts, abort counts, and latency in *virtual
// time* (see DESIGN.md §1). Throughput = total commits / max per-thread
// simulated time, exactly the aggregate a real parallel run would report.
#ifndef DRTMR_SRC_WORKLOAD_DRIVER_H_
#define DRTMR_SRC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/node.h"
#include "src/util/histogram.h"

namespace drtmr::workload {

struct DriverOptions {
  uint32_t nodes = 0;             // 0 = all nodes in the cluster
  uint32_t threads_per_node = 4;  // must be <= workers_per_node
  uint64_t txns_per_thread = 2000;
  uint64_t warmup_per_thread = 100;
  uint32_t max_txn_types = 8;
  // Called once per worker thread after its last transaction (not called for
  // killed nodes — fail-stop). Replicated runs use it to flush the worker's
  // group-commit window so no decided transaction is left unfenced; the time
  // it charges lands inside the measured window.
  std::function<void(sim::ThreadContext*)> worker_done;
  // Optional control actor (e.g. a live migration): `fn` runs on `ctx`'s
  // clock in the workers' gate, registered before any worker runs and joined
  // with them. Unset when `fn` is empty; adds nothing to the result.
  std::pair<sim::ThreadContext*, std::function<void()>> control;
};

struct DriverResult {
  uint64_t committed = 0;
  uint64_t elapsed_ns = 0;  // max per-thread simulated time (measured window)
  std::vector<uint64_t> committed_by_type;
  Histogram latency;                 // per-transaction, including retries
  std::vector<Histogram> latency_by_type;

  double ThroughputTps() const {
    return elapsed_ns == 0 ? 0.0 : committed * 1e9 / static_cast<double>(elapsed_ns);
  }
  double ThroughputTps(uint32_t type) const {
    return elapsed_ns == 0 ? 0.0
                           : committed_by_type[type] * 1e9 / static_cast<double>(elapsed_ns);
  }
};

// One call = one transaction executed to commit (retrying aborts internally).
// Returns the transaction type id in [0, max_txn_types).
using TxnFn = std::function<uint32_t(sim::ThreadContext* ctx, uint32_t node, uint32_t worker,
                                     FastRand* rng)>;

// Runs `fn` txns_per_thread times per worker thread across the cluster.
// Resets virtual time first; cross-socket cost scaling is applied when
// threads_per_node exceeds one socket (§7.1 topology).
DriverResult RunWorkload(cluster::Cluster* cluster, const DriverOptions& options,
                         const TxnFn& fn);

// Formats a throughput row for the bench tables.
std::string FormatTps(double tps);

}  // namespace drtmr::workload

#endif  // DRTMR_SRC_WORKLOAD_DRIVER_H_
