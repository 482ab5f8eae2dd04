#include "src/workload/driver.h"

#include <cstdio>

#include "src/obs/flight_recorder.h"
#include "src/sim/time_gate.h"
#include "src/util/logging.h"

namespace drtmr::workload {

DriverResult RunWorkload(cluster::Cluster* cluster, const DriverOptions& options, const TxnFn& fn) {
  const uint32_t nodes = options.nodes == 0 ? cluster->num_nodes() : options.nodes;
  DRTMR_CHECK(nodes <= cluster->num_nodes());
  DRTMR_CHECK(options.threads_per_node <= cluster->config().workers_per_node);

  cluster->ResetSimTime();
  // Model cross-socket coherence overhead once a node's worker count exceeds
  // one socket (Fig. 11: DrTM's whole-txn HTM regions suffer most).
  const sim::CostModel* cost = cluster->cost();
  for (uint32_t n = 0; n < nodes; ++n) {
    cluster->node(n)->bus()->set_cost_scale_pct(
        options.threads_per_node > cost->cores_per_socket ? cost->cross_socket_pct : 100);
  }

  struct PerThread {
    uint64_t committed = 0;
    uint64_t window_ns = 0;
    std::vector<uint64_t> by_type;
    Histogram latency;
    std::vector<Histogram> latency_by_type;
  };
  std::vector<PerThread> results(nodes * options.threads_per_node);

  // Conservative time-window synchronization: the host has fewer physical
  // cores than simulated workers, so bound the virtual-clock skew to keep
  // retry behaviour faithful (see src/sim/time_gate.h).
  sim::TimeGate gate(/*window_ns=*/100000);
  {
    std::vector<sim::TimeGate::Actor> workers;
    workers.reserve(results.size() + 1);
    // Declared after `workers`: the hold lifts before the handles join.
    const sim::TimeGate::Hold hold(&gate);
    if (const auto& [ctx, fn] = options.control; fn) {
      workers.push_back(gate.Spawn(ctx, fn));
    }
    for (uint32_t n = 0; n < nodes; ++n) {
      for (uint32_t w = 0; w < options.threads_per_node; ++w) {
        PerThread& out = results[n * options.threads_per_node + w];
        out.by_type.assign(options.max_txn_types, 0);
        out.latency_by_type.assign(options.max_txn_types, Histogram());
        sim::ThreadContext* ctx = cluster->node(n)->context(w);
        workers.push_back(gate.Spawn(ctx, [cluster, &options, &fn, n, w, &out, ctx] {
          FastRand rng((static_cast<uint64_t>(n) << 20) + w * 7919 + 12345);
          for (uint64_t i = 0; i < options.warmup_per_thread; ++i) {
            if (cluster->node(n)->killed()) {
              return;
            }
            fn(ctx, n, w, &rng);
          }
          const uint64_t window_start = ctx->clock.now_ns();
          for (uint64_t i = 0; i < options.txns_per_thread; ++i) {
            if (cluster->node(n)->killed()) {
              break;
            }
            const uint64_t t0 = ctx->clock.now_ns();
            const bool flight = obs::FlightEnabled();
            if (flight) {
              obs::FlightRecorder::Global().TxnBegin(n, w);
            }
            const uint32_t type = fn(ctx, n, w, &rng);
            const uint64_t dt = ctx->clock.now_ns() - t0;
            if (flight) {
              obs::FlightRecorder::Global().TxnEnd(type, t0, dt);
            }
            out.committed++;
            out.by_type[type]++;
            out.latency.Record(dt);
            out.latency_by_type[type].Record(dt);
          }
          if (options.worker_done && !cluster->node(n)->killed()) {
            options.worker_done(ctx);
          }
          out.window_ns = ctx->clock.now_ns() - window_start;
        }));
      }
    }
  }

  DriverResult agg;
  agg.committed_by_type.assign(options.max_txn_types, 0);
  agg.latency_by_type.assign(options.max_txn_types, Histogram());
  for (const PerThread& r : results) {
    agg.committed += r.committed;
    if (r.window_ns > agg.elapsed_ns) {
      agg.elapsed_ns = r.window_ns;
    }
    agg.latency.Merge(r.latency);
    for (uint32_t t = 0; t < options.max_txn_types; ++t) {
      agg.committed_by_type[t] += r.by_type[t];
      agg.latency_by_type[t].Merge(r.latency_by_type[t]);
    }
  }
  return agg;
}

std::string FormatTps(double tps) {
  char buf[32];
  if (tps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", tps / 1e6);
  } else if (tps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", tps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", tps);
  }
  return buf;
}

}  // namespace drtmr::workload
