// Closed-loop runner: drives a Stack through workload::RunWorkload. Each
// simulated worker is one client that issues its next transaction only after
// the previous one committed (RunOne retries aborts internally).
//
// A run is a sequence of epochs. Each epoch builds a fresh Stack (timed set-up),
// runs one unrecorded warm-up round, then Shape::rounds_per_epoch measured
// rounds, then checks the stack's output. Epochs repeat until the measured
// rounds have taken `seconds` of wall time and at least `min_epochs` ran. A
// fixed amount of work per epoch keeps memory bounded however fast the host is.
#ifndef PERFBENCH_SRC_RUNNER_H_
#define PERFBENCH_SRC_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/stacks.h"
#include "src/obs/metrics.h"

namespace perfbench {

// Exact virtual-latency distribution: a count per distinct latency value.
class LatencyCounts {
 public:
  void Record(uint64_t ns) {
    counts_[ns]++;
    count_++;
  }
  void Merge(const LatencyCounts& other);
  uint64_t count() const { return count_; }
  // Percentile over every recorded sample, 0 when empty. Virtual latencies
  // take few distinct values, so a nearest-rank percentile sits on the same
  // value run after run and jumps a whole step when mass shifts between two
  // values. Instead the empirical CDF is interpolated linearly between
  // adjacent distinct values (each value's samples spread evenly over the gap
  // below it), which moves smoothly with the distribution.
  double Percentile(double p) const;
  bool operator==(const LatencyCounts& other) const { return counts_ == other.counts_; }

 private:
  std::map<uint64_t, uint64_t> counts_;  // latency ns -> samples
  uint64_t count_ = 0;
};

enum class TraceMode {
  kOff,        // no decorator, registry off
  kAlternate,  // odd measured rounds traced, even ones not (trace overhead)
  kAll,        // every measured round traced (the equality test)
};

struct RunConfig {
  const Shape* shape = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  TraceMode trace = TraceMode::kOff;
  uint32_t min_epochs = 3;
  bool keep_per_txn = false;        // WorkerTrace per-txn vns records (tests)
};

// Engine-side counters summed over traced rounds (TxnEngine::stats() and every
// node's HtmEngine::stats(), as deltas).
struct LayerCounters {
  uint64_t commits = 0;
  uint64_t aborts_lock = 0;
  uint64_t aborts_validation = 0;
  uint64_t fallbacks = 0;
  uint64_t htm_commit_retries = 0;
  uint64_t htm_begins = 0;
  uint64_t htm_commits = 0;
  uint64_t htm_aborts_conflict = 0;
  uint64_t htm_aborts_capacity = 0;
  uint64_t htm_aborts_explicit = 0;
  uint64_t htm_aborts_io = 0;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;  // RunOne calls, warm-up included
  uint32_t epochs = 0;

  // Untraced measured rounds.
  uint64_t committed = 0;
  std::vector<uint64_t> committed_by_type;
  uint64_t virtual_ns = 0;  // sum over rounds of the max per-worker window
  LatencyCounts latency;
  double host_s = 0;                   // wall time of the rounds
  std::vector<double> round_host_tps;  // committed per host second, per round

  // Traced measured rounds.
  uint64_t traced_committed = 0;
  std::vector<uint64_t> traced_committed_by_type;
  uint64_t traced_virtual_ns = 0;
  LatencyCounts traced_latency;
  double traced_host_s = 0;
  std::vector<double> traced_round_host_tps;
  std::vector<std::unique_ptr<WorkerTrace>> worker_traces;  // one per worker slot
  std::unique_ptr<WorkerTrace> setup_trace;
  LayerCounters counters;
  drtmr::obs::Snapshot registry;  // collected over traced rounds only

  std::vector<SetupTimes> setups;  // one per epoch
};

RunResult RunClosedLoop(const RunConfig& config);

double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNNER_H_
