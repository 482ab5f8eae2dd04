// Turns a run into named metrics, prints the run header and the result line.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <string>
#include <vector>

#include "perfbench/src/runner.h"
#include "perfbench/src/substrates.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Untraced run: vtps, vlat_p50_ns, vlat_p99_ns, host_txn_per_s, setup_s,
// peak_rss_mb (BENCHMARK.json "end_to_end").
std::vector<Metric> EndToEndMetrics(const RunResult& run, double peak_rss_mb);

// Traced run: every BENCHMARK.json "per_layer" metric, 0 where the layer does
// no work on this workload.
std::vector<Metric> PerLayerMetrics(const RunResult& run, const SubstrateCosts& substrates);

// Peak resident set of this process, MiB.
double PeakRssMb();

struct HeaderInfo {
  const Shape* shape = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  std::string git;
};
// One "# key: value" line per item: host (nproc, affinity mask, pinned),
// build type, git, seed, shape and data sizes.
void PrintHeader(const HeaderInfo& info);

// "name value unit" lines for humans, then the extra lines that are not in
// BENCHMARK.json (sample count, neworder_vtps, failed_ratio).
void PrintMetricLines(const std::vector<Metric>& metrics);
void PrintRunSummary(const RunResult& run, uint64_t attempted, uint64_t failed);

// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
