// drtmr_perfbench: the repo's end-to-end benchmark (perfbench/README.md).
//
//   drtmr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--git <describe>] [--trace-out <chrome trace json>]
//
// --trace 0 prints the end-to-end metrics of an untraced closed-loop run;
// --trace 1 runs alternating untraced and traced rounds plus a substrate
// probe and prints the per-layer metrics. Either way the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}, and the exit
// code is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/report.h"
#include "perfbench/src/runner.h"
#include "perfbench/src/substrates.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "drtmr_perfbench: %s\nusage: drtmr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git <describe>] [--trace-out <path>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string git = "unknown";
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--git") {
      git = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Shape* shape = FindShape(workload);
  if (shape == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(seconds > 0) || (trace != 0 && trace != 1)) {
    return Usage("--seconds must be > 0 and --trace 0 or 1");
  }

  PrintHeader({shape, seed, seconds, trace == 1, git});
  RunConfig cfg;
  cfg.shape = shape;
  cfg.seed = seed;
  cfg.seconds = seconds;
  cfg.trace = trace == 1 ? TraceMode::kAlternate : TraceMode::kOff;
  const RunResult run = RunClosedLoop(cfg);

  bool correct = run.correct;
  uint64_t attempted = run.attempted;
  std::vector<std::string> failures = run.failures;
  std::vector<Metric> metrics;
  if (trace == 1) {
    const SubstrateCosts probe = ProbeSubstrates(seed, 20, 2000);
    attempted += probe.calls_per_op * kNumSubstrateOps;
    correct = correct && probe.failed == 0;
    failures.insert(failures.end(), probe.failures.begin(), probe.failures.end());
    metrics = PerLayerMetrics(run, probe);
    if (!trace_out.empty()) {
      std::vector<const WorkerTrace*> traces;
      for (const auto& w : run.worker_traces) {
        traces.push_back(w.get());
      }
      traces.push_back(run.setup_trace.get());
      if (!WriteChromeTrace(trace_out, traces)) {
        std::fprintf(stderr, "drtmr_perfbench: failed to write %s\n", trace_out.c_str());
      }
    }
  } else {
    metrics = EndToEndMetrics(run, PeakRssMb());
  }
  // A run whose output check fails counts all its operations as failed.
  const uint64_t failed = correct ? 0 : attempted;

  PrintMetricLines(metrics);
  PrintRunSummary(run, attempted, failed);
  for (const std::string& f : failures) {
    std::printf("# FAILED (seed %llu): %s\n", (unsigned long long)seed, f.c_str());
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
