// Calibration tool: runs TPC-C on DrTM+R with explicit knobs, printing
// throughput plus the --print-stats protocol summary, which it always turns
// on. Used to attribute costs when tuning the virtual-time model (see
// EXPERIMENTS.md).
//
// Usage: calibrate [machines] [threads] [cross_no_pct] [cross_pay_pct] [rep:0|1]
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace drtmr::bench;
  std::vector<char*> args(argv, argv + argc);
  char print_stats[] = "--print-stats";
  args.push_back(print_stats);
  argc = static_cast<int>(args.size());
  argv = args.data();
  return RunMain(argc, argv, {"calibrate", "tpcc"}, [](int argc, char** argv) {
    // Positional knobs; --flags are consumed by the harness.
    std::vector<const char*> pos;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        pos.push_back(argv[i]);
      }
    }
    TpccBenchConfig cfg;
    cfg.machines = pos.size() > 0 ? static_cast<uint32_t>(std::atoi(pos[0])) : 6;
    cfg.threads = pos.size() > 1 ? static_cast<uint32_t>(std::atoi(pos[1])) : 8;
    cfg.cross_no_pct = pos.size() > 2 ? static_cast<uint32_t>(std::atoi(pos[2])) : 1;
    cfg.cross_pay_pct = pos.size() > 3 ? static_cast<uint32_t>(std::atoi(pos[3])) : 15;
    cfg.replication = pos.size() > 4 && std::atoi(pos[4]) != 0;
    cfg.txns_per_thread = 300;
    RunInfo& info = MutableRunInfo();
    info.machines = cfg.machines;
    info.threads = cfg.threads;
    info.replication = cfg.replication;
    const drtmr::workload::DriverResult r = RunTpccDrtmR(cfg);
    PrintHeader("calibrate", "system      machines   throughput");
    PrintTpccRow("DrTM+R", cfg.machines, r);
    std::printf("per-machine total: %s tps\n",
                drtmr::workload::FormatTps(r.ThroughputTps() / cfg.machines).c_str());
    return 0;
  });
}
