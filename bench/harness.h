// Shared harness for the paper-reproduction benches: builds a fresh simulated
// cluster per data point, loads the workload, runs the virtual-time driver,
// and returns the aggregate result. One Run* function per (workload, system).
#ifndef DRTMR_BENCH_HARNESS_H_
#define DRTMR_BENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "src/cluster/coordinator.h"
#include "src/obs/metrics.h"
#include "src/rep/primary_backup.h"
#include "src/txn/transaction.h"
#include "src/workload/driver.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

namespace drtmr::bench {

struct TpccBenchConfig {
  uint32_t machines = 6;
  uint32_t threads = 8;
  uint32_t warehouses_per_node = 1;
  uint32_t customers_per_district = 300;  // trimmed (shape-preserving) scale
  uint32_t items = 20000;
  uint32_t cross_no_pct = 1;   // cross-warehouse probability per new-order item
  uint32_t cross_pay_pct = 15;
  bool replication = false;    // DrTM+R=3 when true (3-way)
  uint32_t logical_per_machine = 1;  // Fig. 12
  uint64_t txns_per_thread = 300;
  uint64_t warmup_per_thread = 30;
  size_t memory_mb = 48;
  size_t log_mb = 8;
  // Ablation switches (DESIGN.md §5); defaults are the paper's protocol.
  bool lock_remote_read_set = true;
  bool ptr_swap_local_tables = false;
  bool message_passing_commit = false;
  // §4.4 GLOB-atomicity fused lock+validate. Promoted to the bench default
  // (+24% at 50% distribution in the ablation); the library-level
  // TxnConfig default stays ConnectX-3 two-verb locking. false = the
  // pre-promotion commit path (CI gates both).
  bool fused_seq_lock = true;
  // Replication group-commit window (rep::RepConfig::group_commit_window):
  // decisions per worker lane between durability fences. 1 = fence per txn.
  uint32_t group_commit_window = 8;
};

struct SmallBankBenchConfig {
  uint32_t machines = 6;
  uint32_t threads = 8;
  uint32_t cross_pct = 1;  // distributed probability for SP/AMG
  bool replication = false;
  uint64_t accounts_per_node = 20000;
  uint64_t hot_accounts = 800;
  uint64_t txns_per_thread = 500;
  uint64_t warmup_per_thread = 50;
  size_t memory_mb = 48;
  size_t log_mb = 8;
  // §4.4 GLOB fused lock+validate, promoted to the bench default (see
  // TpccBenchConfig::fused_seq_lock).
  bool fused_seq_lock = true;
  // Replication group-commit window; 1 = fence per txn.
  uint32_t group_commit_window = 8;
  // Elasticity hook (the suite's "elastic" entry): runs after the partition
  // map is created and before the workload loads, so it can re-shape the
  // initial placement (e.g. fold partitions 3-5 onto nodes 0-2) and the
  // loader seeds records at the re-shaped homes.
  std::function<void(cluster::PartitionMap*)> pre_load;
};

// Self-description header stamped into every --metrics-json file (DESIGN.md
// §12): what ran, at which shape, from which checkout — so a committed
// BENCH_*.json is comparable by the regression gate without out-of-band
// context. RunMain fills bench/workload; benches and the suite may overwrite
// the shape fields before EmitObs runs.
struct RunInfo {
  std::string bench;     // binary or suite-entry name
  std::string workload;  // tpcc | smallbank | transfer | mixed
  std::string profile;   // full | smoke (empty for ad-hoc runs)
  uint32_t machines = 0;
  uint32_t threads = 0;
  uint32_t logical_nodes = 0;
  bool replication = false;
  uint64_t seed = 0;
  std::string notes;
};

// Process-wide run info consumed by EmitObs. SetRunInfo replaces it wholesale.
void SetRunInfo(const RunInfo& info);
RunInfo& MutableRunInfo();

// `git describe --always --dirty` of the working tree, or "unknown" when git
// (or the repo) is unavailable. Override with DRTMR_GIT_DESCRIBE in the
// environment (CI stamps the exact ref this way).
std::string GitDescribe();

// Observability plumbing shared by every bench binary (DESIGN.md
// "Observability"). ParseObsArgs recognizes:
//   --metrics-json=<path>   write a merged metrics snapshot as JSON
//                           (schema_version + run header + metrics + the
//                           slow-txn flight recorder; DESIGN.md §12)
//   --trace-json=<path>     write txn-lifecycle events as a Chrome
//                           trace_event array (load at chrome://tracing)
//   --trace-events=<n>      per-thread trace ring capacity (default 16384)
//   --slow-txns=<k>         flight-recorder depth: keep the k slowest
//                           transactions with per-phase breakdown and abort
//                           trail (default 8; 0 disables)
//   --print-stats           print the structured metrics summary to stdout
//   --analyze               run under the protocol conformance analyzer
//                           (src/chk/protocol_analyzer.h); violations are
//                           counted per class and printed after the run
//   --violations-json=<path> write the analyzer's violation list as JSON
//                           (implies --analyze)
// and enables the metrics registry iff any of them is present, so a plain run
// pays nothing. Unrecognized arguments are left alone for the bench's own
// parsing. EmitObs, called once after the runs, writes the requested files
// and summary.
struct ObsOptions {
  std::string metrics_json;
  std::string trace_json;
  uint32_t trace_events_per_thread = 1u << 14;
  uint32_t slow_txns = 8;
  bool print_stats = false;
  bool analyze = false;
  std::string violations_json;

  bool enabled() const {
    return print_stats || !metrics_json.empty() || !trace_json.empty() || analyze;
  }
};

ObsOptions ParseObsArgs(int argc, char** argv);
void EmitObs(const ObsOptions& opt);

// Version of the bench/metrics JSON envelope written by WriteBenchJson; bump
// on any shape change so the gate refuses to compare across schemas.
inline constexpr uint32_t kBenchSchemaVersion = 2;

// Writes the full self-describing bench JSON envelope (run header + headline
// results + metrics snapshot + flight recorder) to `path`. Used by EmitObs
// for --metrics-json= and by the suite for each BENCH_<name>.json. `results`
// holds the gated scalars; by convention keys ending in `_tps` are
// higher-is-better and keys ending in `_ns` are lower-is-better — anything
// else is informational (scripts/bench_gate.py). `tolerances` holds per-key
// gate-tolerance overrides (fractional, e.g. 0.35) for results whose measured
// run-to-run noise exceeds the gate's default 5% — the suite declares them
// per entry so --regen keeps them in the committed baseline, and the gate
// reads them from the *baseline* file only.
bool WriteBenchJson(const std::string& path, const obs::Snapshot& snap,
                    const std::vector<std::pair<std::string, double>>& results = {},
                    const std::vector<std::pair<std::string, double>>& tolerances = {});

// Shared entry point that replaces the ParseObsArgs/EmitObs boilerplate in
// every bench main: parses the observability flags, stamps the run header,
// runs `body`, then emits the requested artifacts. The body receives the
// original argc/argv (obs flags included; positional parsers should skip
// arguments starting with "--").
struct BenchInfo {
  const char* name;      // RunInfo::bench
  const char* workload;  // RunInfo::workload
};
int RunMain(int argc, char** argv, const BenchInfo& info,
            const std::function<int(int argc, char** argv)>& body);

// A fully-wired SmallBank cluster (cluster, catalog, partition map,
// coordinator, optional 3-way replicator, engine, loaded workload) with one
// transaction slot per (node, worker). RunSmallBankDrtmR builds one per run;
// the suite's recovery benchmark keeps a stack alive across a kill/recover
// cycle (bench/suite.cc).
struct SmallBankStack {
  explicit SmallBankStack(const SmallBankBenchConfig& cfg);
  ~SmallBankStack();

  workload::DriverResult Run(const SmallBankBenchConfig& cfg);

  cluster::ClusterConfig ccfg;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<store::Catalog> catalog;
  std::unique_ptr<cluster::PartitionMap> pmap;
  std::unique_ptr<cluster::Coordinator> coordinator;
  std::unique_ptr<rep::PrimaryBackupReplicator> replicator;
  std::unique_ptr<txn::TxnEngine> engine;
  std::unique_ptr<workload::SmallBankWorkload> bank;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  std::vector<txn::Transaction*> by_slot;
};

// DrTM+R (optionally with 3-way replication).
workload::DriverResult RunTpccDrtmR(const TpccBenchConfig& config);
workload::DriverResult RunSmallBankDrtmR(const SmallBankBenchConfig& config);

// Baselines (TPC-C only; the paper's comparisons are TPC-C).
workload::DriverResult RunTpccDrTm(const TpccBenchConfig& config);
workload::DriverResult RunTpccCalvin(const TpccBenchConfig& config);
workload::DriverResult RunTpccSilo(const TpccBenchConfig& config);  // machines forced to 1

// Row formatting for the reproduction tables.
void PrintHeader(const char* title, const char* columns);
void PrintTpccRow(const char* label, uint32_t x, const workload::DriverResult& r);
void PrintSmallBankRow(const char* label, uint32_t x, const workload::DriverResult& r);

}  // namespace drtmr::bench

#endif  // DRTMR_BENCH_HARNESS_H_
