#include "bench/harness.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/baseline/calvin.h"
#include "src/baseline/drtm.h"
#include "src/chk/protocol_analyzer.h"
#include "src/baseline/silo.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace drtmr::bench {

using workload::DriverOptions;
using workload::DriverResult;
using workload::RunWorkload;

namespace {

struct TpccStack {
  explicit TpccStack(const TpccBenchConfig& cfg, uint32_t total_workers) {
    ccfg.num_nodes = cfg.machines * cfg.logical_per_machine;
    ccfg.workers_per_node = total_workers;
    ccfg.memory_bytes = cfg.memory_mb << 20;
    ccfg.log_bytes = cfg.log_mb << 20;
    ccfg.logical_per_machine = cfg.logical_per_machine;
    if (cfg.fused_seq_lock) {
      ccfg.atomicity = sim::AtomicityLevel::kGlob;
    }
    cluster = std::make_unique<cluster::Cluster>(ccfg);
    catalog = std::make_unique<store::Catalog>(cluster.get());
    pmap = std::make_unique<cluster::PartitionMap>(ccfg.num_nodes);
    coordinator = std::make_unique<cluster::Coordinator>();
    for (uint32_t i = 0; i < ccfg.num_nodes; ++i) {
      coordinator->Join(i, 0, ~0ull >> 2);
    }
    if (cfg.replication) {
      rep::RepConfig rcfg;
      rcfg.replicas = std::min<uint32_t>(3, ccfg.num_nodes);
      rcfg.group_commit_window = cfg.group_commit_window;
      replicator = std::make_unique<rep::PrimaryBackupReplicator>(cluster.get(), rcfg);
    }
    txn::TxnConfig tcfg;
    tcfg.replication = cfg.replication;
    tcfg.replicas = cfg.replication ? 3 : 1;
    tcfg.lock_remote_read_set = cfg.lock_remote_read_set;
    tcfg.message_passing_commit = cfg.message_passing_commit;
    tcfg.fused_seq_lock = cfg.fused_seq_lock;
    engine = std::make_unique<txn::TxnEngine>(cluster.get(), catalog.get(), tcfg,
                                              coordinator.get(), replicator.get());

    workload::TpccConfig tc;
    tc.warehouses_per_node = cfg.warehouses_per_node;
    tc.customers_per_district = cfg.customers_per_district;
    tc.items = cfg.items;
    tc.cross_warehouse_new_order_pct = cfg.cross_no_pct;
    tc.cross_warehouse_payment_pct = cfg.cross_pay_pct;
    tc.ptr_swap_local = cfg.ptr_swap_local_tables;
    tpcc = std::make_unique<workload::TpccWorkload>(engine.get(), pmap.get(), tc);
    tpcc->CreateTables();
    tpcc->Load(replicator.get());
    engine->StartServices();
  }

  ~TpccStack() { engine->StopServices(); }

  cluster::ClusterConfig ccfg;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<store::Catalog> catalog;
  std::unique_ptr<cluster::PartitionMap> pmap;
  std::unique_ptr<cluster::Coordinator> coordinator;
  std::unique_ptr<rep::PrimaryBackupReplicator> replicator;
  std::unique_ptr<txn::TxnEngine> engine;
  std::unique_ptr<workload::TpccWorkload> tpcc;
};

DriverOptions MakeOptions(uint32_t threads, uint64_t txns, uint64_t warmup) {
  DriverOptions opt;
  opt.threads_per_node = threads;
  opt.txns_per_thread = txns;
  opt.warmup_per_thread = warmup;
  opt.max_txn_types = workload::kTpccTxnTypes;
  return opt;
}

RunInfo g_run_info;

// Escapes `s` minimally for embedding in a JSON string literal.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

// Writes the self-describing bench JSON (DESIGN.md §12): schema_version, the
// run-config header, the merged metrics snapshot, and the slow-txn flight
// recorder. The gate (scripts/bench_gate.py) consumes exactly this shape.
bool WriteBenchJson(const std::string& path, const obs::Snapshot& snap,
                    const std::vector<std::pair<std::string, double>>& results,
                    const std::vector<std::pair<std::string, double>>& tolerances) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const RunInfo& run = g_run_info;
  std::fprintf(f,
               "{\n\"schema_version\": %u,\n\"run\": {\"bench\": \"%s\", \"workload\": "
               "\"%s\", \"profile\": \"%s\", \"machines\": %u, \"threads\": %u, "
               "\"logical_nodes\": %u, \"replication\": %s, \"seed\": %llu, \"git\": "
               "\"%s\", \"notes\": \"%s\"},\n\"results\": {",
               kBenchSchemaVersion, JsonEscape(run.bench).c_str(),
               JsonEscape(run.workload).c_str(), JsonEscape(run.profile).c_str(),
               run.machines, run.threads, run.logical_nodes,
               run.replication ? "true" : "false", (unsigned long long)run.seed,
               JsonEscape(GitDescribe()).c_str(), JsonEscape(run.notes).c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.6f", i == 0 ? "" : ", ",
                 JsonEscape(results[i].first).c_str(), results[i].second);
  }
  std::fprintf(f, "},\n");
  if (!tolerances.empty()) {
    std::fprintf(f, "\"tolerances\": {");
    for (size_t i = 0; i < tolerances.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.6f", i == 0 ? "" : ", ",
                   JsonEscape(tolerances[i].first).c_str(), tolerances[i].second);
    }
    std::fprintf(f, "},\n");
  }
  std::fprintf(f, "\"metrics\": ");
  snap.WriteJson(f);
  std::fprintf(f, ",\n\"flight_recorder\": ");
  obs::FlightRecorder::Global().WriteJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

DriverResult RunTpccDrtmR(const TpccBenchConfig& cfg) {
  TpccStack stack(cfg, cfg.threads);
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  std::vector<txn::Transaction*> by_slot(stack.ccfg.num_nodes * cfg.threads);
  for (uint32_t n = 0; n < stack.ccfg.num_nodes; ++n) {
    for (uint32_t w = 0; w < cfg.threads; ++w) {
      txns.push_back(std::make_unique<txn::Transaction>(stack.engine.get(),
                                                        stack.cluster->node(n)->context(w)));
      by_slot[n * cfg.threads + w] = txns.back().get();
    }
  }
  DriverOptions opt = MakeOptions(cfg.threads, cfg.txns_per_thread, cfg.warmup_per_thread);
  if (stack.replicator != nullptr) {
    rep::PrimaryBackupReplicator* rep = stack.replicator.get();
    opt.worker_done = [rep](sim::ThreadContext* ctx) { rep->FlushLog(ctx); };
  }
  return RunWorkload(stack.cluster.get(), opt,
                     [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w, FastRand* rng) {
                       return stack.tpcc->RunOne(ctx, by_slot[n * cfg.threads + w], rng);
                     });
}

DriverResult RunTpccDrTm(const TpccBenchConfig& cfg) {
  TpccStack stack(cfg, cfg.threads);
  baseline::DrTmConfig dcfg;
  baseline::DrTmEngine drtm(stack.engine.get(), dcfg);
  return RunWorkload(stack.cluster.get(), MakeOptions(cfg.threads, cfg.txns_per_thread,
                                                      cfg.warmup_per_thread),
                     [&](sim::ThreadContext* ctx, uint32_t, uint32_t, FastRand* rng) {
                       const uint64_t w = stack.tpcc->PickWarehouse(ctx, rng);
                       const uint32_t type = stack.tpcc->PickType(rng);
                       const FastRand snapshot = *rng;
                       while (true) {
                         if (drtm.Execute(ctx, [&](txn::TxnApi* api) {
                               FastRand body_rng = snapshot;
                               return stack.tpcc->RunType(type, ctx, api, &body_rng, w);
                             })) {
                           break;
                         }
                       }
                       rng->Next();
                       return type;
                     });
}

DriverResult RunTpccCalvin(const TpccBenchConfig& cfg) {
  TpccStack stack(cfg, cfg.threads);
  baseline::CalvinConfig ccfg;
  baseline::CalvinEngine calvin(stack.engine.get(), ccfg);
  std::vector<std::unique_ptr<baseline::CalvinTxn>> txns;
  std::vector<baseline::CalvinTxn*> by_slot(stack.ccfg.num_nodes * cfg.threads);
  for (uint32_t n = 0; n < stack.ccfg.num_nodes; ++n) {
    for (uint32_t w = 0; w < cfg.threads; ++w) {
      txns.push_back(std::make_unique<baseline::CalvinTxn>(&calvin,
                                                           stack.cluster->node(n)->context(w)));
      by_slot[n * cfg.threads + w] = txns.back().get();
    }
  }
  return RunWorkload(stack.cluster.get(), MakeOptions(cfg.threads, cfg.txns_per_thread,
                                                      cfg.warmup_per_thread),
                     [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w, FastRand* rng) {
                       return stack.tpcc->RunOne(ctx, by_slot[n * cfg.threads + w], rng);
                     });
}

DriverResult RunTpccSilo(const TpccBenchConfig& config) {
  TpccBenchConfig cfg = config;
  cfg.machines = 1;
  cfg.logical_per_machine = 1;
  cfg.replication = false;
  TpccStack stack(cfg, cfg.threads);
  baseline::SiloEngine silo(stack.engine.get());
  std::vector<std::unique_ptr<baseline::SiloTxn>> txns;
  std::vector<baseline::SiloTxn*> by_slot(cfg.threads);
  for (uint32_t w = 0; w < cfg.threads; ++w) {
    txns.push_back(std::make_unique<baseline::SiloTxn>(&silo, stack.cluster->node(0)->context(w)));
    by_slot[w] = txns.back().get();
  }
  return RunWorkload(stack.cluster.get(), MakeOptions(cfg.threads, cfg.txns_per_thread,
                                                      cfg.warmup_per_thread),
                     [&](sim::ThreadContext* ctx, uint32_t, uint32_t w, FastRand* rng) {
                       return stack.tpcc->RunOne(ctx, by_slot[w], rng);
                     });
}

SmallBankStack::SmallBankStack(const SmallBankBenchConfig& cfg) {
  ccfg.num_nodes = cfg.machines;
  ccfg.workers_per_node = cfg.threads;
  ccfg.memory_bytes = cfg.memory_mb << 20;
  ccfg.log_bytes = cfg.log_mb << 20;
  if (cfg.fused_seq_lock) {
    ccfg.atomicity = sim::AtomicityLevel::kGlob;
  }
  cluster = std::make_unique<cluster::Cluster>(ccfg);
  catalog = std::make_unique<store::Catalog>(cluster.get());
  pmap = std::make_unique<cluster::PartitionMap>(cfg.machines);
  if (cfg.pre_load) {
    cfg.pre_load(pmap.get());
  }
  coordinator = std::make_unique<cluster::Coordinator>();
  for (uint32_t i = 0; i < cfg.machines; ++i) {
    coordinator->Join(i, 0, ~0ull >> 2);
  }
  if (cfg.replication) {
    rep::RepConfig rcfg;
    rcfg.replicas = std::min<uint32_t>(3, cfg.machines);
    rcfg.group_commit_window = cfg.group_commit_window;
    replicator = std::make_unique<rep::PrimaryBackupReplicator>(cluster.get(), rcfg);
  }
  txn::TxnConfig tcfg;
  tcfg.replication = cfg.replication;
  tcfg.replicas = cfg.replication ? 3 : 1;
  tcfg.fused_seq_lock = cfg.fused_seq_lock;
  engine = std::make_unique<txn::TxnEngine>(cluster.get(), catalog.get(), tcfg,
                                            coordinator.get(), replicator.get());

  workload::SmallBankConfig sc;
  sc.accounts_per_node = cfg.accounts_per_node;
  sc.hot_accounts = cfg.hot_accounts;
  sc.cross_machine_pct = cfg.cross_pct;
  bank = std::make_unique<workload::SmallBankWorkload>(engine.get(), pmap.get(), sc);
  bank->CreateTables();
  bank->Load(replicator.get());
  engine->StartServices();

  by_slot.resize(cfg.machines * cfg.threads);
  for (uint32_t n = 0; n < cfg.machines; ++n) {
    for (uint32_t w = 0; w < cfg.threads; ++w) {
      txns.push_back(std::make_unique<txn::Transaction>(engine.get(),
                                                        cluster->node(n)->context(w)));
      by_slot[n * cfg.threads + w] = txns.back().get();
    }
  }
}

SmallBankStack::~SmallBankStack() { engine->StopServices(); }

DriverResult SmallBankStack::Run(const SmallBankBenchConfig& cfg) {
  DriverOptions opt;
  opt.threads_per_node = cfg.threads;
  opt.txns_per_thread = cfg.txns_per_thread;
  opt.warmup_per_thread = cfg.warmup_per_thread;
  opt.max_txn_types = workload::kSmallBankTxnTypes;
  if (replicator != nullptr) {
    rep::PrimaryBackupReplicator* rep = replicator.get();
    opt.worker_done = [rep](sim::ThreadContext* ctx) { rep->FlushLog(ctx); };
  }
  return RunWorkload(cluster.get(), opt,
                     [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w, FastRand* rng) {
                       return bank->RunOne(ctx, by_slot[n * cfg.threads + w], rng);
                     });
}

DriverResult RunSmallBankDrtmR(const SmallBankBenchConfig& cfg) {
  SmallBankStack stack(cfg);
  return stack.Run(cfg);
}

void SetRunInfo(const RunInfo& info) { g_run_info = info; }

RunInfo& MutableRunInfo() { return g_run_info; }

std::string GitDescribe() {
  if (const char* env = std::getenv("DRTMR_GIT_DESCRIBE")) {
    return env;
  }
  std::string out = "unknown";
#if !defined(_WIN32)
  if (std::FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
        s.pop_back();
      }
      if (!s.empty()) {
        out = s;
      }
    }
    ::pclose(p);
  }
#endif
  return out;
}

ObsOptions ParseObsArgs(int argc, char** argv) {
  ObsOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = value_of("--metrics-json=")) {
      opt.metrics_json = v;
    } else if (const char* v = value_of("--trace-json=")) {
      opt.trace_json = v;
    } else if (const char* v = value_of("--trace-events=")) {
      opt.trace_events_per_thread = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--slow-txns=")) {
      opt.slow_txns = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(a, "--print-stats") == 0) {
      opt.print_stats = true;
    } else if (std::strcmp(a, "--analyze") == 0) {
      opt.analyze = true;
    } else if (const char* v = value_of("--violations-json=")) {
      opt.violations_json = v;
      opt.analyze = true;
    }
  }
  if (opt.enabled()) {
    obs::Registry::Global().Enable(true);
    if (!opt.trace_json.empty()) {
      obs::Registry::Global().EnableTrace(opt.trace_events_per_thread);
    }
    obs::FlightRecorder::Global().Enable(opt.slow_txns);
  }
  if (opt.analyze) {
    chk::ProtocolAnalyzer::Global().Reset();
    chk::ProtocolAnalyzer::Global().Enable(true);
  }
  return opt;
}

void EmitObs(const ObsOptions& opt) {
  if (!opt.enabled()) {
    return;
  }
  obs::Registry& reg = obs::Registry::Global();
  const obs::Snapshot snap = reg.Collect();
  if (opt.print_stats) {
    std::printf("\n--- observability summary ---\n");
    std::printf("commits=%llu aborts[lock=%llu validation=%llu user=%llu] fallbacks=%llu "
                "htm_retries=%llu rep[entries=%llu bytes=%llu]\n",
                (unsigned long long)snap.counter(obs::Counter::kTxnCommit),
                (unsigned long long)snap.counter(obs::Counter::kTxnAbortLock),
                (unsigned long long)snap.counter(obs::Counter::kTxnAbortValidation),
                (unsigned long long)snap.counter(obs::Counter::kTxnAbortUser),
                (unsigned long long)snap.counter(obs::Counter::kTxnFallback),
                (unsigned long long)snap.counter(obs::Counter::kHtmCommitRetry),
                (unsigned long long)snap.counter(obs::Counter::kRepLogEntries),
                (unsigned long long)snap.counter(obs::Counter::kRepLogBytes));
    std::printf("%-12s %12s %10s %10s %10s %10s\n", "phase", "count", "mean_us", "p50_us",
                "p90_us", "p99_us");
    for (size_t i = 0; i < obs::kNumPhases; ++i) {
      const auto p = static_cast<obs::Phase>(i);
      const Histogram& h = snap.phase(p);
      if (h.empty()) {
        continue;
      }
      std::printf("%-12s %12llu %10.2f %10.2f %10.2f %10.2f\n", obs::PhaseName(p),
                  (unsigned long long)h.count(), h.Mean() / 1000.0, h.Percentile(50) / 1000.0,
                  h.Percentile(90) / 1000.0, h.Percentile(99) / 1000.0);
    }
    if (!snap.htm_aborts.empty()) {
      std::printf("htm aborts:");
      for (const auto& k : snap.htm_aborts) {
        std::printf(" %s/%s=%llu", obs::HtmAbortCodeName(static_cast<uint32_t>(k.key >> 16)),
                    obs::HtmSiteName(static_cast<obs::HtmSite>(k.key & 0xffff)),
                    (unsigned long long)k.ops);
      }
      std::printf("\n");
    }
    if (!snap.fabric.empty()) {
      // Aggregate the per-pair matrix per verb for the console; the full
      // matrix lives in the JSON output.
      uint64_t ops[static_cast<size_t>(obs::Verb::kCount)] = {};
      uint64_t bytes[static_cast<size_t>(obs::Verb::kCount)] = {};
      for (const auto& k : snap.fabric) {
        const auto verb = static_cast<size_t>((k.key >> 32) & 0xff);
        if (verb < static_cast<size_t>(obs::Verb::kCount)) {
          ops[verb] += k.ops;
          bytes[verb] += k.bytes;
        }
      }
      std::printf("fabric:");
      for (size_t v = 0; v < static_cast<size_t>(obs::Verb::kCount); ++v) {
        if (ops[v] != 0) {
          std::printf(" %s=%llu/%lluB", obs::VerbName(static_cast<obs::Verb>(v)),
                      (unsigned long long)ops[v], (unsigned long long)bytes[v]);
        }
      }
      std::printf("\n");
    }
  }
  if (!opt.metrics_json.empty()) {
    if (WriteBenchJson(opt.metrics_json, snap)) {
      std::printf("metrics json: %s\n", opt.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics json: %s\n", opt.metrics_json.c_str());
    }
  }
  if (!opt.trace_json.empty()) {
    if (reg.WriteChromeTrace(opt.trace_json)) {
      std::printf("trace json: %s (load at chrome://tracing)\n", opt.trace_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace json: %s\n", opt.trace_json.c_str());
    }
  }
  if (opt.analyze) {
    chk::ProtocolAnalyzer& analyzer = chk::ProtocolAnalyzer::Global();
    analyzer.Enable(false);
    std::printf("protocol analyzer: %llu violation(s)",
                (unsigned long long)analyzer.total_violations());
    for (size_t i = 0; i < chk::kNumViolationClasses; ++i) {
      const auto c = static_cast<chk::ViolationClass>(i);
      std::printf(" %s=%llu", chk::ViolationClassName(c),
                  (unsigned long long)analyzer.violations(c));
    }
    std::printf("\n");
    if (!opt.violations_json.empty()) {
      if (analyzer.WriteViolationsJson(opt.violations_json)) {
        std::printf("violations json: %s\n", opt.violations_json.c_str());
      } else {
        std::fprintf(stderr, "failed to write violations json: %s\n",
                     opt.violations_json.c_str());
      }
    }
  }
}

int RunMain(int argc, char** argv, const BenchInfo& info,
            const std::function<int(int argc, char** argv)>& body) {
  RunInfo run;
  run.bench = info.name;
  run.workload = info.workload;
  SetRunInfo(run);
  const ObsOptions opt = ParseObsArgs(argc, argv);
  const int rc = body(argc, argv);
  EmitObs(opt);
  return rc;
}

void PrintHeader(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
}

void PrintTpccRow(const char* label, uint32_t x, const DriverResult& r) {
  std::printf("%-12s %4u  total %10s tps  new-order %10s tps  p50 %7.1fus  p99 %7.1fus\n", label,
              x, workload::FormatTps(r.ThroughputTps()).c_str(),
              workload::FormatTps(r.ThroughputTps(workload::kNewOrder)).c_str(),
              r.latency.Percentile(50) / 1000.0, r.latency.Percentile(99) / 1000.0);
}

void PrintSmallBankRow(const char* label, uint32_t x, const DriverResult& r) {
  std::printf("%-12s %4u  total %10s tps  p50 %7.1fus  p99 %7.1fus\n", label, x,
              workload::FormatTps(r.ThroughputTps()).c_str(),
              r.latency.Percentile(50) / 1000.0, r.latency.Percentile(99) / 1000.0);
}

}  // namespace drtmr::bench
