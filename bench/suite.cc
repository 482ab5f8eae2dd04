#include "bench/suite.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "src/chk/checker.h"
#include "src/chk/history.h"
#include "src/chk/torture.h"
#include "src/cluster/membership.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/rep/migration.h"
#include "src/rep/recovery.h"

namespace drtmr::bench {

namespace {

using Results = std::vector<std::pair<std::string, double>>;

void AddLatencyResults(const workload::DriverResult& r, Results* out) {
  out->emplace_back("total_tps", r.ThroughputTps());
  // Interpolated percentiles: the bucket-upper-bound Percentile() jumps a
  // whole log-bucket width when the tail straddles a boundary, which reads as
  // a fake 30% regression at the gate.
  out->emplace_back("p50_ns", r.latency.PercentileInterpolated(50));
  out->emplace_back("p99_ns", r.latency.PercentileInterpolated(99));
}

void RunSmallBankEntry(bool smoke, bool rep, bool no_glob, Results* out) {
  SmallBankBenchConfig cfg;
  cfg.fused_seq_lock = !no_glob;
  if (smoke) {
    // 4 machines so with 3-way replication no node backs up every other —
    // full backup fan-in (3 nodes, replicas=3) couples the tail latency to
    // host scheduling hard enough to flake the 5% gate on small hosts.
    cfg.machines = 4;
    cfg.threads = 2;
    cfg.accounts_per_node = 5000;
    cfg.txns_per_thread = 4000;
    cfg.warmup_per_thread = 200;
    cfg.memory_mb = 24;
    cfg.log_mb = 4;
  } else {
    cfg.machines = 6;
    cfg.threads = 16;  // the paper's peak point (Fig. 14/16 right edge)
    cfg.txns_per_thread = 3000;
  }
  cfg.replication = rep;
  RunInfo& info = MutableRunInfo();
  info.machines = cfg.machines;
  info.threads = cfg.threads;
  info.logical_nodes = cfg.machines;
  info.replication = rep;
  AddLatencyResults(RunSmallBankDrtmR(cfg), out);
}

void RunTpccEntry(bool smoke, bool rep, bool no_glob, Results* out) {
  TpccBenchConfig cfg;
  cfg.fused_seq_lock = !no_glob;
  if (smoke) {
    // Still CI-fast, but enough transactions that the log-bucketed p99 and
    // the throughput settle well inside the gate's 5% tolerance.
    cfg.machines = 4;
    cfg.threads = 4;
    cfg.txns_per_thread = 5000;
    cfg.warmup_per_thread = 250;
    cfg.customers_per_district = 100;
    cfg.items = 2000;
    cfg.memory_mb = 32;
    cfg.log_mb = 4;
  } else {
    cfg.txns_per_thread = 2000;  // 6 machines x 8 threads (Fig. 10 right edge)
  }
  cfg.replication = rep;
  RunInfo& info = MutableRunInfo();
  info.machines = cfg.machines;
  info.threads = cfg.threads;
  info.logical_nodes = cfg.machines * cfg.logical_per_machine;
  info.replication = rep;
  const workload::DriverResult r = RunTpccDrtmR(cfg);
  out->emplace_back("neworder_tps", r.ThroughputTps(workload::kNewOrder));
  AddLatencyResults(r, out);
}

// Fig. 20's recovery cost, but on the virtual clock so it is gateable: run a
// replicated SmallBank window to populate the backup logs, fail-stop one
// machine, and charge RecoverAfterFailure to a survivor's tool context.
void RunRecoveryEntry(bool smoke, Results* out) {
  SmallBankBenchConfig cfg;
  cfg.replication = true;
  if (smoke) {
    cfg.machines = 3;
    cfg.threads = 2;
    cfg.accounts_per_node = 2000;
    cfg.txns_per_thread = 100;
    cfg.warmup_per_thread = 10;
    cfg.memory_mb = 24;
    cfg.log_mb = 4;
  } else {
    cfg.machines = 6;
    cfg.threads = 4;
    cfg.accounts_per_node = 8000;
    cfg.txns_per_thread = 200;
    cfg.warmup_per_thread = 20;
  }
  RunInfo& info = MutableRunInfo();
  info.machines = cfg.machines;
  info.threads = cfg.threads;
  info.logical_nodes = cfg.machines;
  info.replication = true;

  SmallBankStack stack(cfg);
  (void)stack.Run(cfg);  // replicated traffic so the logs have entries to drain
  const uint32_t dead = cfg.machines - 1;
  const uint32_t host = 0;
  stack.cluster->Kill(dead);
  stack.coordinator->Remove(dead);
  rep::RecoveryManager rm(stack.engine.get(), stack.replicator.get(),
                          stack.coordinator.get());
  sim::ThreadContext* ctx = stack.cluster->node(host)->tool_context();
  const uint64_t t0 = ctx->clock.now_ns();
  const rep::RecoveryReport report = rm.RecoverAfterFailure(ctx, dead, host, stack.pmap.get());
  out->emplace_back("recovery_ns", static_cast<double>(ctx->clock.now_ns() - t0));
  out->emplace_back("records_rehosted", static_cast<double>(report.records_rehosted));
  out->emplace_back("log_entries_drained", static_cast<double>(report.log_entries_drained));
  out->emplace_back("primaries_patched", static_cast<double>(report.primaries_patched));
}

// Torture wall time: the only wall-clock entry; _ms keys are never gated, so
// this tracks checker throughput without flaking CI. torture_ok = 1 is
// required for the suite to pass.
bool RunTortureEntry(bool smoke, Results* out) {
  using Clock = std::chrono::steady_clock;
  chk::TortureOptions topt;
  topt.shape.nodes = smoke ? 3 : 4;
  topt.shape.workers = 2;
  topt.shape.replicas = 3;
  topt.shape.keys_per_node = 8;
  topt.shape.txns_per_worker = smoke ? 60 : 200;
  RunInfo& info = MutableRunInfo();
  info.machines = topt.shape.nodes;
  info.threads = topt.shape.workers;
  info.logical_nodes = topt.shape.nodes;
  info.replication = true;

  const chk::TorturePlanKind kinds[] = {chk::TorturePlanKind::kDelay,
                                        chk::TorturePlanKind::kKill};
  const auto t0 = Clock::now();
  uint64_t committed = 0;
  uint64_t runs = 0;
  bool all_ok = true;
  for (chk::TorturePlanKind kind : kinds) {
    for (uint64_t seed = 1; seed <= (smoke ? 1u : 2u); ++seed) {
      topt.seed = seed;
      topt.plan_kind = kind;
      const chk::TortureResult r = chk::RunTorture(topt);
      committed += r.committed;
      runs++;
      if (!r.ok) {
        std::fprintf(stderr, "[suite] torture FAILED (%s seed=%llu): %s\n",
                     chk::TorturePlanKindName(kind), (unsigned long long)seed,
                     r.Summary().c_str());
        all_ok = false;
      }
    }
  }
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count() /
      1000.0;
  out->emplace_back("torture_wall_ms", wall_ms);
  out->emplace_back("torture_runs", static_cast<double>(runs));
  out->emplace_back("torture_committed", static_cast<double>(committed));
  out->emplace_back("torture_ok", all_ok ? 1.0 : 0.0);
  return all_ok;
}

// Elastic reconfiguration (DESIGN.md §14): SmallBank on a 6-machine cluster
// whose partitions are initially folded onto nodes 0-2 (the 3-node
// placement). Phase A measures steady-state throughput at that placement;
// phase B runs the identical load while a control thread live-migrates
// partitions 3-5 out to nodes 3-5 (scale-out to 6) and then back (scale-in
// to 3), both legs planned by MigrationManager::PlanRebalance. The whole run
// executes under the history recorder and the version-exact serializability
// checker. Gated keys:
//   elastic_ok    all six migrations commit, the placement round-trips, the
//                 balance-conservation invariant holds, and the recorded
//                 history is serializable;
//   dip_pct       phase-B throughput dip vs phase A, gated *absolutely*
//                 (< 10%, the zero-downtime bar) rather than vs baseline;
//   migration_ms  summed virtual duration of the six migrations
//                 (lower-is-better vs baseline).
bool RunElasticEntry(bool smoke, Results* out) {
  SmallBankBenchConfig cfg;
  cfg.machines = 6;
  cfg.replication = true;
  cfg.cross_pct = 20;  // meaningful remote traffic on the moving shards
  if (smoke) {
    cfg.threads = 2;
    cfg.accounts_per_node = 2000;
    cfg.txns_per_thread = 3000;
    cfg.warmup_per_thread = 150;
    cfg.memory_mb = 24;
    cfg.log_mb = 4;
  } else {
    cfg.threads = 8;
    cfg.accounts_per_node = 8000;
    cfg.txns_per_thread = 4000;
    cfg.warmup_per_thread = 200;
  }
  // Load generators run on all six machines in BOTH phases (workers on a
  // node that owns no partition run all-remote until a migration hands the
  // node a shard), so capacity is constant and dip_pct isolates the cost of
  // the transition itself rather than the remoteness of a placement.
  cfg.pre_load = [](cluster::PartitionMap* pmap) {
    for (uint32_t p = 3; p < 6; ++p) {
      pmap->Rehost(p, p % 3, /*epoch=*/1);
    }
  };
  RunInfo& info = MutableRunInfo();
  info.machines = cfg.machines;
  info.threads = cfg.threads;
  info.logical_nodes = cfg.machines;
  info.replication = true;

  SmallBankStack stack(cfg);

  // Epoch fencing on, but no membership threads: the armed service stamps
  // the current epoch once and the migration manager advances it itself —
  // exactly the frozen-coordinator-driver regime the protocol guarantees
  // progress under.
  rep::RecoveryManager recovery(stack.engine.get(), stack.replicator.get(),
                                stack.coordinator.get());
  cluster::MembershipConfig mcfg;
  mcfg.lease_ns = 1'000'000'000;  // commit admission never lease-bounces
  cluster::MembershipService membership(stack.cluster.get(), stack.coordinator.get(),
                                        stack.pmap.get(), mcfg);
  membership.set_recovery_fn([&](uint32_t dead, uint32_t host) {
    recovery.RecoverAfterFailure(stack.cluster->node(host)->tool_context(), dead, host,
                                 /*pmap=*/nullptr);
  });
  stack.engine->set_membership(&membership);
  membership.Arm();

  rep::MigrationSpec spec;
  spec.tables = {stack.bank->checking_table(), stack.bank->savings_table()};
  spec.partition_of = [](uint64_t key) { return static_cast<uint32_t>(key >> 40); };
  rep::MigrationManager migrator(stack.engine.get(), stack.replicator.get(),
                                 stack.coordinator.get(), stack.pmap.get(), spec);

  chk::HistoryRecorder::Global().Reset();
  chk::HistoryRecorder::Global().Enable(true);

  // Phase A: steady state at the folded placement.
  const workload::DriverResult base = stack.Run(cfg);

  // Phase B: the same load, with the 3->6 scale-out and 6->3 scale-in
  // landing mid-run. The control thread waits for the load to get underway
  // so every cutover happens under full commit traffic.
  workload::DriverOptions dopt;
  dopt.nodes = 0;  // all machines
  dopt.threads_per_node = cfg.threads;
  dopt.txns_per_thread = cfg.txns_per_thread;
  dopt.warmup_per_thread = cfg.warmup_per_thread;
  dopt.max_txn_types = workload::kSmallBankTxnTypes;
  rep::PrimaryBackupReplicator* repl = stack.replicator.get();
  dopt.worker_done = [repl](sim::ThreadContext* ctx) { repl->FlushLog(ctx); };

  std::atomic<uint64_t> executed{0};
  const uint64_t total_txns = static_cast<uint64_t>(cfg.machines) * cfg.threads *
                              (cfg.txns_per_thread + cfg.warmup_per_thread);
  std::vector<rep::MigrationReport> reports;
  std::thread control([&] {
    while (executed.load(std::memory_order_relaxed) < total_txns / 8) {
      std::this_thread::yield();
    }
    for (const uint32_t active : {6u, 3u}) {
      for (const auto& [part, dst] :
           rep::MigrationManager::PlanRebalance(*stack.pmap, active)) {
        reports.push_back(migrator.MigratePartition(part, dst));
      }
    }
  });
  const workload::DriverResult elastic = workload::RunWorkload(
      stack.cluster.get(), dopt,
      [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w, FastRand* rng) {
        executed.fetch_add(1, std::memory_order_relaxed);
        return stack.bank->RunOne(ctx, stack.by_slot[n * cfg.threads + w], rng);
      });
  control.join();

  chk::HistoryRecorder::Global().Enable(false);
  const std::vector<chk::TxnRec> history = chk::HistoryRecorder::Global().Collect();
  chk::CheckOptions copts;
  copts.version_step = 2;  // replicated commit seq step
  const chk::CheckResult check = chk::CheckSerializability(history, copts);
  chk::HistoryRecorder::Global().Reset();

  bool ok = check.ok;
  if (!check.ok) {
    std::fprintf(stderr, "[suite] elastic: history NOT serializable: %s\n",
                 check.Summary().c_str());
  }
  uint64_t migration_ns = 0;
  for (const rep::MigrationReport& r : reports) {
    if (r.status != Status::kOk) {
      std::fprintf(stderr, "[suite] elastic: migration %u -> %u failed (status %d)\n",
                   r.partition, r.destination, static_cast<int>(r.status));
      ok = false;
    }
    migration_ns += r.duration_ns;
  }
  if (reports.size() != 6) {
    std::fprintf(stderr, "[suite] elastic: planner emitted %zu moves, expected 6\n",
                 reports.size());
    ok = false;
  }
  for (uint32_t p = 3; p < 6; ++p) {
    if (stack.pmap->node_of(p) != p % 3) {
      std::fprintf(stderr, "[suite] elastic: partition %u did not round-trip (owner %u)\n",
                   p, stack.pmap->node_of(p));
      ok = false;
    }
  }
  const int64_t want = stack.bank->initial_total() + stack.bank->external_delta();
  const int64_t have = stack.bank->TotalBalance();
  if (have != want) {
    std::fprintf(stderr,
                 "[suite] elastic: conservation violated: total %lld want %lld\n",
                 static_cast<long long>(have), static_cast<long long>(want));
    ok = false;
  }
  const double base_tps = base.ThroughputTps();
  const double elastic_tps = elastic.ThroughputTps();
  if (base_tps <= 0.0 || elastic_tps <= 0.0) {
    ok = false;
  }
  const double dip_pct =
      base_tps > 0.0 ? std::max(0.0, (base_tps - elastic_tps) / base_tps * 100.0) : 100.0;
  out->emplace_back("base_tps", base_tps);
  out->emplace_back("elastic_tps", elastic_tps);
  out->emplace_back("dip_pct", dip_pct);
  out->emplace_back("migration_ms", static_cast<double>(migration_ns) / 1e6);
  out->emplace_back("txns_checked", static_cast<double>(check.num_txns));
  out->emplace_back("elastic_ok", ok ? 1.0 : 0.0);

  // The membership service and the migration manager die before the stack
  // does; detach them from the engine first.
  membership.Stop();
  stack.engine->set_membership(nullptr);
  return ok;
}

// Per-key median across repetitions of one entry. A single rep can be
// perturbed by host scheduling (replication ack waits couple virtual time to
// real interleavings); the median of three discards the outlier run, which is
// what keeps the committed baselines reproducible inside the gate tolerance.
Results MedianResults(const std::vector<Results>& reps) {
  Results out;
  for (size_t i = 0; i < reps[0].size(); ++i) {
    std::vector<double> vals;
    vals.reserve(reps.size());
    for (const Results& r : reps) {
      vals.push_back(r[i].second);
    }
    std::sort(vals.begin(), vals.end());
    out.emplace_back(reps[0][i].first, vals[vals.size() / 2]);
  }
  return out;
}

}  // namespace

std::vector<std::string> SuiteEntryNames() {
  return {"smallbank_peak", "smallbank_rep", "tpcc_neworder", "tpcc_rep",
          "recovery",       "torture",       "elastic"};
}

std::vector<SuiteEntryResult> RunSuite(const SuiteOptions& opt) {
  std::vector<SuiteEntryResult> out;
  for (const std::string& name : SuiteEntryNames()) {
    if (!opt.only.empty() &&
        std::find(opt.only.begin(), opt.only.end(), name) == opt.only.end()) {
      continue;
    }
    SuiteEntryResult er;
    er.name = name;
    er.file = opt.out_dir + "/BENCH_" + name + (opt.smoke ? ".smoke" : "") +
              (opt.no_glob ? ".noglob" : "") + ".json";

    // Fresh, self-contained telemetry per entry.
    obs::Registry::Global().Reset();
    obs::Registry::Global().Enable(true);
    obs::FlightRecorder::Global().Reset();
    obs::FlightRecorder::Global().Enable(opt.slow_txns);
    RunInfo info;
    info.bench = name;
    info.profile = opt.smoke ? "smoke" : "full";
    SetRunInfo(info);

    std::printf("[suite] %s (%s) ...\n", name.c_str(), info.profile.c_str());
    std::fflush(stdout);
    bool run_ok = true;
    if (name == "torture") {
      // Wall-clock entry: one rep; its gated key is torture_ok only.
      MutableRunInfo().workload = "transfer";
      run_ok = RunTortureEntry(opt.smoke, &er.results);
    } else if (name == "elastic") {
      // One rep: the gate holds the line through elastic_ok and the absolute
      // dip_pct bar; the throughput keys carry wide tolerances below.
      MutableRunInfo().workload = "smallbank";
      run_ok = RunElasticEntry(opt.smoke, &er.results);
    } else {
      constexpr int kReps = 3;
      std::vector<Results> reps;
      for (int rep = 0; rep < kReps; ++rep) {
        // Smoke reps are deterministic: a recorder kept across reps would hold
        // the same slow transaction once per rep. Keep the last rep's.
        obs::FlightRecorder::Global().Reset();
        Results one;
        if (name == "smallbank_peak") {
          MutableRunInfo().workload = "smallbank";
          RunSmallBankEntry(opt.smoke, /*rep=*/false, opt.no_glob, &one);
        } else if (name == "smallbank_rep") {
          MutableRunInfo().workload = "smallbank";
          RunSmallBankEntry(opt.smoke, /*rep=*/true, opt.no_glob, &one);
        } else if (name == "tpcc_neworder") {
          MutableRunInfo().workload = "tpcc";
          RunTpccEntry(opt.smoke, /*rep=*/false, opt.no_glob, &one);
        } else if (name == "tpcc_rep") {
          MutableRunInfo().workload = "tpcc";
          RunTpccEntry(opt.smoke, /*rep=*/true, opt.no_glob, &one);
        } else if (name == "recovery") {
          MutableRunInfo().workload = "smallbank";
          RunRecoveryEntry(opt.smoke, &one);
        }
        reps.push_back(std::move(one));
      }
      er.results = MedianResults(reps);
    }

    // Derived Table 6 metric for the replicated entries: the fractional
    // throughput gap to the unreplicated peer entry from this same
    // invocation (0.45 = replication costs 45% of peak). Informational key
    // (no _tps/_ns suffix) — the gate holds the line through total_tps; this
    // makes the overhead the paper tabulates directly readable from the
    // committed json. Skipped when --only leaves the peer out.
    if (name == "smallbank_rep" || name == "tpcc_rep") {
      const std::string peer = name == "smallbank_rep" ? "smallbank_peak" : "tpcc_neworder";
      double peak_tps = 0.0;
      for (const SuiteEntryResult& prev : out) {
        if (prev.name != peer) {
          continue;
        }
        for (const auto& kv : prev.results) {
          if (kv.first == "total_tps") {
            peak_tps = kv.second;
          }
        }
      }
      double rep_tps = 0.0;
      for (const auto& kv : er.results) {
        if (kv.first == "total_tps") {
          rep_tps = kv.second;
        }
      }
      if (peak_tps > 0.0 && rep_tps > 0.0) {
        er.results.emplace_back("rep_gap", 1.0 - rep_tps / peak_tps);
      }
    }

    // Per-key gate-tolerance overrides, written into the baseline so --regen
    // keeps them. smallbank_rep's p99 is bimodal (~3.4µs vs ~4.2µs across
    // runs, a ~30% jump): the replicated 1-read/1-write mix puts almost
    // exactly 1% of transactions into the NIC-queued replication tail, so the
    // p99 rank sits on the cliff between the fast mode and the queued mode
    // and flips between them run to run. Median-of-3 doesn't settle a 40/60
    // coin; a wider per-key tolerance is the honest gate.
    std::vector<std::pair<std::string, double>> tolerances;
    if (name == "smallbank_rep") {
      tolerances.emplace_back("p99_ns", 0.40);
      // Throughput at the full-profile shape (6x16, replicated) couples to
      // host scheduling through backup ack waits: measured run-to-run spread
      // is ~7% around the mode with occasional faster-mode outliers, while
      // p50/p99 stay within 1%. (The smoke shape sits near 2%.)
      tolerances.emplace_back("total_tps", 0.15);
    }
    if (name == "elastic") {
      // Single-rep throughput with a concurrent migration control thread:
      // run-to-run spread is wide, and the entry's real gates are elastic_ok
      // (correctness) and the absolute dip_pct bar. The _tps keys only catch
      // catastrophic collapses; migration_ms tracks the pump's virtual cost.
      tolerances.emplace_back("base_tps", 0.50);
      tolerances.emplace_back("elastic_tps", 0.50);
      tolerances.emplace_back("migration_ms", 1.00);
    }

    const obs::Snapshot snap = obs::Registry::Global().Collect();
    const bool wrote = WriteBenchJson(er.file, snap, er.results, tolerances);
    if (!wrote) {
      std::fprintf(stderr, "[suite] failed to write %s\n", er.file.c_str());
    }
    er.ok = run_ok && wrote;
    std::printf("[suite] %-16s %s ", name.c_str(), er.ok ? "ok  " : "FAIL");
    for (const auto& kv : er.results) {
      std::printf(" %s=%.1f", kv.first.c_str(), kv.second);
    }
    std::printf("  -> %s\n", er.file.c_str());
    std::fflush(stdout);
    out.push_back(std::move(er));
  }
  obs::Registry::Global().Enable(false);
  obs::FlightRecorder::Global().Enable(0);
  return out;
}

}  // namespace drtmr::bench
