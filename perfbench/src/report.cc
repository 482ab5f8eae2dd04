#include "perfbench/src/report.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using drtmr::Status;
using drtmr::obs::Counter;
using drtmr::obs::Phase;
using drtmr::obs::Verb;

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double MedianOf(const std::vector<SetupTimes>& setups, double (*get)(const SetupTimes&)) {
  std::vector<double> v;
  for (const SetupTimes& s : setups) {
    v.push_back(get(s));
  }
  return Median(v);
}

// Sums a span kind over every worker.
CallTotals Sum(const RunResult& run, SpanName name) {
  CallTotals t;
  for (const auto& w : run.worker_traces) {
    t.calls += w->totals(name).calls;
    t.host_ns += w->totals(name).host_ns;
    t.vns += w->totals(name).vns;
  }
  return t;
}

uint64_t CommitsWith(const RunResult& run, Status s) {
  uint64_t n = 0;
  for (const auto& w : run.worker_traces) {
    n += w->commits_with(s);
  }
  return n;
}

std::string AffinityList(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return "unknown";
  }
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      out += (out.empty() ? "" : ",") + std::to_string(cpu);
      (*count)++;
    }
  }
  return out;
}

}  // namespace

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> EndToEndMetrics(const RunResult& run, double peak_rss_mb) {
  return {
      {"vtps", Ratio(run.committed * 1e9, run.virtual_ns), "txn/s"},
      {"vlat_p50_ns", run.latency.Percentile(50), "ns"},
      {"vlat_p99_ns", run.latency.Percentile(99), "ns"},
      {"host_txn_per_s", Ratio(run.committed, run.host_s), "txn/s"},
      {"setup_s", MedianOf(run.setups, [](const SetupTimes& s) { return s.total(); }), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunResult& run, const SubstrateCosts& substrates) {
  std::vector<Metric> m;
  const CallTotals txn = Sum(run, SpanName::kRunOne);
  const double txns = static_cast<double>(txn.calls);
  uint64_t self_host = 0;
  uint64_t self_v = 0;
  for (const auto& w : run.worker_traces) {
    self_host += w->self_host_ns();
    self_v += w->self_vns();
  }

  // workload: RunOne as a whole, and its time outside every TxnApi call.
  m.push_back({"workload.txn.host_ns", Ratio(txn.host_ns, txns), "ns"});
  m.push_back({"workload.txn.vns", Ratio(txn.vns, txns), "ns"});
  m.push_back({"workload.self.host_ns", Ratio(self_host, txns), "ns"});
  m.push_back({"workload.self.vns", Ratio(self_v, txns), "ns"});
  m.push_back({"workload.attempts_per_txn",
               Ratio(Sum(run, SpanName::kBegin).calls, txns), "1/txn"});

  // txn: one entry per TxnApi call kind.
  const std::pair<const char*, SpanName> calls[] = {
      {"begin", SpanName::kBegin},         {"read_local", SpanName::kReadLocal},
      {"read_remote", SpanName::kReadRemote}, {"write", SpanName::kWrite},
      {"insert", SpanName::kInsert},       {"remove", SpanName::kRemove},
      {"scan", SpanName::kScan},           {"commit", SpanName::kCommit},
      {"user_abort", SpanName::kUserAbort},
  };
  for (const auto& [name, span] : calls) {
    const CallTotals t = Sum(run, span);
    const std::string p = std::string("txn.") + name;
    m.push_back({p + ".calls", Ratio(t.calls, txns), "1/txn"});
    m.push_back({p + ".host_ns", Ratio(t.host_ns, t.calls), "ns"});
    m.push_back({p + ".vns", Ratio(t.vns, t.calls), "ns"});
  }
  const double commit_calls = static_cast<double>(Sum(run, SpanName::kCommit).calls);
  m.push_back({"txn.commit.ok_ratio", Ratio(CommitsWith(run, Status::kOk), commit_calls),
               "ratio"});
  const std::pair<const char*, Status> fails[] = {
      {"aborted", Status::kAborted}, {"conflict", Status::kConflict},
      {"stale_epoch", Status::kStaleEpoch}, {"timeout", Status::kTimeout},
      {"migrating", Status::kMigrating},
  };
  uint64_t listed = CommitsWith(run, Status::kOk);
  for (const auto& [name, status] : fails) {
    const uint64_t n = CommitsWith(run, status);
    listed += n;
    m.push_back({std::string("txn.commit.fail.") + name, Ratio(n, commit_calls), "ratio"});
  }
  m.push_back({"txn.commit.fail.other", Ratio(commit_calls - listed, commit_calls), "ratio"});

  const LayerCounters& c = run.counters;
  m.push_back({"txn.aborts_lock", Ratio(c.aborts_lock, txns), "1/txn"});
  m.push_back({"txn.aborts_validation", Ratio(c.aborts_validation, txns), "1/txn"});
  m.push_back({"txn.fallbacks", Ratio(c.fallbacks, txns), "1/txn"});
  m.push_back({"txn.htm_commit_retries", Ratio(c.htm_commit_retries, txns), "1/txn"});

  const drtmr::obs::Snapshot& reg = run.registry;
  const double commits = static_cast<double>(reg.counter(Counter::kTxnCommit));
  for (size_t p = 0; p < drtmr::obs::kNumPhases; ++p) {
    m.push_back({std::string("txn.phase.") + drtmr::obs::PhaseName(static_cast<Phase>(p)) +
                     ".vns",
                 Ratio(reg.phases[p].sum(), commits), "ns"});
  }

  // sim: HTM engines summed over nodes, and the fabric matrix.
  m.push_back({"sim.htm.commits", Ratio(c.htm_commits, txns), "1/txn"});
  m.push_back({"sim.htm.aborts.conflict", Ratio(c.htm_aborts_conflict, txns), "1/txn"});
  m.push_back({"sim.htm.aborts.capacity", Ratio(c.htm_aborts_capacity, txns), "1/txn"});
  m.push_back({"sim.htm.aborts.explicit", Ratio(c.htm_aborts_explicit, txns), "1/txn"});
  m.push_back({"sim.htm.aborts.io", Ratio(c.htm_aborts_io, txns), "1/txn"});
  m.push_back({"sim.htm.commit_ratio", Ratio(c.htm_commits, c.htm_begins), "ratio"});
  for (uint32_t v = 0; v < static_cast<uint32_t>(Verb::kCount); ++v) {
    uint64_t ops = 0;
    for (const auto& k : reg.fabric) {
      if (((k.key >> 32) & 0xffffff) == v) {
        ops += k.ops;
      }
    }
    m.push_back({std::string("sim.fabric.") + drtmr::obs::VerbName(static_cast<Verb>(v)) +
                     ".per_commit",
                 Ratio(ops, commits), "1/commit"});
  }
  m.push_back({"sim.fabric.bytes_per_commit", Ratio(reg.FabricBytes(), commits), "B/commit"});
  m.push_back({"sim.fabric.verbs_per_doorbell",
               Ratio(reg.counter(Counter::kFabricChainedVerbs),
                     reg.counter(Counter::kFabricDoorbells)),
               "1/doorbell"});
  for (size_t op = 0; op < kNumSubstrateOps; ++op) {
    const SubstrateOp o = static_cast<SubstrateOp>(op);
    const bool store_op = o == SubstrateOp::kHashInsert || o == SubstrateOp::kHashLookup ||
                          o == SubstrateOp::kBtreeInsert || o == SubstrateOp::kBtreeLookup;
    m.push_back({std::string(store_op ? "store." : "sim.") + SubstrateOpName(o) + ".host_ns",
                 substrates.host_ns[op], "ns"});
  }

  // rep: FlushLog spans and the replication counters.
  const CallTotals flush = Sum(run, SpanName::kFlushLog);
  m.push_back({"rep.flush.calls", Ratio(flush.calls, txns), "1/txn"});
  m.push_back({"rep.flush.host_ns", Ratio(flush.host_ns, flush.calls), "ns"});
  m.push_back({"rep.flush.vns", Ratio(flush.vns, flush.calls), "ns"});
  m.push_back({"rep.log_bytes_per_commit", Ratio(reg.counter(Counter::kRepLogBytes), commits),
               "B/commit"});
  m.push_back({"rep.txns_per_fence", Ratio(reg.counter(Counter::kRepWindowTxns),
                                           reg.counter(Counter::kRepWindowFlushes)),
               "1/fence"});
  m.push_back({"rep.slots_retired_ratio", Ratio(reg.counter(Counter::kRepSlotsRetired),
                                                reg.counter(Counter::kRepLogEntries)),
               "ratio"});

  // Set-up steps, median over the run's epochs.
  m.push_back({"setup.cluster_s",
               MedianOf(run.setups, [](const SetupTimes& s) { return s.cluster_s; }), "s"});
  m.push_back({"setup.load_s", MedianOf(run.setups, [](const SetupTimes& s) { return s.load_s; }),
               "s"});
  m.push_back({"setup.services_s",
               MedianOf(run.setups, [](const SetupTimes& s) { return s.services_s; }), "s"});

  m.push_back({"obs.trace_overhead",
               1.0 - Ratio(Ratio(run.traced_committed, run.traced_host_s),
                           Ratio(run.committed, run.host_s)),
               "ratio"});
  return m;
}

void PrintHeader(const HeaderInfo& info) {
  const Shape& s = *info.shape;
  int allowed = 0;
  const std::string mask = AffinityList(&allowed);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("# workload: %s (closed loop, %s run)\n", s.name.c_str(),
              info.traced ? "traced" : "untraced");
  std::printf("# host: nproc %ld, affinity %s (%s), build %s, git %s\n", online, mask.c_str(),
              allowed < online ? "pinned" : "not pinned", PERFBENCH_BUILD_TYPE,
              info.git.c_str());
  std::printf("# seed %" PRIu64 ", measure %.1f s\n", info.seed, info.seconds);
  std::printf("# shape: %u machines x %u workers, %u service threads, replication %s\n",
              s.machines, s.workers, s.machines, s.replication ? "3-way" : "off");
  if (s.kind == Kind::kSmallBank) {
    std::printf("# data: %" PRIu64 " accounts/machine, hot set %" PRIu64
                " (%u%% of accesses), %u%% distributed SP/AMG\n",
                s.accounts_per_node, s.hot_accounts, drtmr::workload::SmallBankConfig{}.hot_pct,
                s.cross_pct);
  } else {
    const drtmr::workload::TpccConfig tc;
    std::printf("# data: 1 warehouse/machine, %u districts, %u customers/district, %u items, "
                "%u%% remote new-order items, %u%% remote payments\n",
                tc.districts, s.customers_per_district, s.items,
                tc.cross_warehouse_new_order_pct, tc.cross_warehouse_payment_pct);
  }
  std::printf("# epoch: warm-up %" PRIu64 " + %u rounds x %" PRIu64 " txns per worker\n",
              s.warmup_txns, s.rounds_per_epoch, s.round_txns);
}

void PrintMetricLines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintRunSummary(const RunResult& run, uint64_t attempted, uint64_t failed) {
  std::printf("# epochs %u, measured txns %" PRIu64 " untraced + %" PRIu64
              " traced, latency samples %" PRIu64 "\n",
              run.epochs, run.committed, run.traced_committed, run.latency.count());
  if (run.committed_by_type.size() == drtmr::workload::kTpccTxnTypes && run.virtual_ns > 0) {
    std::printf("%-34s %16.6f %s\n", "neworder_vtps",
                run.committed_by_type[drtmr::workload::kNewOrder] * 1e9 / run.virtual_ns,
                "txn/s");
  }
  std::printf("%-34s %16.6f %s\n", "failed_ratio", Ratio(failed, attempted), "ratio");
  for (const auto& [label, tps] : {std::pair{"untraced", &run.round_host_tps},
                                   std::pair{"traced", &run.traced_round_host_tps}}) {
    if (tps->size() >= 2) {
      std::vector<double> v = *tps;
      std::sort(v.begin(), v.end());
      std::printf("# %s rounds host txn/s: n %zu, min %.0f, median %.0f, max %.0f\n", label,
                  v.size(), v.front(), Median(v), v.back());
    }
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
