// The benchmark's own tests:
//  * at a 1-worker shape, a fully traced run and an untraced run of the same
//    seed give identical virtual results (commits per type, virtual window,
//    every latency sample), so the TxnApi decorator forwards every call and
//    charges no virtual time;
//  * per transaction, the run_one span's virtual time equals the sum of its
//    TxnApi-call spans plus the directly measured gaps between them.
#include <gtest/gtest.h>

#include <map>

#include "perfbench/src/report.h"
#include "perfbench/src/runner.h"

namespace perfbench {
namespace {

Shape Shrink(const std::string& name, uint32_t machines, uint32_t workers) {
  Shape s = *FindShape(name);
  s.machines = machines;
  s.workers = workers;
  s.accounts_per_node = 2000;
  s.hot_accounts = 200;
  s.customers_per_district = 300;
  s.items = 2000;
  s.memory_mb = 32;
  s.warmup_txns = 200;
  s.round_txns = s.kind == Kind::kTpcc ? 600 : 2000;
  s.rounds_per_epoch = 2;
  return s;
}

RunResult RunOnce(const Shape& shape, TraceMode mode, uint64_t seed, bool per_txn = false) {
  RunConfig cfg;
  cfg.shape = &shape;
  cfg.seed = seed;
  cfg.seconds = 0;  // exactly one epoch
  cfg.min_epochs = 1;
  cfg.trace = mode;
  cfg.keep_per_txn = per_txn;
  return RunClosedLoop(cfg);
}

void ExpectTracedEqualsUntraced(const Shape& shape, uint64_t seed) {
  const RunResult plain = RunOnce(shape, TraceMode::kOff, seed);
  const RunResult traced = RunOnce(shape, TraceMode::kAll, seed);
  ASSERT_TRUE(plain.correct);
  ASSERT_TRUE(traced.correct);
  ASSERT_GT(plain.committed, 0u);
  EXPECT_EQ(traced.committed, 0u);  // every measured round was traced
  EXPECT_EQ(plain.committed, traced.traced_committed);
  EXPECT_EQ(plain.committed_by_type, traced.traced_committed_by_type);
  EXPECT_EQ(plain.virtual_ns, traced.traced_virtual_ns);
  EXPECT_TRUE(plain.latency == traced.traced_latency);
  EXPECT_EQ(plain.latency.Percentile(99), traced.traced_latency.Percentile(99));
}

TEST(PerfbenchTest, PercentileInterpolatesBetweenDistinctValues) {
  LatencyCounts c;
  for (int i = 0; i < 50; ++i) {
    c.Record(100);
    c.Record(200);
  }
  EXPECT_DOUBLE_EQ(c.Percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(c.Percentile(75), 150.0);
  EXPECT_DOUBLE_EQ(c.Percentile(100), 200.0);

  LatencyCounts wide;
  const uint64_t big = uint64_t{1} << 40;
  wide.Record(5);
  for (int i = 0; i < 3; ++i) {
    wide.Record(big);
  }
  EXPECT_DOUBLE_EQ(wide.Percentile(50), 5.0 + (2.0 - 1.0) / 3.0 * static_cast<double>(big - 5));
  EXPECT_DOUBLE_EQ(wide.Percentile(100), static_cast<double>(big));
}

TEST(PerfbenchTest, TracedEqualsUntracedSmallBank) {
  ExpectTracedEqualsUntraced(Shrink("smallbank_local", 1, 1), 7);
}

TEST(PerfbenchTest, TracedEqualsUntracedTpcc) {
  ExpectTracedEqualsUntraced(Shrink("tpcc_mix", 1, 1), 7);
}

TEST(PerfbenchTest, SeedChangesInputs) {
  const Shape shape = Shrink("smallbank_local", 1, 1);
  const RunResult a = RunOnce(shape, TraceMode::kOff, 1);
  const RunResult b = RunOnce(shape, TraceMode::kOff, 2);
  EXPECT_NE(a.committed_by_type, b.committed_by_type);
}

void ExpectVnsReconciles(const Shape& shape) {
  const RunResult run = RunOnce(shape, TraceMode::kAll, 3, /*per_txn=*/true);
  ASSERT_TRUE(run.correct);
  uint64_t txns = 0;
  uint64_t total_vns = 0;
  for (const auto& w : run.worker_traces) {
    for (const TxnVns& t : w->per_txn()) {
      ASSERT_EQ(t.total, t.children + t.self);
      txns++;
      total_vns += t.total;
    }
    EXPECT_EQ(w->totals(SpanName::kRunOne).vns, [&] {
      uint64_t sum = 0;
      for (const TxnVns& t : w->per_txn()) {
        sum += t.total;
      }
      return sum;
    }());
  }
  EXPECT_EQ(txns, run.traced_committed);
  EXPECT_GT(total_vns, 0u);
}

TEST(PerfbenchTest, VnsReconcilesPerTxnReplicatedDistributed) {
  const Shape shape = Shrink("smallbank_rep_dist", 3, 1);
  ExpectVnsReconciles(shape);
}

TEST(PerfbenchTest, VnsReconcilesPerTxnTpcc) { ExpectVnsReconciles(Shrink("tpcc_mix", 2, 1)); }

TEST(PerfbenchTest, PerLayerMetricsCoverEveryCallKind) {
  const Shape shape = Shrink("tpcc_mix", 2, 1);
  const RunResult run = RunOnce(shape, TraceMode::kAlternate, 5);
  ASSERT_TRUE(run.correct);
  const SubstrateCosts probe = ProbeSubstrates(5, 2, 200);
  EXPECT_EQ(probe.failed, 0u);
  std::map<std::string, double> m;
  for (const Metric& metric : PerLayerMetrics(run, probe)) {
    EXPECT_TRUE(m.emplace(metric.name, metric.value).second) << metric.name;
  }
  for (const char* name : {"txn.begin.calls", "txn.read_local.calls", "txn.read_remote.calls",
                           "txn.write.calls", "txn.insert.calls", "txn.remove.calls",
                           "txn.scan.calls", "txn.commit.calls", "sim.htm.commits",
                           "txn.phase.execution.vns", "store.btree_lookup.host_ns"}) {
    EXPECT_GT(m.at(name), 0.0) << name;
  }
  EXPECT_DOUBLE_EQ(m.at("rep.flush.calls"), 0.0);
}

}  // namespace
}  // namespace perfbench
