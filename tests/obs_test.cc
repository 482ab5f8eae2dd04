// Unit tests for the observability layer: Histogram edge cases (including the
// zero-sample sentinel fix), sharded-registry merge correctness under
// concurrent writers, keyed counters, trace-ring bounds, and JSON output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/phase_timer.h"
#include "src/sim/thread_context.h"
#include "src/util/histogram.h"

namespace drtmr {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---------------- Histogram ----------------

TEST(HistogramTest, EmptyHistogramReportsZeroes) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramTest, SingleSamplePercentiles) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  // Every percentile of a single sample is that sample (clamped to
  // [min, max], so bucket granularity cannot leak through).
  EXPECT_EQ(h.Percentile(0), 1000u);
  EXPECT_EQ(h.Percentile(50), 1000u);
  EXPECT_EQ(h.Percentile(100), 1000u);
}

TEST(HistogramTest, GenuineZeroSampleIsNotConfusedWithEmpty) {
  Histogram h;
  h.Record(0);
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);

  // A 0 ns sample recorded after larger ones must pull min down to 0.
  Histogram h2;
  h2.Record(500);
  h2.Record(0);
  EXPECT_EQ(h2.min(), 0u);
  EXPECT_EQ(h2.Percentile(0), 0u);
}

TEST(HistogramTest, MergePreservesZeroMin) {
  // The historical bug: Merge() took min(other.min_, min_) without regard to
  // emptiness, so merging h{0ns} into an empty histogram (whose min_ sentinel
  // is 0) "worked" by accident, but merging an *empty* histogram into h{10ns}
  // dragged min to the 0 sentinel — and a genuine 0 ns min could not be told
  // apart from "no samples".
  Histogram ten;
  ten.Record(10);
  Histogram empty;
  ten.Merge(empty);
  EXPECT_EQ(ten.count(), 1u);
  EXPECT_EQ(ten.min(), 10u);  // empty histogram must not clobber the min

  Histogram zero;
  zero.Record(0);
  ten.Merge(zero);
  EXPECT_EQ(ten.count(), 2u);
  EXPECT_EQ(ten.min(), 0u);  // genuine 0 ns min survives the merge

  Histogram other;
  other.Record(7);
  other.Merge(ten);
  EXPECT_EQ(other.min(), 0u);
  EXPECT_EQ(other.max(), 10u);
  EXPECT_EQ(other.count(), 3u);
}

TEST(HistogramTest, MergeOfTwoEmptiesStaysEmpty) {
  Histogram a, b;
  a.Merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.min(), 0u);
}

TEST(HistogramTest, PercentilesBracketedByMinAndMax) {
  Histogram h;
  for (uint64_t v = 100; v <= 100000; v += 77) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0), h.min());
  EXPECT_EQ(h.Percentile(100), h.max());
  const uint64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p50, h.max());
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
}

TEST(HistogramTest, BucketRoundTrip) {
  for (uint64_t ns : {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull, 123456789ull, 1ull << 40}) {
    const size_t b = Histogram::BucketFor(ns);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_GE(Histogram::BucketUpperBound(b), ns);
  }
}

// ---------------- Registry ----------------

class ObsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().Reset();
    obs::Registry::Global().Enable(true);
  }
  void TearDown() override {
    obs::Registry::Global().Enable(false);
    obs::Registry::Global().EnableTrace(0);
    obs::Registry::Global().Reset();
  }
};

TEST_F(ObsRegistryTest, ConcurrentWritersMergeExactly) {
  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::Registry& reg = obs::Registry::Global();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        reg.AddCount(obs::Counter::kTxnCommit);
        reg.AddPhase(obs::Phase::kLock, i % 100);
        reg.AddVerb(obs::Verb::kRead, t, (t + 1) % kThreads, 64);
        reg.AddHtmAbort(/*code=*/1, obs::HtmSite::kCommit);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_EQ(snap.counter(obs::Counter::kTxnCommit), kThreads * kPerThread);

  const Histogram& lock = snap.phase(obs::Phase::kLock);
  EXPECT_EQ(lock.count(), kThreads * kPerThread);
  // Each thread contributes sum(0..99) * (kPerThread / 100).
  EXPECT_EQ(lock.sum(), kThreads * (kPerThread / 100) * 4950);
  EXPECT_EQ(lock.min(), 0u);
  EXPECT_EQ(lock.max(), 99u);

  // One fabric key per thread (distinct src), each with exact ops/bytes.
  ASSERT_EQ(snap.fabric.size(), kThreads);
  for (const auto& k : snap.fabric) {
    EXPECT_EQ(k.ops, kPerThread);
    EXPECT_EQ(k.bytes, kPerThread * 64);
  }
  EXPECT_EQ(snap.FabricOps(), kThreads * kPerThread);
  EXPECT_EQ(snap.FabricBytes(), kThreads * kPerThread * 64);

  // All HTM aborts collapse onto one (code, site) key.
  ASSERT_EQ(snap.htm_aborts.size(), 1u);
  EXPECT_EQ(snap.htm_aborts[0].ops, kThreads * kPerThread);
  EXPECT_EQ(snap.HtmAborts(), kThreads * kPerThread);
}

TEST_F(ObsRegistryTest, ShardsAreReusedAcrossShortLivedThreads) {
  const size_t before = obs::Registry::Global().num_shards();
  for (int i = 0; i < 16; ++i) {
    std::thread([] { obs::Count(obs::Counter::kTxnCommit); }).join();
  }
  // Sequential threads release their shard on exit, so the pool must not grow
  // by one per thread.
  EXPECT_LE(obs::Registry::Global().num_shards(), before + 1);
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_EQ(snap.counter(obs::Counter::kTxnCommit), 16u);
}

TEST_F(ObsRegistryTest, DisabledHooksRecordNothing) {
  obs::Registry::Global().Enable(false);
  obs::Count(obs::Counter::kTxnCommit);
  obs::PhaseSample(obs::Phase::kLock, 123);
  obs::CountVerb(obs::Verb::kWrite, 0, 1, 64);
  obs::CountHtmAbort(1, obs::HtmSite::kCommit);
  sim::ThreadContext ctx(0, 0, /*seed=*/1);
  {
    obs::PhaseTimer timer(&ctx, obs::Phase::kValidation);
    ctx.Charge(500);
  }
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_EQ(snap.counter(obs::Counter::kTxnCommit), 0u);
  EXPECT_TRUE(snap.phase(obs::Phase::kLock).empty());
  EXPECT_TRUE(snap.phase(obs::Phase::kValidation).empty());
  EXPECT_TRUE(snap.fabric.empty());
  EXPECT_TRUE(snap.htm_aborts.empty());
}

TEST_F(ObsRegistryTest, PhaseTimerChargesVirtualTime) {
  sim::ThreadContext ctx(2, 3, /*seed=*/7);
  ctx.Charge(1000);
  {
    obs::PhaseTimer timer(&ctx, obs::Phase::kHtmCommit);
    ctx.Charge(250);
  }
  {
    obs::PhaseTimer timer(&ctx, obs::Phase::kHtmCommit);
    ctx.Charge(750);
    timer.Stop();
    ctx.Charge(10000);  // after Stop(): not attributed
  }
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  const Histogram& h = snap.phase(obs::Phase::kHtmCommit);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.min(), 250u);
  EXPECT_EQ(h.max(), 750u);
}

TEST_F(ObsRegistryTest, TraceRingIsBoundedAndCountsDrops) {
  constexpr uint32_t kCap = 16;
  constexpr uint32_t kEvents = 40;
  obs::Registry& reg = obs::Registry::Global();
  reg.EnableTrace(kCap);
  for (uint32_t i = 0; i < kEvents; ++i) {
    reg.AddTrace(obs::TraceName::kTxn, /*node=*/0, /*worker=*/0, /*ts_ns=*/i * 100,
                 /*dur_ns=*/50, /*arg=*/1);
  }
  const obs::Snapshot snap = reg.Collect();
  EXPECT_EQ(snap.counter(obs::Counter::kTraceDropped), kEvents - kCap);

  const std::string path = TempPath("obs_trace_ring.json");
  ASSERT_TRUE(reg.WriteChromeTrace(path));
  const std::string body = Slurp(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '[');
  EXPECT_EQ(body.substr(body.size() - 2), "]\n");
  // Only the newest kCap events survive, and the ring is emitted oldest-first
  // after the wrap.
  size_t n = 0;
  for (size_t pos = body.find("\"ph\""); pos != std::string::npos;
       pos = body.find("\"ph\"", pos + 1)) {
    ++n;
  }
  EXPECT_EQ(n, kCap);
  EXPECT_EQ(body.find("\"ts\":0.000"), std::string::npos);    // oldest events dropped
  EXPECT_NE(body.find("\"ts\":3.900"), std::string::npos);    // newest retained (39 * 100ns)
  EXPECT_NE(body.find("\"ts\":2.400"), std::string::npos);    // oldest retained (24 * 100ns)
}

TEST_F(ObsRegistryTest, ChromeTraceMixesSpansAndInstants) {
  obs::Registry& reg = obs::Registry::Global();
  reg.EnableTrace(64);
  reg.AddTrace(obs::TraceName::kTxn, 1, 2, 5000, 2000, 1);
  reg.AddTrace(obs::TraceName::kHtmAbort, 1, 2, 6000, 0, 3, /*instant=*/true);
  const std::string path = TempPath("obs_trace_mixed.json");
  ASSERT_TRUE(reg.WriteChromeTrace(path));
  const std::string body = Slurp(path);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"txn\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"htm_abort\""), std::string::npos);
  EXPECT_NE(body.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(body.find("\"tid\":2"), std::string::npos);
}

TEST_F(ObsRegistryTest, ChromeTraceNamesPhaseSpansByPhase) {
  obs::Registry& reg = obs::Registry::Global();
  reg.EnableTrace(64);
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    reg.AddTrace(obs::TraceNameOf(static_cast<obs::Phase>(i)), 0, 0, 100 * i, 10, 0);
  }
  reg.AddTrace(obs::TraceName::kTxnReadOnly, 0, 0, 1000, 10, 1);
  const std::string path = TempPath("obs_trace_phases.json");
  ASSERT_TRUE(reg.WriteChromeTrace(path));
  const std::string body = Slurp(path);
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const std::string name = obs::PhaseName(static_cast<obs::Phase>(i));
    EXPECT_NE(body.find("\"name\":\"" + name + "\""), std::string::npos) << name;
  }
  EXPECT_NE(body.find("\"name\":\"txn_ro\""), std::string::npos);
  EXPECT_EQ(body.find("\"name\":\"?\""), std::string::npos);
}

TEST_F(ObsRegistryTest, SnapshotJsonContainsAllSections) {
  obs::Registry& reg = obs::Registry::Global();
  reg.AddCount(obs::Counter::kTxnCommit, 5);
  reg.AddPhase(obs::Phase::kExecution, 1234);
  reg.AddVerb(obs::Verb::kCas, 0, 1, 8);
  reg.AddHtmAbort(/*code=*/2, obs::HtmSite::kStore);
  const obs::Snapshot snap = reg.Collect();
  const std::string path = TempPath("obs_metrics.json");
  ASSERT_TRUE(snap.WriteJson(path));
  const std::string body = Slurp(path);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  EXPECT_NE(body.find("\"txn_commit\": 5"), std::string::npos);
  EXPECT_NE(body.find("\"phases\""), std::string::npos);
  EXPECT_NE(body.find("\"execution\""), std::string::npos);
  EXPECT_NE(body.find("\"sum_ns\":1234"), std::string::npos);
  EXPECT_NE(body.find("\"htm_aborts\""), std::string::npos);
  EXPECT_NE(body.find("\"code\": \"capacity\""), std::string::npos);
  EXPECT_NE(body.find("\"site\": \"store\""), std::string::npos);
  EXPECT_NE(body.find("\"fabric\""), std::string::npos);
  EXPECT_NE(body.find("\"verb\": \"cas\""), std::string::npos);
}

TEST_F(ObsRegistryTest, ResetClearsEverything) {
  obs::Registry& reg = obs::Registry::Global();
  reg.EnableTrace(8);
  reg.AddCount(obs::Counter::kTxnCommit);
  reg.AddPhase(obs::Phase::kLock, 10);
  reg.AddVerb(obs::Verb::kRead, 0, 1, 64);
  reg.AddTrace(obs::TraceName::kTxn, 0, 0, 100, 50, 1);
  reg.Reset();
  const obs::Snapshot snap = reg.Collect();
  EXPECT_EQ(snap.counter(obs::Counter::kTxnCommit), 0u);
  EXPECT_TRUE(snap.phase(obs::Phase::kLock).empty());
  EXPECT_TRUE(snap.fabric.empty());
  const std::string path = TempPath("obs_trace_reset.json");
  ASSERT_TRUE(reg.WriteChromeTrace(path));
  const std::string body = Slurp(path);
  EXPECT_EQ(body.find("\"ph\""), std::string::npos);
}

}  // namespace
}  // namespace drtmr
