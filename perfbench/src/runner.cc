#include "perfbench/src/runner.h"

#include <algorithm>

#include "perfbench/src/traced_txn.h"
#include "src/workload/driver.h"

namespace perfbench {

namespace {

using namespace drtmr;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

LayerCounters ReadCounters(Stack* stack) {
  LayerCounters c;
  txn::TxnStats& ts = stack->engine()->stats();
  c.commits = ts.commits;
  c.aborts_lock = ts.aborts_lock;
  c.aborts_validation = ts.aborts_validation;
  c.fallbacks = ts.fallbacks;
  c.htm_commit_retries = ts.htm_commit_retries;
  for (uint32_t n = 0; n < stack->cluster()->num_nodes(); ++n) {
    sim::HtmEngine::Stats& hs = stack->cluster()->node(n)->htm()->stats();
    c.htm_begins += hs.begins;
    c.htm_commits += hs.commits;
    c.htm_aborts_conflict += hs.aborts_conflict;
    c.htm_aborts_capacity += hs.aborts_capacity;
    c.htm_aborts_explicit += hs.aborts_explicit;
    c.htm_aborts_io += hs.aborts_io;
  }
  return c;
}

void AddDelta(const LayerCounters& before, const LayerCounters& after, LayerCounters* sum) {
  sum->commits += after.commits - before.commits;
  sum->aborts_lock += after.aborts_lock - before.aborts_lock;
  sum->aborts_validation += after.aborts_validation - before.aborts_validation;
  sum->fallbacks += after.fallbacks - before.fallbacks;
  sum->htm_commit_retries += after.htm_commit_retries - before.htm_commit_retries;
  sum->htm_begins += after.htm_begins - before.htm_begins;
  sum->htm_commits += after.htm_commits - before.htm_commits;
  sum->htm_aborts_conflict += after.htm_aborts_conflict - before.htm_aborts_conflict;
  sum->htm_aborts_capacity += after.htm_aborts_capacity - before.htm_aborts_capacity;
  sum->htm_aborts_explicit += after.htm_aborts_explicit - before.htm_aborts_explicit;
  sum->htm_aborts_io += after.htm_aborts_io - before.htm_aborts_io;
}

// Span records kept per worker for the Chrome trace; aggregates cover all.
constexpr size_t kKeepSpansPerWorker = 4096;

enum class RoundKind { kWarmup, kPlain, kTraced };

struct Worker {
  FastRand rng;
  txn::TxnApi* api = nullptr;
  std::unique_ptr<TracedTxn> traced;
  uint64_t round_calls = 0;
  uint64_t epoch_calls = 0;
  LatencyCounts latency;
  LatencyCounts traced_latency;
  std::vector<uint64_t> by_type;
};

}  // namespace

void LatencyCounts::Merge(const LatencyCounts& other) {
  for (const auto& [ns, n] : other.counts_) {
    counts_[ns] += n;
  }
  count_ += other.count_;
}

double LatencyCounts::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double target = p / 100.0 * static_cast<double>(count_);
  // Walk the distinct values in order; `cum` is the count at or below the
  // current value, `prev`/`prev_cum` the previous distinct value and its count.
  uint64_t cum = 0;
  uint64_t prev = 0;
  uint64_t prev_cum = 0;
  for (const auto& [value, n] : counts_) {
    cum += n;
    if (static_cast<double>(cum) >= target) {
      if (cum == n) {  // the lowest value
        return static_cast<double>(value);
      }
      const double frac =
          (target - static_cast<double>(prev_cum)) / static_cast<double>(cum - prev_cum);
      return static_cast<double>(prev) + frac * static_cast<double>(value - prev);
    }
    prev = value;
    prev_cum = cum;
  }
  return static_cast<double>(prev);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

RunResult RunClosedLoop(const RunConfig& cfg) {
  const Shape& shape = *cfg.shape;
  const uint32_t slots = shape.total_workers();
  const bool tracing = cfg.trace != TraceMode::kOff;

  RunResult out;
  out.committed_by_type.assign(shape.txn_types(), 0);
  out.traced_committed_by_type.assign(shape.txn_types(), 0);

  std::vector<Worker> workers(slots);
  for (uint32_t n = 0; n < shape.machines; ++n) {
    for (uint32_t w = 0; w < shape.workers; ++w) {
      Worker& wk = workers[n * shape.workers + w];
      // The only source of workload inputs: one stream per (machine, worker),
      // derived from the run's seed and continued across epochs.
      wk.rng = FastRand(SplitMix(cfg.seed ^ SplitMix((static_cast<uint64_t>(n) << 32) | w)));
      wk.by_type.assign(shape.txn_types(), 0);
      if (tracing) {
        out.worker_traces.push_back(
            std::make_unique<WorkerTrace>(n, w, kKeepSpansPerWorker, cfg.keep_per_txn));
      }
    }
  }
  if (tracing) {
    out.setup_trace = std::make_unique<WorkerTrace>(shape.machines, 0, 64, false);
    obs::Registry::Global().Reset();
    obs::Registry::Global().Enable(false);
  }

  double measured_s = 0;
  for (uint32_t epoch = 0;; ++epoch) {
    if (epoch >= cfg.min_epochs && measured_s >= cfg.seconds) {
      break;
    }
    out.epochs++;
    SetupTimes times;
    Stack stack(shape, &times, out.setup_trace.get());
    out.setups.push_back(times);
    for (uint32_t n = 0; n < shape.machines; ++n) {
      for (uint32_t w = 0; w < shape.workers; ++w) {
        Worker& wk = workers[n * shape.workers + w];
        wk.api = stack.txn(n, w);
        wk.epoch_calls = 0;
        if (tracing) {
          wk.traced = std::make_unique<TracedTxn>(wk.api, stack.cluster()->node(n)->context(w),
                                                  out.worker_traces[n * shape.workers + w].get());
        }
      }
    }

    // Read by the worker threads RunWorkload starts for each round.
    RoundKind kind = RoundKind::kWarmup;
    const workload::TxnFn fn = [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w,
                                   FastRand* /*constant-seeded, unused*/) -> uint32_t {
      Worker& wk = workers[n * shape.workers + w];
      const uint64_t t0 = ctx->clock.now_ns();
      uint32_t type;
      if (kind == RoundKind::kTraced) {
        WorkerTrace* trace = out.worker_traces[n * shape.workers + w].get();
        trace->OpenTxn(ctx);
        type = stack.RunOne(ctx, wk.traced.get(), &wk.rng);
        trace->CloseTxn(ctx);
      } else {
        type = stack.RunOne(ctx, wk.api, &wk.rng);
      }
      const uint64_t dt = ctx->clock.now_ns() - t0;
      wk.epoch_calls++;
      if (kind != RoundKind::kWarmup) {
        wk.round_calls++;
        wk.by_type[type]++;
        (kind == RoundKind::kTraced ? wk.traced_latency : wk.latency).Record(dt);
      }
      return type;
    };

    workload::DriverOptions dopt;
    dopt.threads_per_node = shape.workers;
    dopt.warmup_per_thread = 0;
    dopt.max_txn_types = shape.txn_types();
    if (rep::PrimaryBackupReplicator* repl = stack.replicator()) {
      dopt.worker_done = [&, repl](sim::ThreadContext* ctx) {
        if (kind != RoundKind::kTraced) {
          repl->FlushLog(ctx);
          return;
        }
        WorkerTrace* trace = out.worker_traces[ctx->node_id * shape.workers + ctx->worker_id].get();
        const WorkerTrace::Open open = trace->OpenCall(SpanName::kFlushLog, ctx);
        repl->FlushLog(ctx);
        trace->CloseCall(open, ctx);
      };
    }

    dopt.txns_per_thread = shape.warmup_txns;
    (void)workload::RunWorkload(stack.cluster(), dopt, fn);

    dopt.txns_per_thread = shape.round_txns;
    for (uint32_t r = 0; r < shape.rounds_per_epoch; ++r) {
      const bool traced = cfg.trace == TraceMode::kAll ||
                          (cfg.trace == TraceMode::kAlternate && r % 2 == 1);
      kind = traced ? RoundKind::kTraced : RoundKind::kPlain;
      for (Worker& wk : workers) {
        wk.round_calls = 0;
        std::fill(wk.by_type.begin(), wk.by_type.end(), 0);
      }
      const LayerCounters before = ReadCounters(&stack);
      if (traced) {
        obs::Registry::Global().Enable(true);
      }
      const uint64_t t0 = HostNowNs();
      const workload::DriverResult d = workload::RunWorkload(stack.cluster(), dopt, fn);
      const double wall_s = static_cast<double>(HostNowNs() - t0) / 1e9;
      const LayerCounters after = ReadCounters(&stack);
      if (traced) {
        obs::Registry::Global().Enable(false);
        AddDelta(before, after, &out.counters);
      }
      measured_s += wall_s;

      uint64_t calls = 0;
      std::vector<uint64_t> round_by_type(shape.txn_types(), 0);
      std::vector<uint64_t>& by_type =
          traced ? out.traced_committed_by_type : out.committed_by_type;
      for (const Worker& wk : workers) {
        calls += wk.round_calls;
        for (size_t t = 0; t < by_type.size(); ++t) {
          round_by_type[t] += wk.by_type[t];
          by_type[t] += wk.by_type[t];
        }
      }
      // Engine-side commits against RunOne calls. Every TPC-C RunOne returns
      // only after Commit() == kOk; a SmallBank SendPayment may instead end in
      // a business abort (insufficient funds) that commits nothing.
      const uint64_t commits = after.commits - before.commits;
      const uint64_t min_commits =
          shape.kind == Kind::kTpcc ? calls : calls - round_by_type[workload::kSendPayment];
      if (commits < min_commits || commits > calls) {
        out.failures.push_back("round engine commits " + std::to_string(commits) +
                               " outside [" + std::to_string(min_commits) + ", " +
                               std::to_string(calls) + "] for " + std::to_string(calls) +
                               " RunOne calls");
        out.correct = false;
      }
      (traced ? out.traced_committed : out.committed) += d.committed;
      (traced ? out.traced_virtual_ns : out.virtual_ns) += d.elapsed_ns;
      (traced ? out.traced_host_s : out.host_s) += wall_s;
      (traced ? out.traced_round_host_tps : out.round_host_tps)
          .push_back(static_cast<double>(d.committed) / wall_s);
    }

    uint64_t epoch_calls = 0;
    for (const Worker& wk : workers) {
      epoch_calls += wk.epoch_calls;
    }
    out.attempted += epoch_calls;
    if (!stack.Check(&out.failures)) {
      out.correct = false;
    }
    for (Worker& wk : workers) {
      wk.traced.reset();
    }
  }

  for (const Worker& wk : workers) {
    out.latency.Merge(wk.latency);
    out.traced_latency.Merge(wk.traced_latency);
  }
  if (tracing) {
    out.registry = obs::Registry::Global().Collect();
  }
  return out;
}

}  // namespace perfbench
