// Engine-wide metrics registry: per-phase commit latency, HTM abort taxonomy
// (abort code × call-site), fabric verb/byte counters (verb × node pair), and
// scalar transaction counters.
//
// Design (DESIGN.md "Observability"):
//  * one Shard per OS thread, handed out from a free list on first use and
//    returned on thread exit — hot paths only ever touch their own shard, so
//    recording never contends on shared cache lines;
//  * shard cells are relaxed std::atomic<uint64_t> (plain loads/stores on
//    x86), which keeps concurrent Collect() racing a live writer well-defined
//    and the whole layer ThreadSanitizer-clean;
//  * everything is compile-in but runtime-toggled: with the registry disabled
//    (the default) every hook is a single relaxed bool load and branch, and
//    nothing is allocated;
//  * recording charges no *virtual* time, so simulated throughput/latency
//    results are bit-identical with observability on or off.
//
// Exact snapshots require writers to be quiescent (the benchmark driver joins
// its workers before reporting); a concurrent snapshot is safe but may miss
// in-flight increments.
#ifndef DRTMR_SRC_OBS_METRICS_H_
#define DRTMR_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace drtmr::obs {

// ---- dimensions ----

// Commit-protocol phases (Fig. 7 steps; see DESIGN.md "Observability" for the
// exact begin/end points). Phases are disjoint: summed across a run they
// account for ≈ the whole per-transaction latency.
enum class Phase : uint32_t {
  kExecution = 0,   // Begin() -> Commit() entry: reads, buffered writes, backoff
  kLock,            // C.1 remote lock acquisition (RDMA CAS)
  kValidation,      // C.2 remote validation / read-only revalidation
  kHtmCommit,       // C.3+C.4 HTM region including retries
  kReplication,     // R.1 log replication wait + R.2 makeup
  kWriteBack,       // C.5 write-back, insert/delete shipping, C.6 unlock
  kFallback,        // §6.1 fallback commit (opaque; replaces the phases above)
  kCount
};
inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kCount);
const char* PhaseName(Phase p);

// Transaction-lifecycle trace event names. A phase span carries its Phase
// value (TraceNameOf) and is named by PhaseName; these names follow the phases.
enum class TraceName : uint8_t {
  kTxn = kNumPhases,  // whole read-write transaction attempt (Begin -> Commit result)
  kTxnReadOnly,       // whole read-only transaction attempt
  kHtmAbort,          // instant: one HTM abort (arg = abort code)
};
inline TraceName TraceNameOf(Phase p) { return static_cast<TraceName>(p); }
const char* TraceNameString(TraceName name);

// One trace event. Each Registry shard owns a bounded ring of them (single
// writer — the owning worker thread); the Chrome trace_event exporter walks
// every ring at quiescence and emits a JSON array loadable by
// chrome://tracing / Perfetto. Timestamps are *virtual* nanoseconds from the
// per-thread SimClock, so a trace shows the simulated schedule, not host
// wall-clock.
struct TraceEvent {
  uint64_t ts_ns = 0;   // virtual-time start
  uint64_t dur_ns = 0;  // 0 for instant events
  uint64_t arg = 0;     // txn id, abort code, ... (meaning depends on name)
  uint16_t node = 0;    // Chrome "pid"
  uint16_t worker = 0;  // Chrome "tid"
  TraceName name = TraceName::kTxn;
  uint8_t instant = 0;  // 1 => "ph":"i", else "ph":"X"
};

// Scalar counters mirrored from the transaction/replication layers so a
// metrics snapshot is self-contained.
enum class Counter : uint32_t {
  kTxnCommit = 0,
  kTxnAbortLock,        // C.1 lock acquisition failed
  kTxnAbortValidation,  // C.2/C.3 seq or incarnation mismatch
  kTxnAbortUser,
  kTxnFallback,         // commit took the fallback handler
  kHtmCommitRetry,      // HTM commit region retried
  kRepLogEntries,       // replication log slots pushed
  kRepLogBytes,         // replication log bytes pushed
  kFabricDoorbells,     // chained submissions rung (one doorbell each)
  kFabricChainedVerbs,  // WQEs carried by those chains
  kRepWindowFlushes,    // group-commit windows fenced
  kRepWindowTxns,       // transactions closed across those windows (occupancy)
  kRepSlotsRetired,     // speculative slots tombstoned by an abort
  kRepSlotsSuperseded,  // speculative slots re-staged with a corrected image
  kKeyedOverflow,       // keyed-table slots exhausted (taxonomy truncated)
  kTraceDropped,        // trace ring overwrites
  kMembershipEpochChange,  // committed configuration epoch advanced
  kMembershipSuspicion,    // failure detector suspected a node
  kMembershipRejoin,       // fenced node rejoined in a later epoch
  kFenceRejectedVerb,      // mutating verb refused: issuer's epoch is stale
  kFenceSelfAbort,         // commit self-fenced (stale epoch / expired lease)
  // Protocol analyzer violations (src/chk/protocol_analyzer.h), one per class.
  kAnalyzerUnlockedWrite,      // data store with no lock/HTM/seqlock protection
  kAnalyzerSeqlockViolation,   // stale versions at window close / torn read accepted
  kAnalyzerAtomicityViolation, // conflicting access or in-region verb missed abort
  kAnalyzerLockHygiene,        // cross-thread release, double release, leaked lock
  kAnalyzerEpochViolation,     // mutating verb admitted with a stale epoch
  kCount
};
inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);
const char* CounterName(Counter c);

// One-sided / two-sided fabric verbs, counted per (src, dst) node pair.
enum class Verb : uint32_t { kRead = 0, kWrite, kCas, kFaa, kSend, kCount };
const char* VerbName(Verb v);

// Call sites that open HTM regions; keys the abort taxonomy together with the
// abort code (§6.4's conflict/capacity/IO breakdown, per site).
enum class HtmSite : uint32_t {
  kOther = 0,
  kLocalRead,   // execution-phase local record read (Fig. 5)
  kCommit,      // commit step C.3/C.4 region
  kStore,       // HTM-protected store structure operations
  kBaseline,    // baseline engines (whole-transaction DrTM regions etc.)
  kCount
};
const char* HtmSiteName(HtmSite s);

// Abort-code names mirror sim::HtmTxn::AbortCode / HtmDesc::DoomCode values
// (obs sits below sim and cannot include it).
const char* HtmAbortCodeName(uint32_t code);

// ---- keyed-counter key packing ----

inline constexpr uint64_t kDomainFabric = 1;
inline constexpr uint64_t kDomainHtm = 2;

inline constexpr uint64_t FabricKey(Verb v, uint32_t src, uint32_t dst) {
  return (kDomainFabric << 56) | (static_cast<uint64_t>(v) << 32) |
         (static_cast<uint64_t>(src & 0xffff) << 16) | (dst & 0xffff);
}
inline constexpr uint64_t HtmAbortKey(uint32_t code, HtmSite site) {
  return (kDomainHtm << 56) | (static_cast<uint64_t>(code) << 16) |
         static_cast<uint64_t>(site);
}
inline constexpr uint64_t KeyDomain(uint64_t key) { return key >> 56; }

// ---- shards ----

struct Shard {
  struct PhaseCell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{0};  // valid only when count > 0
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> buckets{};
  };
  struct KeyedCell {
    std::atomic<uint64_t> key{0};  // 0 = empty
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> bytes{0};
  };
  static constexpr size_t kKeyedCap = 2048;  // power of two

  std::array<std::atomic<uint64_t>, kNumCounters> counters{};
  std::array<PhaseCell, kNumPhases> phases{};
  std::array<KeyedCell, kKeyedCap> keyed{};
  // Trace ring: single-writer, allocated lazily when tracing is enabled.
  std::vector<TraceEvent> trace;
  uint64_t trace_next = 0;  // total events ever written (ring wraps at size)

  void AddPhase(Phase p, uint64_t ns);
  void AddKeyed(uint64_t key, uint64_t ops, uint64_t bytes);
  void Zero();
};

// ---- merged snapshot ----

struct Snapshot {
  struct Keyed {
    uint64_t key = 0;
    uint64_t ops = 0;
    uint64_t bytes = 0;
  };

  std::array<uint64_t, kNumCounters> counters{};
  std::array<Histogram, kNumPhases> phases{};
  std::vector<Keyed> fabric;      // sorted by key (verb, src, dst)
  std::vector<Keyed> htm_aborts;  // sorted by key (code, site)

  uint64_t counter(Counter c) const { return counters[static_cast<size_t>(c)]; }
  const Histogram& phase(Phase p) const { return phases[static_cast<size_t>(p)]; }
  // Total virtual nanoseconds attributed across all phases (execution
  // included): for a quiesced run this approximates the end-to-end latency sum.
  uint64_t PhaseSumNs() const;
  uint64_t FabricOps() const;
  uint64_t FabricBytes() const;
  uint64_t HtmAborts() const;

  // Serializes the snapshot as a single JSON object (counters, per-phase
  // percentiles, abort taxonomy, fabric matrix).
  void WriteJson(std::FILE* f) const;
  bool WriteJson(const std::string& path) const;
};

// ---- registry ----

class Registry {
 public:
  // Process-wide instance (intentionally leaked: shard handles in
  // thread-local storage may be released after static destructors run).
  static Registry& Global();

  void Enable(bool on);
  // Enables per-thread trace rings of `events_per_thread` events (0 disables
  // tracing). Implies nothing about Enable(); both are normally turned on
  // together by the bench harness.
  void EnableTrace(uint32_t events_per_thread);

  // Hot-path recording (callers should gate on obs::Enabled()).
  void AddCount(Counter c, uint64_t delta = 1);
  void AddPhase(Phase p, uint64_t ns);
  void AddVerb(Verb v, uint32_t src, uint32_t dst, uint64_t bytes);
  void AddHtmAbort(uint32_t code, HtmSite site);
  void AddTrace(TraceName name, uint32_t node, uint32_t worker, uint64_t ts_ns, uint64_t dur_ns,
                uint64_t arg, bool instant = false);

  // Merges every shard (live and released) into one snapshot.
  Snapshot Collect() const;
  // Writes all trace rings as one Chrome trace_event JSON array, sorted by
  // timestamp. Call at quiescence. Implemented in trace.cc.
  void WriteChromeTrace(std::FILE* f) const;
  bool WriteChromeTrace(const std::string& path) const;

  // Zeroes all shards (counters, phases, taxonomy, trace rings). Callers must
  // be quiesced.
  void Reset();

  uint32_t trace_capacity() const { return trace_cap_.load(std::memory_order_relaxed); }
  size_t num_shards() const;

 private:
  Registry() = default;
  Shard* LocalShard();
  Shard* Acquire();
  void Release(Shard* shard);

  struct ShardHandle {
    Shard* shard = nullptr;
    ~ShardHandle();
  };

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> all_;
  std::vector<Shard*> free_;
  std::atomic<uint32_t> trace_cap_{0};
};

namespace detail {
// Fast-path flags, written only by Registry::Enable/EnableTrace.
inline std::atomic<bool> g_enabled{false};
inline std::atomic<bool> g_trace{false};
}  // namespace detail

inline bool Enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
inline bool TraceEnabled() { return detail::g_trace.load(std::memory_order_relaxed); }

// No-op-when-disabled convenience hooks used throughout sim/txn/rep.
inline void Count(Counter c, uint64_t delta = 1) {
  if (Enabled()) {
    Registry::Global().AddCount(c, delta);
  }
}
inline void PhaseSample(Phase p, uint64_t ns) {
  if (Enabled()) {
    Registry::Global().AddPhase(p, ns);
  }
}
inline void CountVerb(Verb v, uint32_t src, uint32_t dst, uint64_t bytes) {
  if (Enabled()) {
    Registry::Global().AddVerb(v, src, dst, bytes);
  }
}
inline void CountHtmAbort(uint32_t code, HtmSite site) {
  if (Enabled()) {
    Registry::Global().AddHtmAbort(code, site);
  }
}

}  // namespace drtmr::obs

#endif  // DRTMR_SRC_OBS_METRICS_H_
