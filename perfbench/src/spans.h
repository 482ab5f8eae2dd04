// Span log for the benchmark's traced run (perfbench/README.md "Tracing").
//
// Each worker thread owns one WorkerTrace and is its only writer, so the hot
// path touches no shared atomics. A span is recorded at every call the
// benchmark makes into a layer's public functions: one `run_one` root per
// workload transaction, one child per TxnApi call inside it, one `flush_log`
// per replicated worker round, and one per set-up step. Host time comes from
// std::chrono::steady_clock; virtual time from the calling thread's SimClock.
//
// Aggregates (calls, host ns, virtual ns, self time) are folded in as each
// span closes, so they cover every span. The span records themselves are kept
// only up to a per-worker cap and written out once, at exit, in the Chrome
// trace_event format that the library's obs exporter also emits.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/thread_context.h"
#include "src/util/status.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kRunOne = 0,    // workload RunOne: one transaction executed to commit
  kBegin,         // TxnApi calls, one span each
  kReadLocal,
  kReadRemote,
  kWrite,
  kInsert,
  kRemove,
  kScan,
  kCommit,
  kUserAbort,
  kFlushLog,      // PrimaryBackupReplicator::FlushLog at the end of a round
  kSetupCluster,  // cluster, catalog, partition map, coordinator, replicator, engine
  kSetupLoad,     // CreateTables + Load
  kSetupServices, // TxnEngine::StartServices
  kCount
};
inline constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Span {
  uint64_t host_start_ns = 0;
  uint64_t host_end_ns = 0;
  uint64_t v_start_ns = 0;
  uint64_t v_end_ns = 0;
  uint64_t txn_id = 0;  // shared by a run_one span and its children; 0 outside txns
  int32_t parent = -1;  // index into the same WorkerTrace's spans, -1 for roots
  SpanName name = SpanName::kRunOne;
};

struct CallTotals {
  uint64_t calls = 0;
  uint64_t host_ns = 0;
  uint64_t vns = 0;
};

// Per-transaction virtual-time breakdown, kept when WorkerTrace::keep_per_txn
// is set (the benchmark's reconciliation test).
struct TxnVns {
  uint64_t total = 0;     // run_one span
  uint64_t children = 0;  // sum of its TxnApi-call spans
  uint64_t self = 0;      // sum of the gaps between them, measured directly
};

inline constexpr size_t kNumStatuses = static_cast<size_t>(drtmr::Status::kMigrating) + 1;

class WorkerTrace {
 public:
  WorkerTrace(uint16_t node, uint16_t worker, size_t keep_spans, bool keep_per_txn);

  // Root span around one workload transaction.
  void OpenTxn(const drtmr::sim::ThreadContext* ctx);
  void CloseTxn(const drtmr::sim::ThreadContext* ctx);

  // A leaf span: a TxnApi call inside the open transaction, or a standalone
  // call (flush_log, set-up steps) when no transaction is open. Returns the
  // open-call token to pass to CloseCall.
  struct Open {
    uint64_t host_start_ns;
    uint64_t v_start_ns;
    SpanName name;
  };
  Open OpenCall(SpanName name, const drtmr::sim::ThreadContext* ctx);
  void CloseCall(const Open& open, const drtmr::sim::ThreadContext* ctx);

  void CountCommit(drtmr::Status s) { commit_status_[static_cast<size_t>(s)]++; }

  uint16_t node() const { return node_; }
  uint16_t worker() const { return worker_; }
  const CallTotals& totals(SpanName name) const {
    return totals_[static_cast<size_t>(name)];
  }
  uint64_t self_host_ns() const { return self_host_ns_; }
  uint64_t self_vns() const { return self_vns_; }
  uint64_t commits_with(drtmr::Status s) const {
    return commit_status_[static_cast<size_t>(s)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<TxnVns>& per_txn() const { return per_txn_; }

 private:
  static uint64_t VirtualNow(const drtmr::sim::ThreadContext* ctx) {
    return ctx == nullptr ? 0 : ctx->clock.now_ns();
  }
  bool Storing() const { return spans_.size() < keep_spans_; }

  uint16_t node_;
  uint16_t worker_;
  size_t keep_spans_;
  bool keep_per_txn_;
  std::array<CallTotals, kNumSpanNames> totals_{};
  std::array<uint64_t, kNumStatuses> commit_status_{};
  uint64_t self_host_ns_ = 0;
  uint64_t self_vns_ = 0;
  std::vector<Span> spans_;
  std::vector<TxnVns> per_txn_;

  // Open transaction state.
  bool in_txn_ = false;
  uint64_t txn_seq_ = 0;
  int32_t txn_span_ = -1;  // stored root index, -1 if past the cap
  Span txn_{};
  uint64_t mark_host_ns_ = 0;  // end of the last child (or the txn start)
  uint64_t mark_vns_ = 0;
  TxnVns cur_{};
};

// Writes every kept span of every trace as one Chrome trace_event JSON array
// (ph "X", pid = simulated node, tid = worker slot, host-time ts/dur in µs;
// args carry the txn id, parent span name and virtual duration). Returns
// false if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<const WorkerTrace*>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
