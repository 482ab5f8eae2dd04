#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>

#include "src/util/logging.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRunOne:
      return "run_one";
    case SpanName::kBegin:
      return "begin";
    case SpanName::kReadLocal:
      return "read_local";
    case SpanName::kReadRemote:
      return "read_remote";
    case SpanName::kWrite:
      return "write";
    case SpanName::kInsert:
      return "insert";
    case SpanName::kRemove:
      return "remove";
    case SpanName::kScan:
      return "scan";
    case SpanName::kCommit:
      return "commit";
    case SpanName::kUserAbort:
      return "user_abort";
    case SpanName::kFlushLog:
      return "flush_log";
    case SpanName::kSetupCluster:
      return "setup_cluster";
    case SpanName::kSetupLoad:
      return "setup_load";
    case SpanName::kSetupServices:
      return "setup_services";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

WorkerTrace::WorkerTrace(uint16_t node, uint16_t worker, size_t keep_spans, bool keep_per_txn)
    : node_(node), worker_(worker), keep_spans_(keep_spans), keep_per_txn_(keep_per_txn) {
  spans_.reserve(keep_spans_);
}

void WorkerTrace::OpenTxn(const drtmr::sim::ThreadContext* ctx) {
  DRTMR_CHECK(!in_txn_);
  in_txn_ = true;
  txn_seq_++;
  txn_ = Span{};
  txn_.name = SpanName::kRunOne;
  txn_.txn_id = (static_cast<uint64_t>(node_) << 48) | (static_cast<uint64_t>(worker_) << 40) |
                txn_seq_;
  txn_.v_start_ns = VirtualNow(ctx);
  txn_.host_start_ns = HostNowNs();
  mark_host_ns_ = txn_.host_start_ns;
  mark_vns_ = txn_.v_start_ns;
  cur_ = TxnVns{};
  txn_span_ = -1;
  if (Storing()) {
    txn_span_ = static_cast<int32_t>(spans_.size());
    spans_.push_back(txn_);  // completed in CloseTxn
  }
}

void WorkerTrace::CloseTxn(const drtmr::sim::ThreadContext* ctx) {
  DRTMR_CHECK(in_txn_);
  const uint64_t host_end = HostNowNs();
  const uint64_t v_end = VirtualNow(ctx);
  self_host_ns_ += host_end - mark_host_ns_;
  cur_.self += v_end - mark_vns_;
  self_vns_ += v_end - mark_vns_;
  txn_.host_end_ns = host_end;
  txn_.v_end_ns = v_end;
  CallTotals& t = totals_[static_cast<size_t>(SpanName::kRunOne)];
  t.calls++;
  t.host_ns += host_end - txn_.host_start_ns;
  t.vns += v_end - txn_.v_start_ns;
  cur_.total = v_end - txn_.v_start_ns;
  if (txn_span_ >= 0) {
    spans_[txn_span_] = txn_;
  }
  if (keep_per_txn_) {
    per_txn_.push_back(cur_);
  }
  in_txn_ = false;
}

WorkerTrace::Open WorkerTrace::OpenCall(SpanName name, const drtmr::sim::ThreadContext* ctx) {
  Open open{HostNowNs(), VirtualNow(ctx), name};
  if (in_txn_) {
    // The gap since the previous child closed is the caller's own time.
    self_host_ns_ += open.host_start_ns - mark_host_ns_;
    self_vns_ += open.v_start_ns - mark_vns_;
    cur_.self += open.v_start_ns - mark_vns_;
  }
  return open;
}

void WorkerTrace::CloseCall(const Open& open, const drtmr::sim::ThreadContext* ctx) {
  const uint64_t host_end = HostNowNs();
  const uint64_t v_end = VirtualNow(ctx);
  CallTotals& t = totals_[static_cast<size_t>(open.name)];
  t.calls++;
  t.host_ns += host_end - open.host_start_ns;
  t.vns += v_end - open.v_start_ns;
  if (in_txn_) {
    cur_.children += v_end - open.v_start_ns;
    mark_host_ns_ = host_end;
    mark_vns_ = v_end;
  }
  // Children of a txn whose root fell past the cap are dropped with it.
  if (Storing() && (!in_txn_ || txn_span_ >= 0)) {
    Span s;
    s.host_start_ns = open.host_start_ns;
    s.host_end_ns = host_end;
    s.v_start_ns = open.v_start_ns;
    s.v_end_ns = v_end;
    s.txn_id = in_txn_ ? txn_.txn_id : 0;
    s.parent = in_txn_ ? txn_span_ : -1;
    s.name = open.name;
    spans_.push_back(s);
  }
}

bool WriteChromeTrace(const std::string& path, const std::vector<const WorkerTrace*>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t t0 = ~0ull;
  for (const WorkerTrace* t : traces) {
    for (const Span& s : t->spans()) {
      t0 = std::min(t0, s.host_start_ns);
    }
  }
  std::fprintf(f, "[");
  bool first = true;
  for (const WorkerTrace* t : traces) {
    for (const Span& s : t->spans()) {
      const char* parent =
          s.parent >= 0 ? SpanNameString(t->spans()[s.parent].name) : "";
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":%u,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"txn\":%llu,"
                   "\"parent\":\"%s\",\"vns\":%llu}}",
                   first ? "" : ",", SpanNameString(s.name), t->node(), t->worker(),
                   static_cast<double>(s.host_start_ns - t0) / 1000.0,
                   static_cast<double>(s.host_end_ns - s.host_start_ns) / 1000.0,
                   (unsigned long long)s.txn_id, parent,
                   (unsigned long long)(s.v_end_ns - s.v_start_ns));
      first = false;
    }
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
