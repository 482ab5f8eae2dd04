#include "perfbench/src/traced_txn.h"

namespace perfbench {

using drtmr::Status;

void TracedTxn::Begin(bool read_only) {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kBegin, ctx_);
  inner_->Begin(read_only);
  trace_->CloseCall(open, ctx_);
}

Status TracedTxn::Read(drtmr::store::Table* table, uint32_t node, uint64_t key,
                       void* value_out) {
  const WorkerTrace::Open open = trace_->OpenCall(
      node == ctx_->node_id ? SpanName::kReadLocal : SpanName::kReadRemote, ctx_);
  const Status s = inner_->Read(table, node, key, value_out);
  trace_->CloseCall(open, ctx_);
  return s;
}

Status TracedTxn::Write(drtmr::store::Table* table, uint32_t node, uint64_t key,
                        const void* value) {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kWrite, ctx_);
  const Status s = inner_->Write(table, node, key, value);
  trace_->CloseCall(open, ctx_);
  return s;
}

Status TracedTxn::Insert(drtmr::store::Table* table, uint32_t node, uint64_t key,
                         const void* value) {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kInsert, ctx_);
  const Status s = inner_->Insert(table, node, key, value);
  trace_->CloseCall(open, ctx_);
  return s;
}

Status TracedTxn::Remove(drtmr::store::Table* table, uint32_t node, uint64_t key) {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kRemove, ctx_);
  const Status s = inner_->Remove(table, node, key);
  trace_->CloseCall(open, ctx_);
  return s;
}

Status TracedTxn::ScanLocal(drtmr::store::Table* table, uint64_t lo, uint64_t hi,
                            const std::function<bool(uint64_t key, const void* value)>& fn) {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kScan, ctx_);
  const Status s = inner_->ScanLocal(table, lo, hi, fn);
  trace_->CloseCall(open, ctx_);
  return s;
}

Status TracedTxn::Commit() {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kCommit, ctx_);
  const Status s = inner_->Commit();
  trace_->CloseCall(open, ctx_);
  trace_->CountCommit(s);
  return s;
}

void TracedTxn::UserAbort() {
  const WorkerTrace::Open open = trace_->OpenCall(SpanName::kUserAbort, ctx_);
  inner_->UserAbort();
  trace_->CloseCall(open, ctx_);
}

}  // namespace perfbench
