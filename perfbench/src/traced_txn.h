// Forwarding TxnApi decorator for the traced run: every call goes to the
// wrapped transaction unchanged and is timed as one span in the worker's
// WorkerTrace. It charges no virtual time and changes no argument or result,
// so a traced run's virtual results equal an untraced run's
// (perfbench/test/perfbench_test.cc proves it at a 1-worker shape).
#ifndef PERFBENCH_SRC_TRACED_TXN_H_
#define PERFBENCH_SRC_TRACED_TXN_H_

#include "perfbench/src/spans.h"
#include "src/txn/txn_api.h"

namespace perfbench {

class TracedTxn final : public drtmr::txn::TxnApi {
 public:
  TracedTxn(drtmr::txn::TxnApi* inner, drtmr::sim::ThreadContext* ctx, WorkerTrace* trace)
      : inner_(inner), ctx_(ctx), trace_(trace) {}

  void Begin(bool read_only = false) override;
  // Split into read_local / read_remote by the record's home node.
  drtmr::Status Read(drtmr::store::Table* table, uint32_t node, uint64_t key,
                     void* value_out) override;
  drtmr::Status Write(drtmr::store::Table* table, uint32_t node, uint64_t key,
                      const void* value) override;
  drtmr::Status Insert(drtmr::store::Table* table, uint32_t node, uint64_t key,
                       const void* value) override;
  drtmr::Status Remove(drtmr::store::Table* table, uint32_t node, uint64_t key) override;
  // The span includes the caller's per-record callback.
  drtmr::Status ScanLocal(
      drtmr::store::Table* table, uint64_t lo, uint64_t hi,
      const std::function<bool(uint64_t key, const void* value)>& fn) override;
  drtmr::Status Commit() override;
  void UserAbort() override;
  uint64_t begin_epoch() const override { return inner_->begin_epoch(); }

 private:
  drtmr::txn::TxnApi* inner_;
  drtmr::sim::ThreadContext* ctx_;
  WorkerTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_TXN_H_
