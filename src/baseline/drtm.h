// DrTM baseline (Wei et al., SOSP'15): the paper's closest prior system,
// combining HTM with 2PL over RDMA. Unlike DrTM+R it must know a
// transaction's remote read/write sets *before* execution (it uses
// transaction chopping for TPC-C), locks and fetches every remote record up
// front, and then runs the entire transaction body inside ONE large HTM
// region — local reads/writes are direct memory accesses, remote accesses hit
// the pre-fetched copies. After XEND, dirty remote copies are written back
// and unlocked. There is no replication and no separate read-only protocol.
//
// A-priori knowledge is emulated by a reconnaissance pass: the transaction
// body runs once against a recording context (free of charge — this models
// the static knowledge chopping provides), producing the remote access list;
// the body is then re-run for real with a snapshotted RNG so it takes the
// same path. If the replay touches a remote record outside the recorded set
// (a dependent transaction whose footprint shifted), the attempt aborts and
// restarts from reconnaissance — the cost DrTM pays for generality.
//
// Fallback (per the DrTM paper): when the big HTM region cannot make
// progress, every recorded record (local ones included) is locked via RDMA
// CAS in address order and the body is replayed with direct memory accesses.
#ifndef DRTMR_SRC_BASELINE_DRTM_H_
#define DRTMR_SRC_BASELINE_DRTM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/txn/txn_api.h"
#include "src/txn/txn_engine.h"
#include "src/txn/types.h"

namespace drtmr::baseline {

struct DrTmConfig {
  uint32_t htm_retry_threshold = 8;
};

class DrTmEngine {
 public:
  DrTmEngine(txn::TxnEngine* base, const DrTmConfig& config) : base_(base), config_(config) {}

  txn::TxnEngine* base() { return base_; }
  const DrTmConfig& config() const { return config_; }
  txn::TxnStats& stats() { return stats_; }

  // Executes one transaction to completion. `body` runs the transaction logic
  // against the supplied TxnApi and must behave identically across calls
  // (snapshot your RNG). Returns false only if the body persistently fails
  // (e.g. not-found): the caller treats that as a business abort.
  bool Execute(sim::ThreadContext* ctx, const std::function<bool(txn::TxnApi*)>& body);

 private:
  txn::TxnEngine* base_;
  DrTmConfig config_;
  txn::TxnStats stats_;
};

namespace drtm_internal {

struct RemoteAccess {
  store::Table* table;
  uint32_t node;
  uint64_t key;
  uint64_t offset = 0;
  bool written = false;
  std::vector<std::byte> image;     // working copy mutated by the body
  std::vector<std::byte> pristine;  // fetched copy; image is reset from this
                                    // before every replay attempt so an
                                    // aborted attempt cannot leak its writes
};

// Pass 1: collects the remote access set with free-of-charge dirty reads.
class RecordingTxn : public txn::TxnApi {
 public:
  RecordingTxn(DrTmEngine* engine, sim::ThreadContext* ctx) : engine_(engine), ctx_(ctx) {}

  void Begin(bool read_only = false) override {}
  Status Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) override;
  Status Write(store::Table* table, uint32_t node, uint64_t key, const void* value) override;
  Status Insert(store::Table*, uint32_t, uint64_t, const void*) override { return Status::kOk; }
  Status Remove(store::Table*, uint32_t, uint64_t) override { return Status::kOk; }
  Status ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, const void*)>& fn) override;
  Status Commit() override { return Status::kOk; }
  void UserAbort() override {}

  std::vector<RemoteAccess>& remote() { return remote_; }
  std::vector<std::pair<store::Table*, uint64_t>>& local() { return local_; }

 private:
  RemoteAccess* FindRemote(store::Table* table, uint32_t node, uint64_t key);

  DrTmEngine* engine_;
  sim::ThreadContext* ctx_;
  std::vector<RemoteAccess> remote_;
  std::vector<std::pair<store::Table*, uint64_t>> local_;  // (table, key)
};

// Pass 2: real execution. Local accesses run inside the enclosing HTM region
// (owned by DrTmEngine::Execute); remote accesses are served from the locked,
// pre-fetched copies. In fallback mode (htm == nullptr) local accesses go
// directly to memory — legal because every record is locked.
class ExecTxn : public txn::TxnApi {
 public:
  ExecTxn(DrTmEngine* engine, sim::ThreadContext* ctx, std::vector<RemoteAccess>* remote,
          sim::HtmTxn* htm)
      : engine_(engine), ctx_(ctx), remote_(remote), htm_(htm) {}

  void Begin(bool read_only = false) override {}
  Status Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) override;
  Status Write(store::Table* table, uint32_t node, uint64_t key, const void* value) override;
  Status Insert(store::Table* table, uint32_t node, uint64_t key, const void* value) override;
  Status Remove(store::Table* table, uint32_t node, uint64_t key) override;
  Status ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, const void*)>& fn) override;
  Status Commit() override { return Status::kOk; }
  void UserAbort() override { user_abort_ = true; }

  bool diverged() const { return diverged_; }
  bool user_abort() const { return user_abort_; }
  std::vector<txn::MutationEntry>& mutations() { return mutations_; }

 private:
  RemoteAccess* FindRemote(store::Table* table, uint32_t node, uint64_t key);
  Status LocalRead(store::Table* table, uint64_t key, void* value_out);
  Status LocalWrite(store::Table* table, uint64_t key, const void* value);

  DrTmEngine* engine_;
  sim::ThreadContext* ctx_;
  std::vector<RemoteAccess>* remote_;
  sim::HtmTxn* htm_;  // nullptr in fallback mode
  bool diverged_ = false;
  bool user_abort_ = false;
  std::vector<txn::MutationEntry> mutations_;
};

}  // namespace drtm_internal
}  // namespace drtmr::baseline

#endif  // DRTMR_SRC_BASELINE_DRTM_H_
