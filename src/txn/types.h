// Shared transaction-layer types: read/write-set entries tracked during the
// execution phase (§4.3, Fig. 2), the per-engine configuration, and the
// statistics the evaluation section reports (commit/abort counts, HTM
// fallback rate, lock conflicts).
#ifndef DRTMR_SRC_TXN_TYPES_H_
#define DRTMR_SRC_TXN_TYPES_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/store/table.h"

namespace drtmr::txn {

// One tracked record access. Local and remote entries share the shape; the
// commit phase partitions them by `node` (§4.4): remote entries are locked
// with RDMA CAS and validated with RDMA READ, local entries are validated and
// updated inside the HTM region.
struct AccessEntry {
  store::Table* table = nullptr;
  uint32_t node = 0;
  uint64_t key = 0;
  uint64_t offset = 0;       // record offset in the hosting node's region
  uint64_t seq = 0;          // sequence number observed at read time
  uint64_t incarnation = 0;  // incarnation observed at read time
};

// A buffered update awaiting the commit phase. `value` holds the full new
// payload (DrTM+R buffers all writes locally during execution, §4.3).
struct WriteEntry {
  AccessEntry access;
  std::vector<std::byte> value;
  bool blind = false;  // write without a prior read in this transaction
};

// A buffered insert or remove, applied at commit: locally inside an HTM
// region, remotely by shipping to the hosting machine via SEND/RECV (§4.3).
struct MutationEntry {
  enum class Op : uint8_t { kInsert, kRemove };
  Op op = Op::kInsert;
  store::Table* table = nullptr;
  uint32_t node = 0;
  uint64_t key = 0;
  std::vector<std::byte> value;  // inserts only
};

struct TxnConfig {
  // Enables optimistic replication (§5): seqnum parity protocol per Table 4,
  // log writes to backups before completing commit.
  bool replication = false;
  uint32_t replicas = 1;  // f+1 copies including the primary

  // HTM retries in the commit phase before taking the fallback handler (§6.1).
  uint32_t htm_retry_threshold = 8;
  // Retries of a locked local record in the execution phase before the
  // seqlock fallback read path.
  uint32_t local_read_retry_threshold = 16;
  // Max consistency retries for a remote versioned read.
  uint32_t remote_read_retry_threshold = 64;
  // Spins of the seqlock fallback read before giving up with kConflict. A
  // healthy committer clears the lock within a handful of spins; a lock that
  // outlives this budget is leaked (its owner died or its unlock verb was
  // lost) and only a configuration change can release it, so the read must
  // abort rather than wait (DESIGN.md §9).
  uint32_t seqlock_read_spin_threshold = 256;

  // Ablation (DESIGN.md §5): when false, remote read-set records are only
  // validated (FaRM-style), not locked, during commit. This sacrifices the
  // strict-serializability argument of §4.6 and exists to measure the cost of
  // read-set locking.
  bool lock_remote_read_set = true;

  // The commit pipeline's lock strategy. §4.4's IBV_ATOMIC_GLOB
  // optimization: fuse C.1 locking and C.2 validation into one RDMA CAS per
  // record by encoding the lock in the seqnum (store::SeqWord), C.5
  // write-backs then implicitly unlocking written records; the fallback locks
  // local records the same way. Requires the fabric to run at
  // AtomicityLevel::kGlob. Dangling-lock recovery is unavailable in this mode
  // (the seq bit carries no owner id).
  bool fused_seq_lock = false;

  // Ablation (DESIGN.md §5): charges every commit-phase remote operation an
  // additional SEND/RECV round trip, approximating a FaRM-style
  // message-passing commit (which would also interrupt target worker threads
  // and abort their HTM regions — the reason §4.4 insists on one-sided
  // verbs).
  bool message_passing_commit = false;

  // Torture-harness teeth (DESIGN.md §9): skips the commit-time read-set
  // seqnum re-check (C.2/C.3), deliberately breaking serializability. Exists
  // only to prove the chk::SerializabilityChecker detects the resulting
  // anomalies; never enable outside that test.
  bool unsafe_skip_read_validation = false;

  // Bounded retry for the C.1 remote-lock CAS (DESIGN.md §10): a CAS that
  // keeps observing a dangling lock (owner absent from the configuration)
  // releases it and retries at most this many times, with jittered
  // exponential backoff between attempts, before surfacing kTimeout. Live
  // conflicts still abort immediately (the paper's no-wait rule).
  uint32_t lock_retry_threshold = 6;
  uint64_t lock_backoff_base_ns = 200;
  uint64_t lock_backoff_cap_ns = 12'800;

  // Virtual-time budget a mutation RPC waits for its reply before surfacing
  // kTimeout (the host may be partitioned rather than dead, in which case the
  // fabric's alive() check alone would spin forever).
  uint64_t mutate_reply_budget_ns = 200'000;
};

struct TxnStats {
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts_lock{0};        // C.1 lock acquisition failed
  std::atomic<uint64_t> aborts_validation{0};  // C.2/C.3 seq or incarnation mismatch
  std::atomic<uint64_t> aborts_user{0};
  std::atomic<uint64_t> aborts_stale_epoch{0};  // fenced: configuration epoch moved
  std::atomic<uint64_t> aborts_timeout{0};      // bounded retry/poll budget exhausted
  std::atomic<uint64_t> aborts_migrating{0};    // write hit a partition's drain window
  std::atomic<uint64_t> fallbacks{0};          // commit took the fallback handler
  std::atomic<uint64_t> htm_commit_retries{0};
  std::atomic<uint64_t> dangling_locks_released{0};
  std::atomic<uint64_t> remote_reads{0};
  std::atomic<uint64_t> local_reads{0};

  // Aborts caused by the commit protocol itself (lock conflicts, validation
  // failures, epoch fencing, retry timeouts). Excludes user-requested aborts.
  uint64_t ProtocolAborts() const {
    return aborts_lock + aborts_validation + aborts_stale_epoch + aborts_timeout +
           aborts_migrating;
  }
  // Every aborted transaction attempt, including explicit user aborts.
  uint64_t TotalAborts() const { return ProtocolAborts() + aborts_user; }

  // Increment helpers: bump the local counter and mirror it into the
  // observability registry (no-ops there when obs is disabled), so a metrics
  // snapshot is self-contained without re-walking every engine.
  void IncCommit() {
    commits.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kTxnCommit);
  }
  void IncAbortLock() {
    aborts_lock.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kTxnAbortLock);
  }
  void IncAbortValidation() {
    aborts_validation.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kTxnAbortValidation);
  }
  void IncAbortUser() {
    aborts_user.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kTxnAbortUser);
  }
  void IncAbortStaleEpoch() {
    aborts_stale_epoch.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kFenceSelfAbort);
  }
  void IncAbortTimeout() { aborts_timeout.fetch_add(1, std::memory_order_relaxed); }
  void IncAbortMigrating() { aborts_migrating.fetch_add(1, std::memory_order_relaxed); }
  void IncFallback() {
    fallbacks.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kTxnFallback);
  }
  void IncHtmCommitRetry(uint64_t n = 1) {
    htm_commit_retries.fetch_add(n, std::memory_order_relaxed);
    obs::Count(obs::Counter::kHtmCommitRetry, n);
  }

  void Reset() {
    commits = 0;
    aborts_lock = 0;
    aborts_validation = 0;
    aborts_user = 0;
    aborts_stale_epoch = 0;
    aborts_timeout = 0;
    aborts_migrating = 0;
    fallbacks = 0;
    htm_commit_retries = 0;
    dangling_locks_released = 0;
    remote_reads = 0;
    local_reads = 0;
  }
};

// Sequence-number arithmetic of Table 4. With optimistic replication (OR) an
// update moves seq from even (committable) through odd (committed locally,
// not yet replicated) to the next even value; without OR it just increments.
struct SeqRules {
  bool replication;
  // Mirrors TxnConfig::unsafe_skip_read_validation (torture teeth only).
  bool skip_read_validation = false;

  // The closest committable seq at or after `observed`.
  uint64_t Committable(uint64_t observed) const {
    return replication ? ((observed + 1) & ~1ull) : observed;
  }

  // Validation for read-set entries: the current seq must still be the
  // committable one at or after the observed seq.
  bool ReadValid(uint64_t observed, uint64_t current) const {
    return skip_read_validation || Committable(observed) == current;
  }

  // Validation for write-set entries: the record must be committable.
  bool WriteValid(uint64_t current) const {
    return !replication || (current & 1ull) == 0;
  }

  // Seq stored by the HTM update of a local primary (C.4).
  uint64_t LocalCommitSeq(uint64_t current) const { return current + 1; }
  // Seq stored by the post-replication makeup of a local primary (R.2).
  uint64_t MakeupSeq(uint64_t current) const { return current + 2; }
  // Seq stored on remote primaries (C.5) and on backups (R.1).
  uint64_t RemoteCommitSeq(uint64_t current) const { return replication ? current + 2 : current + 1; }
};

}  // namespace drtmr::txn

#endif  // DRTMR_SRC_TXN_TYPES_H_
