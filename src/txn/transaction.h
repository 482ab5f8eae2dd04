// Transaction: the DrTM+R hybrid OCC + remote-locking protocol (§4, §5).
//
// Execution phase (Fig. 2 left): reads are tracked in local/remote read sets
// with the observed (seq, incarnation); writes are buffered locally; inserts
// and removes are queued. No a-priori knowledge of the read/write sets is
// needed — they are complete once execution finishes (the paper's key
// generality claim over DrTM).
//
// Commit phase (Fig. 7, plus Table 4 / Fig. 9 when replication is on), one
// pipeline for both lock strategies:
//   C.1 lock remote read+write sets with one-sided RDMA CAS (sorted): by
//       default on the lock word, which encodes the owner machine id for
//       dangling-lock recovery; under TxnConfig::fused_seq_lock (§4.4,
//       IBV_ATOMIC_GLOB) on the seq word, which also validates the record,
//   C.2 validate the remote read set with RDMA READs (empty when fused),
//   HTM region { C.3 validate local read set; check local write set unlocked
//       and committable; C.4 apply buffered local writes, seq := seq+1 },
//   R.1 replicate every written record to its backups' NVM logs,
//   R.2 makeup: bump local written seqs to the next even value,
//   C.5 write back remote records (seq := seq+2) with RDMA WRITEs; a fused
//       write's new seq also unlocks it,
//   report committed,
//   C.6 unlock the remaining locked records with RDMA CAS.
//
// Read-only transactions (§4.5, Fig. 8) skip HTM and locking entirely:
// execution-phase remote reads additionally check the lock, and commit just
// re-validates sequence numbers.
//
// The fallback handler (§6.1-6.2) takes over when the HTM step cannot make
// progress: it keeps the C.1 locks, locks the local read and write sets with
// the same strategy through loopback RDMA CAS (for atomicity uniformity with
// remote CAS), validates them, re-checks fencing, and applies without HTM.
// Locking is no-wait, so unlike the paper it need not release and re-lock
// everything in global address order to avoid deadlock.
#ifndef DRTMR_SRC_TXN_TRANSACTION_H_
#define DRTMR_SRC_TXN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/txn/txn_api.h"
#include "src/txn/txn_engine.h"
#include "src/txn/types.h"

namespace drtmr::txn {

class Transaction : public TxnApi {
 public:
  // One Transaction object per worker thread, reused across transactions.
  Transaction(TxnEngine* engine, sim::ThreadContext* ctx);

  // Starts a new transaction. `read_only` selects the §4.5 protocol.
  void Begin(bool read_only = false) override;

  // Reads table[key] hosted on `node` into value_out (nullable to read for
  // the version only). Adds the record to the read set.
  Status Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) override;

  // Buffers a full-payload update. If the record was not read earlier in this
  // transaction, its metadata is fetched first (blind write).
  Status Write(store::Table* table, uint32_t node, uint64_t key, const void* value) override;

  // Queues an insert/remove, applied at commit (locally inside an HTM region,
  // remotely via SEND/RECV shipping, §4.3).
  Status Insert(store::Table* table, uint32_t node, uint64_t key, const void* value) override;
  Status Remove(store::Table* table, uint32_t node, uint64_t key) override;

  // Local ordered-table range read: visits records with lo <= key <= hi,
  // adding each to the read set. `fn` receives (key, payload). Stops early
  // when fn returns false. Local node only.
  Status ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t key, const void* value)>& fn) override;

  // Runs the commit protocol. kOk on commit; on failure all effects are
  // discarded and the caller is expected to retry: kAborted on a
  // validation/lock conflict, kStaleEpoch when the configuration epoch moved
  // past the transaction's begin epoch (fencing, DESIGN.md §10), kTimeout
  // when a bounded retry budget ran out, kMigrating when a write-set record
  // lives on a partition inside its cutover drain window (DESIGN.md §14 —
  // back off and retry; the post-flip Begin() routes to the new home).
  Status Commit() override;

  // User abort: discards all buffered effects.
  void UserAbort() override;

  bool read_only() const { return read_only_; }
  uint64_t id() const { return txn_id_; }
  // Configuration epoch snapshotted at Begin() (0 when fencing is off).
  // Routers pass this to PartitionMap::Route to reject entries flipped by a
  // newer epoch than the one this transaction began under.
  uint64_t begin_epoch() const override { return begin_epoch_; }

 private:
  // One record the commit locks.
  static constexpr size_t kReadOnly = ~size_t{0};
  struct LockTarget {
    uint32_t node;
    uint64_t offset;
    size_t ws_index;    // write_set_ index, or kReadOnly
    uint64_t expected;  // committable seq observed; the fused CAS expects it
    auto operator<=>(const LockTarget&) const = default;
  };
  // Posts the unlock of every held target when a commit attempt leaves before
  // C.6; the committed path unlocks itself, after reporting commit (Fig. 7).
  struct LockGuard {
    Transaction* txn;
    ~LockGuard() { txn->Unlock(/*committed=*/false); }
  };

  Status CommitReadOnly();
  Status CommitReadWrite();

  // The one place a failed commit step is booked. kStaleEpoch and kTimeout
  // keep their type and counter. Any other cause returns kAborted, counted as
  // a lock abort when a two-verb lock CAS lost and as a validation abort
  // otherwise (a fused lock CAS validates as it locks).
  enum class Step : uint8_t { kLock, kValidate };
  Status AbortWith(Status cause, Step step = Step::kValidate);
  // True when fencing (DESIGN.md §10) forbids this node to commit now.
  bool Fenced() const;

  // Appends the remote (C.1) or local (fallback) records to targets_, in
  // address order and deduplicated.
  void AddTargets(bool local);
  // Locks targets_ from the first unheld one on; stops at the first failure.
  // Handles dangling owners (§5.2) on the two-verb strategy.
  Status LockTargets();
  Status LockOne(const LockTarget& t);
  // Releases every held target; on commit, a fused write is left to its
  // write-back.
  void Unlock(bool committed);
  // Two-verb validation of the remote (C.2) or local (fallback) records, with
  // the committable check of written ones; sets their commit_seq_.
  Status Validate(bool local);
  // HTM step C.3/C.4. Returns kOk, kConflict (validation failed — abort the
  // transaction), kStaleEpoch (the configuration epoch moved — fenced), or
  // kAborted (HTM kept aborting — take the fallback).
  Status HtmValidateAndApply();
  // Fallback C.4: writes the local records without HTM, under their locks.
  void ApplyLocalWrites();

  // R.1, early half: stages one speculative log slot per write-set entry on
  // each backup (doorbell-chained, no fence) right after C.1, carrying the
  // predicted final seq — RemoteCommitSeq of the closest committable seq at
  // or after the one observed during execution. The prediction is
  // validation-enforced for non-blind writes; blind writes may need a
  // supersede at decision time. Overlaps the log writes with C.2–C.4.
  void StageReplicationEarly();
  // R.1, decision half: reconciles staged slots against the now-known final
  // seqs (supersede on mismatch, stage anything unstaged) and publishes the
  // commit decision via CommitTxnLog — entering it into the group-commit
  // window. Returns the worst non-tolerated staging status; under fencing a
  // failure returns *before* the commit decision so the caller can abort
  // (Commit() then retires the speculative slots via AbortTxnLog).
  Status FinishReplication();
  // R.2: local written records become committable (even seq).
  void MakeupLocal();
  // C.5: write back remote records.
  Status WriteBackRemote();

  // Builds into image_ the full record image for `w` carrying `seq`.
  void BuildImage(const WriteEntry& w, uint64_t seq);

  // Appends this committed transaction's read/write versions to the global
  // chk::HistoryRecorder (no-op unless recording is enabled).
  void RecordHistory(bool read_only);

  // Execution-phase access index: open-addressed (linear probing) from
  // (table, node, key) to the record's positions in read_set_ and write_set_,
  // so a Read or Write finds its earlier access in O(1) however large the sets
  // grow (TPC-C's stock-level and delivery track hundreds of records). Begin()
  // empties it in O(1) by advancing the generation stamp; slots stamped with
  // an older generation are free. It doubles at half load.
  static constexpr uint32_t kAbsent = ~0u;
  struct IndexSlot {
    const store::Table* table;
    uint64_t key;
    uint32_t node;
    uint32_t gen;    // the transaction generation that filled the slot
    uint32_t read;   // read_set_ position, or kAbsent
    uint32_t write;  // write_set_ position, or kAbsent
  };
  // The record's slot, added (with both positions kAbsent) if missing. Valid
  // until the next Track().
  IndexSlot& Track(store::Table* table, uint32_t node, uint64_t key);
  void GrowIndex();

  bool IsLocal(uint32_t node) const { return node == ctx_->node_id; }

  TxnEngine* engine_;
  sim::ThreadContext* ctx_;
  cluster::Node* self_;
  SeqRules rules_;
  uint64_t txn_id_ = 0;
  uint64_t begin_ns_ = 0;     // virtual time at Begin(), for phase/trace spans
  uint64_t begin_epoch_ = 0;  // epoch stamped in our registered memory at Begin()
  uint64_t lock_word_;
  const bool fused_;  // lock strategy: TxnConfig::fused_seq_lock
  bool read_only_ = false;
  bool active_ = false;

  std::vector<AccessEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  std::vector<MutationEntry> mutations_;
  std::vector<IndexSlot> index_;  // power-of-two size
  uint32_t index_gen_ = 1;
  size_t index_used_ = 0;
  // ScanLocal's key list and payload buffer, kept across calls.
  std::vector<uint64_t> scan_keys_;
  std::vector<std::byte> scan_value_;
  // Commit-time scratch, kept across transactions: the record image a write
  // step is building (BuildImage), and the records to lock, of which the
  // first locked_ are held.
  std::vector<std::byte> image_;
  std::vector<LockTarget> targets_;
  size_t locked_ = 0;
  // Current seq observed at commit time for each write entry (index-aligned
  // with write_set_); becomes the base for the Table 4 increments.
  std::vector<uint64_t> commit_seq_;
  // Final seq carried by the log slot staged early for each write entry
  // (index-aligned with write_set_); kNotStaged when no slot was staged.
  static constexpr uint64_t kNotStaged = ~0ull;
  std::vector<uint64_t> staged_seq_;
  // True while this transaction has staged speculative log slots without a
  // decision call yet; Commit() retires them on any non-commit outcome.
  bool rep_staged_ = false;
};

}  // namespace drtmr::txn

#endif  // DRTMR_SRC_TXN_TRANSACTION_H_
