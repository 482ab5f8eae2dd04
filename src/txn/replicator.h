// Interface between the commit protocol and the replication layer (§5;
// DESIGN.md §13). The transaction layer *stages* a speculative log slot per
// written record as early as lock-acquire time (so the log write overlaps
// execution/validation), then closes the transaction's log with exactly one
// decision call: CommitTxnLog on success or AbortTxnLog on any abort after
// staging. Durability is group-committed: the decision calls only advance the
// writer's watermark; the fence that makes the window's slots durable is
// amortized across the group-commit window and forced by FlushLog.
// src/rep provides the primary-backup implementation; tests may inject fakes.
#ifndef DRTMR_SRC_TXN_REPLICATOR_H_
#define DRTMR_SRC_TXN_REPLICATOR_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/thread_context.h"
#include "src/util/status.h"

namespace drtmr::txn {

class Replicator {
 public:
  virtual ~Replicator() = default;

  // Stages a speculative log slot for record `key` (hosted on `primary`,
  // table `table_id`) on each of that node's backups, appended onto the
  // per-backup doorbell chain. `image` is the full record image including
  // metadata, carrying the seq the record will hold if the transaction
  // commits. Must be called outside any HTM region. The slot stays
  // speculative (never applied, never replayed) until CommitTxnLog moves the
  // watermark past it.
  virtual Status StageUpdate(sim::ThreadContext* ctx, uint64_t txn_id, uint32_t primary,
                             uint32_t table_id, uint64_t key, uint64_t record_offset,
                             const std::byte* image, size_t image_len) = 0;

  // Replaces the image staged earlier in this transaction for the same record
  // (blind writes whose predicted commit seq turned out wrong): tombstones
  // the old slot and stages a fresh one with the corrected image.
  virtual Status SupersedeUpdate(sim::ThreadContext* ctx, uint64_t txn_id, uint32_t primary,
                                 uint32_t table_id, uint64_t key, uint64_t record_offset,
                                 const std::byte* image, size_t image_len) = 0;

  // Decision point, success: marks every slot staged since the last decision
  // committed and publishes the watermark past them, making them eligible for
  // the backup pump and trusted by recovery. Closes one transaction in the
  // group-commit window; when the window fills, rings all open chains and
  // fences (the amortized durability point).
  virtual Status CommitTxnLog(sim::ThreadContext* ctx, uint64_t txn_id) = 0;

  // Decision point, failure: tombstones every slot staged since the last
  // decision and publishes the watermark past the tombstones (so aborted
  // slots cannot jam the ring; the pump consumes and skips them). Safe to
  // call with nothing staged.
  virtual void AbortTxnLog(sim::ThreadContext* ctx, uint64_t txn_id) = 0;

  // Rings all open doorbell chains and fences the caller's group-commit
  // window now, regardless of occupancy. Drivers call this at end-of-run (and
  // before parking a worker) so no decided transaction is left unfenced.
  virtual void FlushLog(sim::ThreadContext* ctx) = 0;

  // Marks the transaction fully committed so backups may truncate its log
  // entries (done by auxiliary threads, §5.1).
  virtual void EndTransaction(sim::ThreadContext* ctx, uint64_t txn_id) = 0;

  // Auxiliary-thread hook: consume pending log entries addressed to this
  // node, applying them to the backup copies and truncating the rings. Wired
  // into each node's service loop (§7.1: "auxiliary threads for log
  // truncation"), which sleeps on the NIC's service doorbell when this
  // returns false. Returns true if it consumed anything or skipped a ring
  // that another consumer held (that ring may still hold work).
  virtual bool Pump(sim::ThreadContext* ctx) { return false; }
};

}  // namespace drtmr::txn

#endif  // DRTMR_SRC_TXN_REPLICATOR_H_
