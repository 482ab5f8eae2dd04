#include "src/txn/transaction.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/chk/history.h"
#include "src/chk/protocol_analyzer.h"
#include "src/cluster/membership.h"
#include "src/obs/phase_timer.h"
#include "src/store/record.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace drtmr::txn {

using store::LockWord;
using store::RecordLayout;

Transaction::Transaction(TxnEngine* engine, sim::ThreadContext* ctx)
    : engine_(engine),
      ctx_(ctx),
      self_(engine->cluster()->node(ctx->node_id)),
      rules_(engine->seq_rules()),
      lock_word_(LockWord::Make(ctx->node_id, ctx->worker_id)) {}

void Transaction::Begin(bool read_only) {
  DRTMR_CHECK(!active_) << "Begin inside an active transaction";
  engine_->cluster()->SyncGate(&ctx_->clock);
  begin_ns_ = ctx_->clock.now_ns();
  if (engine_->fencing()) {
    // Snapshot the configuration epoch stamped in our registered memory; the
    // commit path aborts if it has moved by then (DESIGN.md §10).
    begin_epoch_ = engine_->membership()->NodeEpoch(ctx_->node_id);
  }
  active_ = true;
  read_only_ = read_only;
  txn_id_ = engine_->NextTxnId();
  read_set_.clear();
  write_set_.clear();
  mutations_.clear();
  held_locks_.clear();
  commit_seq_.clear();
}

AccessEntry* Transaction::FindRead(store::Table* table, uint32_t node, uint64_t key) {
  for (auto& e : read_set_) {
    if (e.table == table && e.node == node && e.key == key) {
      return &e;
    }
  }
  return nullptr;
}

WriteEntry* Transaction::FindWrite(store::Table* table, uint32_t node, uint64_t key) {
  for (auto& w : write_set_) {
    if (w.access.table == table && w.access.node == node && w.access.key == key) {
      return &w;
    }
  }
  return nullptr;
}

Status Transaction::Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) {
  DRTMR_CHECK(active_);
  // Read-your-own-write within the transaction.
  if (WriteEntry* w = FindWrite(table, node, key); w != nullptr) {
    if (value_out != nullptr) {
      std::memcpy(value_out, w->value.data(), table->value_size());
    }
    return Status::kOk;
  }
  if (AccessEntry* e = FindRead(table, node, key); e != nullptr && value_out == nullptr) {
    return Status::kOk;  // already tracked, version-only read
  }
  AccessEntry entry;
  Status s;
  if (IsLocal(node)) {
    s = engine_->ReadLocalRecord(ctx_, table, key, value_out, &entry);
  } else {
    s = engine_->ReadRemoteRecord(ctx_, table, node, key, value_out, &entry,
                                  /*check_lock=*/read_only_);
  }
  if (s != Status::kOk) {
    return s;
  }
  if (FindRead(table, node, key) == nullptr) {
    read_set_.push_back(entry);
  }
  return Status::kOk;
}

Status Transaction::Write(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  DRTMR_CHECK(active_ && !read_only_);
  ctx_->Charge(engine_->cost()->CopyNs(table->value_size()) +
               engine_->cost()->record_logic_ns / 8);
  if (WriteEntry* w = FindWrite(table, node, key); w != nullptr) {
    std::memcpy(w->value.data(), value, table->value_size());
    return Status::kOk;
  }
  WriteEntry w;
  w.value.assign(static_cast<const std::byte*>(value),
                 static_cast<const std::byte*>(value) + table->value_size());
  if (AccessEntry* e = FindRead(table, node, key); e != nullptr) {
    w.access = *e;
    w.blind = false;
  } else {
    // Blind write: fetch the record's location and metadata now so the commit
    // phase can lock and validate committability.
    AccessEntry entry;
    Status s;
    if (IsLocal(node)) {
      s = engine_->ReadLocalRecord(ctx_, table, key, nullptr, &entry);
    } else {
      s = engine_->ReadRemoteRecord(ctx_, table, node, key, nullptr, &entry, false);
    }
    if (s != Status::kOk) {
      return s;
    }
    w.access = entry;
    w.blind = true;
  }
  write_set_.push_back(std::move(w));
  return Status::kOk;
}

Status Transaction::Insert(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  DRTMR_CHECK(active_ && !read_only_);
  MutationEntry m;
  m.op = MutationEntry::Op::kInsert;
  m.table = table;
  m.node = node;
  m.key = key;
  m.value.assign(static_cast<const std::byte*>(value),
                 static_cast<const std::byte*>(value) + table->value_size());
  mutations_.push_back(std::move(m));
  return Status::kOk;
}

Status Transaction::Remove(store::Table* table, uint32_t node, uint64_t key) {
  DRTMR_CHECK(active_ && !read_only_);
  MutationEntry m;
  m.op = MutationEntry::Op::kRemove;
  m.table = table;
  m.node = node;
  m.key = key;
  mutations_.push_back(std::move(m));
  return Status::kOk;
}

Status Transaction::ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                              const std::function<bool(uint64_t, const void*)>& fn) {
  DRTMR_CHECK(active_);
  DRTMR_CHECK(table->kind() == store::StoreKind::kBTree) << "ScanLocal is for ordered tables";
  // Collect matches from the index first, then read each record through the
  // consistent local-read path so it lands in the read set.
  std::vector<uint64_t> keys;
  table->btree(ctx_->node_id)->Scan(ctx_, lo, hi, [&](uint64_t key, uint64_t) {
    keys.push_back(key);
    return true;
  });
  std::vector<std::byte> value(table->value_size());
  for (uint64_t key : keys) {
    const Status s = Read(table, ctx_->node_id, key, value.data());
    if (s == Status::kNotFound) {
      continue;  // removed between index scan and record read
    }
    if (s != Status::kOk) {
      return s;
    }
    if (!fn(key, value.data())) {
      break;
    }
  }
  return Status::kOk;
}

void Transaction::UserAbort() {
  DRTMR_CHECK(active_);
  active_ = false;
  engine_->stats().IncAbortUser();
  // The attempt still spent execution-phase time; account for it so phase
  // sums cover user-aborted (business-abort) transactions too.
  obs::PhaseSample(obs::Phase::kExecution, ctx_->clock.now_ns() - begin_ns_);
  if (obs::TraceEnabled()) {
    obs::Registry::Global().AddTrace(read_only_ ? obs::TraceName::kTxnReadOnly
                                                : obs::TraceName::kTxn,
                                     ctx_->node_id, ctx_->worker_id, begin_ns_,
                                     ctx_->clock.now_ns() - begin_ns_, /*arg=*/0);
  }
}

// ---------------- commit protocol ----------------

void Transaction::BuildImage(const WriteEntry& w, uint64_t seq, std::vector<std::byte>* image) const {
  const store::Table* table = w.access.table;
  image->assign(table->record_bytes(), std::byte{0});
  RecordLayout::Init(image->data(), w.access.key, w.access.incarnation, seq, w.value.data(),
                     table->value_size());
}

Status Transaction::AcquireLock(const LockTarget& t) {
  // Lock both local and remote records uniformly with RDMA CAS (§6.2): our
  // ConnectX-3-level atomicity means RDMA atomics only pair with RDMA
  // atomics, so the lock word is only ever CASed through the NIC. A live
  // conflict aborts immediately (no-wait); only the dangling-owner path
  // retries, bounded and with jittered exponential backoff so that survivors
  // racing to steal the same dead owner's locks spread out instead of
  // spinning forever (DESIGN.md §10).
  sim::RdmaNic* nic = self_->nic();
  const TxnConfig& cfg = engine_->config();
  util::Backoff backoff = util::Backoff::Exponential(
      cfg.lock_backoff_base_ns, cfg.lock_backoff_base_ns * 2,
      /*max_shift=*/16, cfg.lock_backoff_cap_ns);
  while (true) {
    uint64_t observed = 0;
    const Status s = nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kLockOff,
                                      LockWord::kUnlocked, lock_word_, &observed);
    if (engine_->config().message_passing_commit) {
      ctx_->Charge(engine_->cost()->send_recv_ns);
    }
    if (s == Status::kOk) {
      return Status::kOk;
    }
    if (s == Status::kUnavailable || s == Status::kStaleEpoch) {
      return s;
    }
    if (engine_->OwnerAbsent(ctx_, observed)) {
      // §5.2: the lock owner crashed; release the dangling lock and retry.
      if (backoff.attempts() >= cfg.lock_retry_threshold) {
        return Status::kTimeout;
      }
      if (chk::AnalyzerEnabled()) {
        chk::ProtocolAnalyzer::Global().NoteDanglingSteal(
            engine_->cluster()->node(t.node)->bus(), t.offset, observed);
      }
      // Best-effort steal: losing the race means another survivor freed it.
      (void)nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kLockOff, observed,
                             LockWord::kUnlocked, nullptr);
      engine_->stats().dangling_locks_released.fetch_add(1, std::memory_order_relaxed);
      ctx_->Charge(backoff.NextDelay(&ctx_->rng));
      continue;
    }
    return Status::kConflict;
  }
}

void Transaction::ReleaseLocks(const std::vector<LockTarget>& targets, size_t count) {
  // Unlocks are fire-and-forget: posted CASes whose completions nobody waits
  // on (the transaction has already reported its outcome).
  sim::RdmaNic* nic = self_->nic();
  uint64_t completion = 0;
  for (size_t i = 0; i < count; ++i) {
    (void)nic->CompareSwapPosted(ctx_, targets[i].node,
                                 targets[i].offset + RecordLayout::kLockOff, lock_word_,
                                 LockWord::kUnlocked, nullptr, &completion);
  }
}

Status Transaction::LockRemoteSets(const std::vector<LockTarget>& targets) {
  for (size_t i = 0; i < targets.size(); ++i) {
    const Status s = AcquireLock(targets[i]);
    if (s != Status::kOk) {
      ReleaseLocks(targets, i);
      return s;
    }
  }
  return Status::kOk;
}

Status Transaction::ValidateRemote(uint64_t* /*unused*/) {
  // C.2: validate remote read-set records; under replication also check that
  // remote write-set records are committable (Table 4). Record the current
  // seq of every remote write entry as the base for its increments. All the
  // metadata READs are posted back-to-back (their latencies overlap) and one
  // fence awaits the batch.
  sim::RdmaNic* nic = self_->nic();
  struct Pending {
    const AccessEntry* entry;
    size_t ws_index;  // ~0 for read-set entries
    uint64_t meta[2];
  };
  std::vector<Pending> pending;
  uint64_t completion = 0;
  for (const AccessEntry& e : read_set_) {
    if (IsLocal(e.node)) {
      continue;
    }
    pending.push_back(Pending{&e, ~0ull, {}});
  }
  for (size_t i = 0; i < write_set_.size(); ++i) {
    if (IsLocal(write_set_[i].access.node)) {
      continue;
    }
    pending.push_back(Pending{&write_set_[i].access, i, {}});
  }
  for (Pending& p : pending) {
    const Status s = nic->ReadPosted(ctx_, p.entry->node,
                                     p.entry->offset + RecordLayout::kIncOff, p.meta,
                                     sizeof(p.meta), &completion);
    if (s != Status::kOk) {
      return s;
    }
  }
  if (!pending.empty()) {
    nic->Fence(ctx_, completion, engine_->cost()->rdma_read_ns);
    if (engine_->config().message_passing_commit) {
      ctx_->Charge(engine_->cost()->send_recv_ns * pending.size());
    }
  }
  for (const Pending& p : pending) {
    if (p.meta[0] != p.entry->incarnation) {
      return Status::kConflict;
    }
    if (p.ws_index == ~0ull) {
      if (!rules_.ReadValid(p.entry->seq, p.meta[1])) {
        return Status::kConflict;
      }
    } else {
      if (!rules_.WriteValid(p.meta[1])) {
        return Status::kConflict;
      }
      commit_seq_[p.ws_index] = p.meta[1];
    }
  }
  return Status::kOk;
}

Status Transaction::HtmValidateAndApply() {
  const TxnConfig& cfg = engine_->config();
  std::vector<std::byte> image;
  // Pre-size to the largest local record so BuildImage's assign() never
  // allocates inside the HTM region below — on real RTM a malloc inside
  // XBEGIN..XEND is a guaranteed abort (drtmr-htm-region-purity).
  uint64_t max_record_bytes = 0;
  for (const WriteEntry& w : write_set_) {
    if (IsLocal(w.access.node) && w.access.table->record_bytes() > max_record_bytes) {
      max_record_bytes = w.access.table->record_bytes();
    }
  }
  image.reserve(max_record_bytes);
  for (uint32_t attempt = 0;; ++attempt) {
    if (attempt >= cfg.htm_retry_threshold) {
      return Status::kAborted;  // no forward progress: take the fallback
    }
    if (attempt > 0) {
      engine_->stats().IncHtmCommitRetry();
    }
    sim::HtmTxn* htm = self_->htm()->Begin(ctx_, obs::HtmSite::kCommit);
    DRTMR_CHECK(htm != nullptr);
    bool conflict = false;
    bool htm_failed = false;
    bool dangling = false;
    uint64_t dangling_word = 0;
    uint64_t dangling_off = 0;

    // Fencing (DESIGN.md §10): pull the stamped epoch word into the HTM read
    // set. A membership stamp is a plain bus CAS on that line, so it dooms
    // this region if it lands mid-commit, and a region starting after the
    // stamp sees the mismatch here — either way no fenced-epoch write can
    // reach committed state through HTM.
    if (engine_->fencing()) {
      uint64_t epoch_word = 0;
      if (htm->Read(sim::Fabric::kEpochWordOff, &epoch_word, sizeof(epoch_word)) !=
          Status::kOk) {
        continue;  // doomed (likely by a concurrent stamp): retry and re-check
      }
      if (epoch_word != begin_epoch_) {
        htm->Abort();
        return Status::kStaleEpoch;
      }
    }

    // C.3: validate the local read set. A remote committer's lock fails it
    // even at an unchanged seq: the committer may not have written back yet.
    for (const AccessEntry& e : read_set_) {
      if (!IsLocal(e.node)) {
        continue;
      }
      uint64_t meta[3];  // lock, incarnation, seq
      if (htm->Read(e.offset + RecordLayout::kLockOff, meta, sizeof(meta)) != Status::kOk) {
        htm_failed = true;
        break;
      }
      if (LockWord::IsLocked(meta[0])) {
        if (engine_->OwnerAbsent(ctx_, meta[0])) {
          dangling = true;
          dangling_word = meta[0];
          dangling_off = e.offset;
        } else {
          conflict = true;
        }
        break;
      }
      if (meta[1] != e.incarnation || !rules_.ReadValid(e.seq, meta[2])) {
        conflict = true;
        break;
      }
    }

    // C.4: check and update the local write set.
    if (!conflict && !htm_failed) {
      for (size_t i = 0; i < write_set_.size(); ++i) {
        WriteEntry& w = write_set_[i];
        if (!IsLocal(w.access.node)) {
          continue;
        }
        uint64_t meta[3];  // lock, incarnation, seq
        if (htm->Read(w.access.offset, meta, sizeof(meta)) != Status::kOk) {
          htm_failed = true;
          break;
        }
        if (LockWord::IsLocked(meta[0])) {
          // A remote transaction locked this record before our HTM region
          // began (§4.4 C.4's "additional check"). If the owner is gone,
          // release the lock outside the region and retry.
          if (engine_->OwnerAbsent(ctx_, meta[0])) {
            dangling = true;
            dangling_word = meta[0];
            dangling_off = w.access.offset;
          } else {
            conflict = true;
          }
          break;
        }
        if (store::SeqWord::Locked(meta[2])) {
          conflict = true;  // fused-locked by a remote committer (§4.4)
          break;
        }
        if (meta[1] != w.access.incarnation || !rules_.WriteValid(meta[2]) ||
            (!w.blind && !rules_.ReadValid(w.access.seq, meta[2]))) {
          conflict = true;
          break;
        }
        commit_seq_[i] = meta[2];
        const uint64_t new_seq = rules_.LocalCommitSeq(meta[2]);
        BuildImage(w, new_seq, &image);
        // Write everything after the lock+incarnation words: seq, key,
        // payload, and per-line versions.
        if (htm->Write(w.access.offset + RecordLayout::kSeqOff,
                       image.data() + RecordLayout::kSeqOff,
                       image.size() - RecordLayout::kSeqOff) != Status::kOk) {
          htm_failed = true;
          break;
        }
        // §6.4: pointer-swap tables shrink the HTM write cost to one line.
        if (w.access.table->ptr_swap()) {
          ctx_->Charge(engine_->cost()->line_access_ns);
        } else {
          ctx_->Charge(engine_->cost()->CopyNs(image.size()));
        }
      }
    }

    if (conflict) {
      htm->Abort();
      return Status::kConflict;
    }
    if (dangling) {
      htm->Abort();
      if (chk::AnalyzerEnabled()) {
        chk::ProtocolAnalyzer::Global().NoteDanglingSteal(self_->bus(), dangling_off,
                                                          dangling_word);
      }
      // Best-effort steal: losing the race means another survivor freed it.
      (void)self_->nic()->CompareSwap(ctx_, ctx_->node_id,
                                      dangling_off + RecordLayout::kLockOff, dangling_word,
                                      LockWord::kUnlocked, nullptr);
      engine_->stats().dangling_locks_released.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (htm_failed) {
      continue;
    }
    if (htm->Commit() == Status::kOk) {
      return Status::kOk;
    }
  }
}

void Transaction::StageReplicationEarly() {
  // R.1 issued early (Fig. 9 moved left): the slots ride the per-backup
  // doorbell chains while C.2–C.4 run, so by decision time the log images
  // are already on the wire. The staged seq is a *prediction* — the
  // RemoteCommitSeq this write installs if every validation passes. For
  // non-blind writes validation enforces exactly that base seq on every
  // committing path, so the prediction only misses for blind writes (whose
  // observed seq may be stale); those are superseded at decision time.
  Replicator* rep = engine_->replicator();
  std::vector<std::byte> image;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    const uint64_t base =
        rules_.replication ? ((w.access.seq + 1) & ~1ull) : w.access.seq;
    const uint64_t predicted = rules_.RemoteCommitSeq(base);
    BuildImage(w, predicted, &image);
    const Status s = rep->StageUpdate(ctx_, txn_id_, w.access.node, w.access.table->id(),
                                      w.access.key, w.access.offset, image.data(),
                                      image.size());
    if (s == Status::kOk || s == Status::kUnavailable) {
      // A dead backup is tolerated: the configuration service reconfigures
      // and recovery rebuilds redundancy (vertical Paxos, §5.1).
      staged_seq_[i] = predicted;
      rep_staged_ = true;
    }
    // Other failures (fenced mid-stage): leave the entry unstaged; the
    // decision path re-attempts or the abort path retires what did land.
  }
}

Status Transaction::FinishReplication() {
  Replicator* rep = engine_->replicator();
  std::vector<std::byte> image;
  Status worst = Status::kOk;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    const uint64_t final_seq = rules_.RemoteCommitSeq(commit_seq_[i]);
    if (staged_seq_[i] == final_seq) {
      continue;  // the early slot already carries the committed image
    }
    BuildImage(w, final_seq, &image);
    const Status s =
        staged_seq_[i] == kNotStaged
            ? rep->StageUpdate(ctx_, txn_id_, w.access.node, w.access.table->id(),
                               w.access.key, w.access.offset, image.data(), image.size())
            : rep->SupersedeUpdate(ctx_, txn_id_, w.access.node, w.access.table->id(),
                                   w.access.key, w.access.offset, image.data(), image.size());
    if (s == Status::kOk || s == Status::kUnavailable) {
      staged_seq_[i] = final_seq;
      rep_staged_ = true;
    } else if (worst == Status::kOk) {
      worst = s;
    }
  }
  if (worst != Status::kOk && engine_->fencing()) {
    // Fenced mid-replication: the caller aborts, and Commit() tombstones the
    // slots that did land (AbortTxnLog) so they never reach a backup copy.
    return worst;
  }
  // Commit decision: watermark past the staged slots and close one
  // transaction in the group-commit window. In non-fenced mode a partial
  // staging still commits (old behavior: warn and proceed; recovery
  // reconciles via seq comparison), so the decision must still be published.
  (void)rep->CommitTxnLog(ctx_, txn_id_);
  rep_staged_ = false;
  return worst;
}

void Transaction::MakeupLocal() {
  // R.2: flip local written records from odd (uncommittable) to even.
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (!IsLocal(w.access.node)) {
      continue;
    }
    const uint64_t final_seq = rules_.MakeupSeq(commit_seq_[i]);
    const uint16_t v = static_cast<uint16_t>(final_seq);
    const uint32_t lines = RecordLayout::LinesFor(w.access.table->value_size());
    for (uint32_t line = 1; line < lines; ++line) {
      self_->bus()->Write(ctx_, w.access.offset + line * kCacheLineSize, &v, sizeof(v));
    }
    self_->bus()->WriteU64(ctx_, w.access.offset + RecordLayout::kSeqOff, final_seq);
  }
}

Status Transaction::WriteBackRemote() {
  // C.5: push buffered updates to remote primaries with posted one-sided
  // WRITEs; one fence before reporting commit.
  std::vector<std::byte> image;
  uint64_t completion = 0;
  bool any = false;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (IsLocal(w.access.node)) {
      continue;
    }
    const uint64_t final_seq = rules_.RemoteCommitSeq(commit_seq_[i]);
    BuildImage(w, final_seq, &image);
    // Posted write-back: failures surface through the completion fence, and a
    // dead target's record is re-hosted from the replication logs anyway.
    (void)self_->nic()->WritePosted(ctx_, w.access.node,
                                    w.access.offset + RecordLayout::kSeqOff,
                                    image.data() + RecordLayout::kSeqOff,
                                    image.size() - RecordLayout::kSeqOff, &completion);
    any = true;
  }
  if (any) {
    self_->nic()->Fence(ctx_, completion, engine_->cost()->rdma_write_ns);
    if (engine_->config().message_passing_commit) {
      ctx_->Charge(engine_->cost()->send_recv_ns);
    }
  }
  return Status::kOk;
}

Status Transaction::CommitReadOnly() {
  // §4.5: validate sequence numbers only; no HTM, no locks.
  obs::PhaseTimer timer(ctx_, obs::Phase::kValidation);
  // Fencing: a read-only transaction spanning a configuration change may have
  // read copies that recovery has since re-hosted; validating against the
  // abandoned copies would wrongly succeed. On a survivor the epoch word
  // catches that. On a fenced node the word never moves, so the lease check
  // is what refuses the snapshot (FaRM's rule: an expired node must not
  // vouch for its local copies — a thawed zombie's clock sits past its stale
  // deadline deterministically). Reads themselves stay allowed in degraded
  // mode; only the serializable-snapshot claim is refused.
  if (engine_->fencing()) {
    const auto& mcfg = engine_->membership()->config();
    if (engine_->membership()->NodeEpoch(ctx_->node_id) != begin_epoch_ ||
        ctx_->clock.now_ns() + mcfg.commit_guard_ns >
            engine_->membership()->lease_deadline_ns(ctx_->node_id)) {
      engine_->stats().IncAbortStaleEpoch();
      return Status::kStaleEpoch;
    }
  }
  for (const AccessEntry& e : read_set_) {
    TxnEngine::RecordMeta meta;
    if (IsLocal(e.node)) {
      engine_->ReadMetaLocal(ctx_, e, &meta);
    } else {
      const Status s = engine_->ReadMetaRemote(ctx_, e, &meta);
      if (s != Status::kOk) {
        engine_->stats().IncAbortValidation();
        return Status::kAborted;
      }
    }
    // A held lock fails validation even at an unchanged seq: its committer
    // may have written back some of our reads and not yet this one.
    if (LockWord::IsLocked(meta.lock)) {
      engine_->StealIfOwnerAbsent(ctx_, e.node, e.offset, meta.lock);
      engine_->stats().IncAbortValidation();
      return Status::kAborted;
    }
    if (meta.inc != e.incarnation || !rules_.ReadValid(e.seq, meta.seq)) {
      engine_->stats().IncAbortValidation();
      return Status::kAborted;
    }
  }
  engine_->stats().IncCommit();
  return Status::kOk;
}

Status Transaction::FallbackCommit(const std::vector<LockTarget>& remote_targets) {
  engine_->stats().IncFallback();
  // §6.1: release held remote locks, then lock *all* records — local ones via
  // loopback RDMA CAS (§6.2) — in global address order to avoid deadlock.
  ReleaseLocks(held_locks_, held_locks_.size());
  held_locks_.clear();

  std::vector<LockTarget> all = remote_targets;
  for (const AccessEntry& e : read_set_) {
    if (IsLocal(e.node)) {
      all.push_back({e.node, e.offset});
    }
  }
  for (const WriteEntry& w : write_set_) {
    if (IsLocal(w.access.node)) {
      all.push_back({w.access.node, w.access.offset});
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  const Status lock_status = LockRemoteSets(all);
  if (lock_status == Status::kStaleEpoch) {
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  if (lock_status == Status::kTimeout) {
    engine_->stats().IncAbortTimeout();
    return Status::kTimeout;
  }
  if (lock_status != Status::kOk) {
    engine_->stats().IncAbortLock();
    return Status::kAborted;
  }
  held_locks_ = all;

  // Validate everything (read set + committability of the write set). Every
  // record is locked by this transaction, so the lock words are ours.
  bool valid = true;
  for (const AccessEntry& e : read_set_) {
    TxnEngine::RecordMeta meta;
    if (IsLocal(e.node)) {
      engine_->ReadMetaLocal(ctx_, e, &meta);
    } else if (engine_->ReadMetaRemote(ctx_, e, &meta) != Status::kOk) {
      valid = false;
      break;
    }
    if (meta.inc != e.incarnation || !rules_.ReadValid(e.seq, meta.seq)) {
      valid = false;
      break;
    }
  }
  if (valid) {
    for (size_t i = 0; i < write_set_.size(); ++i) {
      WriteEntry& w = write_set_[i];
      TxnEngine::RecordMeta meta;
      if (IsLocal(w.access.node)) {
        engine_->ReadMetaLocal(ctx_, w.access, &meta);
      } else if (engine_->ReadMetaRemote(ctx_, w.access, &meta) != Status::kOk) {
        valid = false;
        break;
      }
      if (meta.inc != w.access.incarnation || !rules_.WriteValid(meta.seq) ||
          (!w.blind && !rules_.ReadValid(w.access.seq, meta.seq))) {
        valid = false;
        break;
      }
      commit_seq_[i] = meta.seq;
    }
  }
  if (!valid) {
    ReleaseLocks(held_locks_, held_locks_.size());
    held_locks_.clear();
    engine_->stats().IncAbortValidation();
    return Status::kAborted;
  }

  // Fencing re-check before applying: the fallback runs without HTM, so the
  // stamp cannot doom it — check the epoch explicitly while holding every
  // lock (DESIGN.md §10).
  if (engine_->fencing() &&
      !engine_->membership()->CommitAllowed(ctx_->node_id, ctx_->clock.now_ns(), begin_epoch_)) {
    ReleaseLocks(held_locks_, held_locks_.size());
    held_locks_.clear();
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }

  // Apply local updates without HTM — safe because every record is locked and
  // local readers honor the lock (Fig. 5). Under replication, go through the
  // same odd -> replicate -> even sequence as the fast path.
  std::vector<std::byte> image;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (!IsLocal(w.access.node)) {
      continue;
    }
    BuildImage(w, rules_.LocalCommitSeq(commit_seq_[i]), &image);
    self_->bus()->Write(ctx_, w.access.offset + RecordLayout::kSeqOff,
                        image.data() + RecordLayout::kSeqOff,
                        image.size() - RecordLayout::kSeqOff);
  }
  if (engine_->config().replication) {
    const Status s = FinishReplication();
    if (s != Status::kOk) {
      if (engine_->fencing()) {
        // Same rule as the fast path: a fenced primary must not report
        // commit on partial replication (DESIGN.md §10).
        ReleaseLocks(held_locks_, held_locks_.size());
        held_locks_.clear();
        engine_->stats().IncAbortStaleEpoch();
        return Status::kStaleEpoch;
      }
      // Logs partially written; recovery reconciles via seq comparison.
      DRTMR_LOG(Warning) << "replication failed in fallback: " << StatusString(s);
    }
    MakeupLocal();
  }
  (void)WriteBackRemote();  // past the commit point: recovery patches misses
  for (MutationEntry& m : mutations_) {
    (void)engine_->Mutate(ctx_, m);  // past the commit point: idempotent
  }
  if (engine_->config().replication) {
    engine_->replicator()->EndTransaction(ctx_, txn_id_);
  }
  engine_->stats().IncCommit();
  ReleaseLocks(held_locks_, held_locks_.size());
  held_locks_.clear();
  return Status::kOk;
}

Status Transaction::CommitReadWrite() {
  // Fencing admission (DESIGN.md §10): a degraded node, an expiring lease, or
  // a moved epoch all mean this node may no longer act as a primary — abort
  // before taking any lock.
  if (engine_->fencing() &&
      !engine_->membership()->CommitAllowed(ctx_->node_id, ctx_->clock.now_ns(), begin_epoch_)) {
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  commit_seq_.assign(write_set_.size(), 0);
  staged_seq_.assign(write_set_.size(), kNotStaged);
  rep_staged_ = false;

  // C.1: lock remote read and write sets (sorted, deduplicated).
  std::vector<LockTarget> remote_targets;
  if (engine_->config().lock_remote_read_set) {
    for (const AccessEntry& e : read_set_) {
      if (!IsLocal(e.node)) {
        remote_targets.push_back({e.node, e.offset});
      }
    }
  }
  for (const WriteEntry& w : write_set_) {
    if (!IsLocal(w.access.node)) {
      remote_targets.push_back({w.access.node, w.access.offset});
    }
  }
  std::sort(remote_targets.begin(), remote_targets.end());
  remote_targets.erase(std::unique(remote_targets.begin(), remote_targets.end()),
                       remote_targets.end());

  Status s;
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kLock);
    s = LockRemoteSets(remote_targets);
  }
  if (s == Status::kStaleEpoch) {
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  if (s == Status::kTimeout) {
    engine_->stats().IncAbortTimeout();
    return Status::kTimeout;
  }
  if (s != Status::kOk) {
    engine_->stats().IncAbortLock();
    return Status::kAborted;
  }
  held_locks_ = remote_targets;

  // R.1 issued early: stage speculative log slots onto the doorbell chains
  // now, so the log writes overlap C.2–C.4 instead of serializing after them.
  if (engine_->config().replication) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kReplication);
    StageReplicationEarly();
  }

  // C.2: validate the remote read set (and remote write committability).
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kValidation);
    s = ValidateRemote(nullptr);
  }
  if (s != Status::kOk) {
    ReleaseLocks(held_locks_, held_locks_.size());
    held_locks_.clear();
    engine_->stats().IncAbortValidation();
    return Status::kAborted;
  }

  // Fencing re-check before entering HTM: C.1/C.2 verbs may have stalled
  // across a fault window, during which the epoch can have moved.
  if (engine_->fencing() &&
      !engine_->membership()->CommitAllowed(ctx_->node_id, ctx_->clock.now_ns(), begin_epoch_)) {
    ReleaseLocks(held_locks_, held_locks_.size());
    held_locks_.clear();
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }

  // C.3 + C.4 inside one HTM region.
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kHtmCommit);
    s = HtmValidateAndApply();
  }
  if (s == Status::kStaleEpoch) {
    ReleaseLocks(held_locks_, held_locks_.size());
    held_locks_.clear();
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  if (s == Status::kConflict) {
    ReleaseLocks(held_locks_, held_locks_.size());
    held_locks_.clear();
    engine_->stats().IncAbortValidation();
    return Status::kAborted;
  }
  if (s == Status::kAborted) {
    // The fallback is timed as one opaque phase — its internal re-lock /
    // validate / apply steps are not re-attributed to the phases above.
    obs::PhaseTimer timer(ctx_, obs::Phase::kFallback);
    return FallbackCommit(remote_targets);
  }

  // R.1 decision + R.2 (replication), C.5 (remote write-back).
  if (engine_->config().replication) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kReplication);
    const Status rs = FinishReplication();
    if (rs != Status::kOk) {
      if (engine_->fencing()) {
        // Fenced mid-replication: this primary may be cut off and about to be
        // re-hosted from its backups — reporting commit here would lose the
        // update. Abort instead; the local records stay odd (uncommittable)
        // until recovery reconciles them (DESIGN.md §10).
        ReleaseLocks(held_locks_, held_locks_.size());
        held_locks_.clear();
        engine_->stats().IncAbortStaleEpoch();
        return Status::kStaleEpoch;
      }
      DRTMR_LOG(Warning) << "replication failed: " << StatusString(rs);
    }
    MakeupLocal();
  }
  obs::PhaseTimer wb_timer(ctx_, obs::Phase::kWriteBack);
  (void)WriteBackRemote();  // past the commit point: recovery patches misses

  // Apply queued inserts/removes (validated transaction; see DESIGN.md on
  // phantom handling).
  for (MutationEntry& m : mutations_) {
    (void)engine_->Mutate(ctx_, m);  // past the commit point: idempotent
  }

  // Transaction reports committed before unlocking (Fig. 7).
  if (engine_->config().replication) {
    engine_->replicator()->EndTransaction(ctx_, txn_id_);
  }
  engine_->stats().IncCommit();

  // C.6: unlock remote records.
  ReleaseLocks(held_locks_, held_locks_.size());
  held_locks_.clear();
  return Status::kOk;
}

Status Transaction::Commit() {
  DRTMR_CHECK(active_);
  active_ = false;
  // Everything since Begin() is the execution phase: reads, buffered writes,
  // and application logic between them.
  obs::PhaseSample(obs::Phase::kExecution, ctx_->clock.now_ns() - begin_ns_);
  const bool read_only = read_only_ || (write_set_.empty() && mutations_.empty());
  // Migration write admission (DESIGN.md §14): while a partition's cutover
  // drain window is open, refuse read-write transactions touching it — on
  // either home — before entering the commit protocol. Reads keep flowing
  // (dual-home window); the caller retries with jittered backoff and its
  // next Begin() routes to the new home after the flip.
  if (!read_only) {
    const MigrationBlock* block = engine_->migration_block();
    if (block != nullptr && block->active()) {
      bool blocked = false;
      for (const WriteEntry& w : write_set_) {
        if (block->Blocks(w.access.key)) {
          blocked = true;
          break;
        }
      }
      for (size_t i = 0; !blocked && i < mutations_.size(); ++i) {
        blocked = block->Blocks(mutations_[i].key);
      }
      if (blocked) {
        engine_->stats().IncAbortMigrating();
        return Status::kMigrating;
      }
    }
  }
  // Bracket the commit phase so the reconfiguration driver can drain commits
  // that entered before an epoch stamp before it re-hosts data (DESIGN.md
  // §10; post-stamp entrants self-fence, so the drain terminates).
  self_->EnterCommit();
  Status s;
  if (read_only) {
    s = CommitReadOnly();
  } else if (engine_->config().fused_seq_lock) {
    s = CommitReadWriteFused();
  } else {
    s = CommitReadWrite();
  }
  if (engine_->config().replication && rep_staged_) {
    // Speculative slots were staged but no commit decision was published
    // (abort on any path after C.1): tombstone them and move the watermark
    // past, so the backup pump and recovery never replay them and the ring
    // cannot jam on an undecided tail.
    engine_->replicator()->AbortTxnLog(ctx_, txn_id_);
    rep_staged_ = false;
  }
  self_->ExitCommit();
  if (obs::TraceEnabled()) {
    const uint64_t end_ns = ctx_->clock.now_ns();
    obs::Registry::Global().AddTrace(
        read_only ? obs::TraceName::kTxnReadOnly : obs::TraceName::kTxn, ctx_->node_id,
        ctx_->worker_id, begin_ns_, end_ns - begin_ns_,
        /*arg=*/s == Status::kOk ? 1 : 0);
  }
  if (s == Status::kOk && chk::Enabled()) {
    RecordHistory(read_only);
  }
  return s;
}

void Transaction::RecordHistory(bool read_only) {
  chk::TxnRec rec;
  rec.txn_id = txn_id_;
  rec.node = ctx_->node_id;
  rec.worker = ctx_->worker_id;
  rec.begin_ns = begin_ns_;
  rec.commit_ns = ctx_->clock.now_ns();
  rec.read_only = read_only;
  rec.reads.reserve(read_set_.size());
  for (const AccessEntry& e : read_set_) {
    // Normalize to the committable version the commit-time re-check validated
    // against — the final seq of the write that produced the observed payload.
    const uint64_t v = rules_.replication ? ((e.seq + 1) & ~1ull) : e.seq;
    rec.reads.push_back({e.table->id(), e.key, v});
  }
  rec.writes.reserve(write_set_.size());
  for (size_t i = 0; i < write_set_.size(); ++i) {
    // commit_seq_ is index-aligned with write_set_ on every committed path
    // (fast, fallback, fused); RemoteCommitSeq gives the final installed seq.
    rec.writes.push_back({write_set_[i].access.table->id(), write_set_[i].access.key,
                          rules_.RemoteCommitSeq(commit_seq_[i])});
  }
  chk::HistoryRecorder::Global().Record(std::move(rec));
}

Status Transaction::CommitReadWriteFused() {
  // §4.4's GLOB-atomicity variant. For every remote record, one RDMA CAS on
  // the seqnum both locks it (top bit) and validates it (the expected value
  // is the closest committable seq at or after the one observed during
  // execution — exactly the Table 4 read condition). Write-set records are
  // unlocked implicitly by the C.5 write-back of the new seqnum; read-only
  // records are unlocked by restoring the expected value.
  if (engine_->fencing() &&
      !engine_->membership()->CommitAllowed(ctx_->node_id, ctx_->clock.now_ns(), begin_epoch_)) {
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  commit_seq_.assign(write_set_.size(), 0);
  staged_seq_.assign(write_set_.size(), kNotStaged);
  rep_staged_ = false;

  struct FusedTarget {
    uint32_t node;
    uint64_t offset;
    uint64_t expected;   // committable seq the CAS expects
    bool written;
  };
  std::vector<FusedTarget> targets;
  auto expected_of = [&](uint64_t observed_seq) {
    return rules_.replication ? ((observed_seq + 1) & ~1ull) : observed_seq;
  };
  auto add_target = [&](uint32_t node, uint64_t offset, uint64_t seq, bool written) {
    for (auto& t : targets) {
      if (t.node == node && t.offset == offset) {
        t.written = t.written || written;
        return;
      }
    }
    targets.push_back({node, offset, expected_of(seq), written});
  };
  for (const AccessEntry& e : read_set_) {
    if (!IsLocal(e.node)) {
      add_target(e.node, e.offset, e.seq, false);
    }
  }
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (!IsLocal(w.access.node)) {
      add_target(w.access.node, w.access.offset, w.access.seq, true);
    }
  }
  std::sort(targets.begin(), targets.end(), [](const FusedTarget& a, const FusedTarget& b) {
    return std::tie(a.node, a.offset) < std::tie(b.node, b.offset);
  });

  // Fused C.1+C.2: lock-and-validate with one CAS per record. The fused CAS
  // does both jobs at once, so the whole loop is attributed to kLock.
  sim::RdmaNic* nic = self_->nic();
  size_t locked = 0;
  bool failed = false;
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kLock);
    for (; locked < targets.size(); ++locked) {
      const FusedTarget& t = targets[locked];
      uint64_t observed = 0;
      const Status cs =
          nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kSeqOff, t.expected,
                           store::SeqWord::WithLock(t.expected), &observed);
      if (cs != Status::kOk) {
        failed = true;
        break;
      }
    }
  }
  auto unlock_range = [&](size_t count, bool written_too) {
    uint64_t completion = 0;
    for (size_t i = 0; i < count; ++i) {
      const FusedTarget& t = targets[i];
      if (t.written && !written_too) {
        continue;  // implicitly unlocked by the write-back
      }
      (void)nic->CompareSwapPosted(ctx_, t.node, t.offset + RecordLayout::kSeqOff,
                                   store::SeqWord::WithLock(t.expected), t.expected, nullptr,
                                   &completion);
    }
  };
  if (failed) {
    unlock_range(locked, /*written_too=*/true);
    engine_->stats().IncAbortValidation();
    return Status::kAborted;
  }
  // Record the commit-base seq of remote write entries.
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (!IsLocal(w.access.node)) {
      commit_seq_[i] = expected_of(w.access.seq);
    }
  }

  // R.1 issued early, right after the fused lock+validate: the staged slots
  // overlap the HTM step and any fallback work.
  if (engine_->config().replication) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kReplication);
    StageReplicationEarly();
  }

  // C.3 + C.4 inside one HTM region (unchanged; local records are never
  // fused-locked by this transaction).
  Status s;
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kHtmCommit);
    s = HtmValidateAndApply();
  }
  if (s == Status::kStaleEpoch) {
    unlock_range(targets.size(), true);
    engine_->stats().IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  if (s == Status::kConflict) {
    unlock_range(targets.size(), true);
    engine_->stats().IncAbortValidation();
    return Status::kAborted;
  }
  if (s == Status::kAborted) {
    // Fallback (Â§6.1 under the fused scheme). The remote records stay fused-
    // locked the whole time, so their validation keeps holding; first give
    // the HTM region more attempts, then lock the local read/write sets with
    // loopback fused CASes and apply without HTM. One opaque kFallback phase.
    obs::PhaseTimer fallback_timer(ctx_, obs::Phase::kFallback);
    engine_->stats().IncFallback();
    for (int attempt = 0; attempt < 16 && s == Status::kAborted; ++attempt) {
      std::this_thread::yield();
      s = HtmValidateAndApply();
    }
    if (s == Status::kStaleEpoch) {
      unlock_range(targets.size(), true);
      engine_->stats().IncAbortStaleEpoch();
      return Status::kStaleEpoch;
    }
    if (s == Status::kConflict) {
      unlock_range(targets.size(), true);
      engine_->stats().IncAbortValidation();
      return Status::kAborted;
    }
    if (s == Status::kAborted) {
      // Lock local records (sorted) with the validation fused into the CAS.
      struct LocalTarget {
        uint64_t offset;
        uint64_t expected;
        size_t ws_index;  // ~0 for read-only
        bool blind;
      };
      std::vector<LocalTarget> locals;
      auto add_local = [&](uint64_t offset, uint64_t seq, size_t ws_index, bool blind) {
        for (auto& t : locals) {
          if (t.offset == offset) {
            if (ws_index != ~0ull) {
              t.ws_index = ws_index;
            }
            return;
          }
        }
        locals.push_back({offset, expected_of(seq), ws_index, blind});
      };
      for (const AccessEntry& e : read_set_) {
        if (IsLocal(e.node)) {
          add_local(e.offset, e.seq, ~0ull, false);
        }
      }
      for (size_t i = 0; i < write_set_.size(); ++i) {
        if (IsLocal(write_set_[i].access.node)) {
          add_local(write_set_[i].access.offset, write_set_[i].access.seq, i,
                    write_set_[i].blind);
        }
      }
      std::sort(locals.begin(), locals.end(),
                [](const LocalTarget& a, const LocalTarget& b) { return a.offset < b.offset; });
      size_t llocked = 0;
      bool lfail = false;
      for (; llocked < locals.size(); ++llocked) {
        LocalTarget& t = locals[llocked];
        if (t.blind) {
          // A blind write only needs committability: refresh the expected seq
          // from the live record before fusing the lock.
          const uint64_t cur = store::SeqWord::Value(
              self_->bus()->ReadU64(ctx_, t.offset + RecordLayout::kSeqOff));
          if (rules_.WriteValid(cur)) {
            t.expected = cur;
          }
        }
        uint64_t observed = 0;
        if (nic->CompareSwap(ctx_, ctx_->node_id, t.offset + RecordLayout::kSeqOff, t.expected,
                             store::SeqWord::WithLock(t.expected), &observed) != Status::kOk) {
          lfail = true;
          break;
        }
      }
      auto unlock_locals = [&](size_t count, bool written_too) {
        uint64_t completion = 0;
        for (size_t i = 0; i < count; ++i) {
          const LocalTarget& t = locals[i];
          if (t.ws_index != ~0ull && !written_too) {
            continue;  // written records get their final seq below
          }
          (void)nic->CompareSwapPosted(ctx_, ctx_->node_id, t.offset + RecordLayout::kSeqOff,
                                       store::SeqWord::WithLock(t.expected), t.expected,
                                       nullptr, &completion);
        }
      };
      if (lfail) {
        unlock_locals(llocked, true);
        unlock_range(targets.size(), true);
        engine_->stats().IncAbortValidation();
        return Status::kAborted;
      }
      // Everything is locked and validated; apply local writes without HTM.
      // The records' seq fields carry the lock bit, which the image write
      // replaces with the new (unlocked) value — an implicit local unlock.
      std::vector<std::byte> image;
      for (const LocalTarget& t : locals) {
        if (t.ws_index == ~0ull) {
          continue;
        }
        const WriteEntry& w = write_set_[t.ws_index];
        commit_seq_[t.ws_index] = t.expected;
        BuildImage(w, rules_.LocalCommitSeq(t.expected), &image);
        self_->bus()->Write(ctx_, w.access.offset + RecordLayout::kSeqOff,
                            image.data() + RecordLayout::kSeqOff,
                            image.size() - RecordLayout::kSeqOff);
      }
      unlock_locals(locals.size(), /*written_too=*/false);
    }
  }

  if (engine_->config().replication) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kReplication);
    const Status rs = FinishReplication();
    if (rs != Status::kOk) {
      if (engine_->fencing()) {
        // A fenced primary must not report commit on partial replication.
        unlock_range(targets.size(), /*written_too=*/true);
        engine_->stats().IncAbortStaleEpoch();
        return Status::kStaleEpoch;
      }
      DRTMR_LOG(Warning) << "replication failed: " << StatusString(rs);
    }
    MakeupLocal();
  }
  obs::PhaseTimer wb_timer(ctx_, obs::Phase::kWriteBack);
  // Clears the lock bit of written records (new seq); past the commit point.
  (void)WriteBackRemote();
  for (MutationEntry& m : mutations_) {
    (void)engine_->Mutate(ctx_, m);  // past the commit point: idempotent
  }
  if (engine_->config().replication) {
    engine_->replicator()->EndTransaction(ctx_, txn_id_);
  }
  engine_->stats().IncCommit();
  // C.6: unlock read-only remote records (one posted CAS each).
  unlock_range(targets.size(), /*written_too=*/false);
  return Status::kOk;
}

}  // namespace drtmr::txn
