#include "src/txn/transaction.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/chk/history.h"
#include "src/cluster/membership.h"
#include "src/obs/phase_timer.h"
#include "src/sim/time_gate.h"
#include "src/store/record.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace drtmr::txn {

using store::LockWord;
using store::RecordLayout;

namespace {

// Bounded retry for the C.1 remote-lock CAS (DESIGN.md §10): a CAS that keeps
// observing a dangling lock (owner absent from the configuration) releases it
// and retries at most this many times, with jittered exponential backoff
// between attempts, before surfacing kTimeout. Live conflicts still abort
// immediately (the paper's no-wait rule).
constexpr uint32_t kLockRetries = 6;
constexpr uint64_t kLockBackoffBaseNs = 200;
constexpr uint64_t kLockBackoffCapNs = 12'800;

// Access-index slots a Transaction starts with: room for 128 records before
// the first doubling, which most transactions never reach.
constexpr size_t kInitialIndexSlots = 256;

size_t IndexHash(const store::Table* table, uint32_t node, uint64_t key) {
  uint64_t h = key ^ (reinterpret_cast<uintptr_t>(table) << 16) ^ (uint64_t{node} << 56);
  h ^= h >> 32;
  h *= 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(h ^ (h >> 29));
}

}  // namespace

Transaction::Transaction(TxnEngine* engine, sim::ThreadContext* ctx)
    : engine_(engine),
      ctx_(ctx),
      self_(engine->cluster()->node(ctx->node_id)),
      rules_(engine->seq_rules()),
      lock_word_(LockWord::Make(ctx->node_id, ctx->worker_id)),
      fused_(engine->config().fused_seq_lock),
      index_(kInitialIndexSlots) {}

void Transaction::Begin(bool read_only) {
  DRTMR_CHECK(!active_) << "Begin inside an active transaction";
  sim::TimeGate::Sync(&ctx_->clock);
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
  commit_seq_.clear();
  index_used_ = 0;
  if (++index_gen_ == 0) {
    // The stamp wrapped: slots of a generation 2^32 transactions old would
    // match again, so free every slot for real.
    std::fill(index_.begin(), index_.end(), IndexSlot{});
    index_gen_ = 1;
  }
}

void Transaction::GrowIndex() {
  const std::vector<IndexSlot> old =
      std::exchange(index_, std::vector<IndexSlot>(index_.size() * 2));
  const size_t mask = index_.size() - 1;
  for (const IndexSlot& s : old) {
    if (s.gen != index_gen_) {
      continue;
    }
    size_t i = IndexHash(s.table, s.node, s.key) & mask;
    while (index_[i].gen == index_gen_) {
      i = (i + 1) & mask;
    }
    index_[i] = s;
  }
}

Transaction::IndexSlot& Transaction::Track(store::Table* table, uint32_t node, uint64_t key) {
  const size_t mask = index_.size() - 1;
  size_t i = IndexHash(table, node, key) & mask;
  for (; index_[i].gen == index_gen_; i = (i + 1) & mask) {
    IndexSlot& s = index_[i];
    if (s.key == key && s.table == table && s.node == node) {
      return s;
    }
  }
  if (2 * (index_used_ + 1) > index_.size()) {
    GrowIndex();
    return Track(table, node, key);
  }
  ++index_used_;
  index_[i] = IndexSlot{table, key, node, index_gen_, kAbsent, kAbsent};
  return index_[i];
}

Status Transaction::Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) {
  DRTMR_CHECK(active_);
  IndexSlot& slot = Track(table, node, key);
  // Read-your-own-write within the transaction.
  if (slot.write != kAbsent) {
    if (value_out != nullptr) {
      std::memcpy(value_out, write_set_[slot.write].value.data(), table->value_size());
    }
    return Status::kOk;
  }
  if (slot.read != kAbsent && value_out == nullptr) {
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
  if (slot.read == kAbsent) {
    slot.read = static_cast<uint32_t>(read_set_.size());
    read_set_.push_back(entry);
  }
  return Status::kOk;
}

Status Transaction::Write(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  DRTMR_CHECK(active_ && !read_only_);
  ctx_->Charge(engine_->cost()->CopyNs(table->value_size()) +
               engine_->cost()->record_logic_ns / 8);
  IndexSlot& slot = Track(table, node, key);
  if (slot.write != kAbsent) {
    std::memcpy(write_set_[slot.write].value.data(), value, table->value_size());
    return Status::kOk;
  }
  WriteEntry w;
  w.value.assign(static_cast<const std::byte*>(value),
                 static_cast<const std::byte*>(value) + table->value_size());
  if (slot.read != kAbsent) {
    w.access = read_set_[slot.read];
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
  slot.write = static_cast<uint32_t>(write_set_.size());
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
  // consistent local-read path so it lands in the read set. The buffers are
  // the previous scan's; a ScanLocal nested in `fn` finds them moved out and
  // allocates its own.
  std::vector<uint64_t> keys = std::move(scan_keys_);
  std::vector<std::byte> value = std::move(scan_value_);
  keys.clear();
  value.resize(table->value_size());
  table->btree(ctx_->node_id)->Scan(ctx_, lo, hi, [&](uint64_t key, uint64_t) {
    keys.push_back(key);
    return true;
  });
  Status result = Status::kOk;
  for (uint64_t key : keys) {
    const Status s = Read(table, ctx_->node_id, key, value.data());
    if (s == Status::kNotFound) {
      continue;  // removed between index scan and record read
    }
    if (s != Status::kOk) {
      result = s;
      break;
    }
    if (!fn(key, value.data())) {
      break;
    }
  }
  scan_keys_ = std::move(keys);
  scan_value_ = std::move(value);
  return result;
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

void Transaction::BuildImage(const WriteEntry& w, uint64_t seq) {
  const store::Table* table = w.access.table;
  image_.assign(table->record_bytes(), std::byte{0});
  RecordLayout::Init(image_.data(), w.access.key, w.access.incarnation, seq, w.value.data(),
                     table->value_size());
}

Status Transaction::AbortWith(Status cause, Step step) {
  TxnStats& stats = engine_->stats();
  if (cause == Status::kStaleEpoch) {
    stats.IncAbortStaleEpoch();
    return Status::kStaleEpoch;
  }
  if (cause == Status::kTimeout) {
    stats.IncAbortTimeout();
    return Status::kTimeout;
  }
  if (step == Step::kLock && !fused_) {
    stats.IncAbortLock();
  } else {
    stats.IncAbortValidation();
  }
  return Status::kAborted;
}

bool Transaction::Fenced() const {
  return engine_->fencing() &&
         !engine_->membership()->CommitAllowed(ctx_->node_id, ctx_->clock.now_ns(), begin_epoch_);
}

void Transaction::AddTargets(bool local) {
  // The fused CAS is the read set's validation, so that strategy always locks
  // the read set; two-verb skips the remote one under the ablation.
  const bool reads = local || fused_ || engine_->config().lock_remote_read_set;
  const size_t first = targets_.size();
  for (const AccessEntry& e : read_set_) {
    if (reads && IsLocal(e.node) == local) {
      targets_.push_back({e.node, e.offset, kReadOnly, rules_.Committable(e.seq)});
    }
  }
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const AccessEntry& a = write_set_[i].access;
    if (IsLocal(a.node) == local) {
      targets_.push_back({a.node, a.offset, i, rules_.Committable(a.seq)});
    }
  }
  // Address order; a record both read and written keeps its write entry,
  // which sorts first (kReadOnly is the largest index).
  std::sort(targets_.begin() + first, targets_.end());
  targets_.erase(std::unique(targets_.begin() + first, targets_.end(),
                             [](const LockTarget& a, const LockTarget& b) {
                               return a.node == b.node && a.offset == b.offset;
                             }),
                 targets_.end());
}

Status Transaction::LockOne(const LockTarget& t) {
  sim::RdmaNic* nic = self_->nic();
  if (fused_) {
    // §4.4: one CAS on the seq word sets its lock bit and proves the seq is
    // still the committable one this transaction observed.
    return nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kSeqOff, t.expected,
                            store::SeqWord::WithLock(t.expected), nullptr);
  }
  // Lock both local and remote records uniformly with RDMA CAS (§6.2): our
  // ConnectX-3-level atomicity means RDMA atomics only pair with RDMA
  // atomics, so the lock word is only ever CASed through the NIC. A live
  // conflict aborts immediately (no-wait); only the dangling-owner path
  // retries, bounded and with jittered exponential backoff so that survivors
  // racing to steal the same dead owner's locks spread out instead of
  // spinning forever (DESIGN.md §10).
  const TxnConfig& cfg = engine_->config();
  util::Backoff backoff = util::Backoff::Exponential(kLockBackoffBaseNs, kLockBackoffBaseNs * 2,
                                                     /*max_shift=*/16, kLockBackoffCapNs);
  while (true) {
    uint64_t observed = 0;
    const Status s = nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kLockOff,
                                      LockWord::kUnlocked, lock_word_, &observed);
    if (cfg.message_passing_commit) {
      ctx_->Charge(engine_->cost()->send_recv_ns);
    }
    if (s != Status::kConflict) {
      return s;
    }
    if (backoff.attempts() >= kLockRetries && engine_->OwnerAbsent(ctx_, observed)) {
      return Status::kTimeout;
    }
    // §5.2: a crashed owner's dangling lock is released and the CAS retried.
    if (!engine_->StealIfOwnerAbsent(ctx_, t.node, t.offset, observed)) {
      return Status::kConflict;  // a live owner
    }
    ctx_->Charge(backoff.NextDelay(&ctx_->rng));
  }
}

Status Transaction::LockTargets() {
  for (; locked_ < targets_.size(); ++locked_) {
    const LockTarget& t = targets_[locked_];
    if (const Status s = LockOne(t); s != Status::kOk) {
      return s;
    }
    if (fused_ && t.ws_index != kReadOnly) {
      commit_seq_[t.ws_index] = t.expected;  // the CAS proved this is the seq
    }
  }
  return Status::kOk;
}

void Transaction::Unlock(bool committed) {
  // Unlocks are fire-and-forget: posted CASes whose completions nobody waits
  // on (the transaction has already reported its outcome).
  sim::RdmaNic* nic = self_->nic();
  uint64_t completion = 0;
  for (size_t i = 0; i < locked_; ++i) {
    const LockTarget& t = targets_[i];
    if (!fused_) {
      (void)nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kLockOff, lock_word_,
                             LockWord::kUnlocked, nullptr, &completion);
    } else if (!committed || t.ws_index == kReadOnly) {
      // A committed fused write is unlocked by its new seq (C.5 write-back or
      // the fallback's local apply); everything else gets its seq restored.
      (void)nic->CompareSwap(ctx_, t.node, t.offset + RecordLayout::kSeqOff,
                             store::SeqWord::WithLock(t.expected), t.expected, nullptr,
                             &completion);
    }
  }
  locked_ = 0;
}

Status Transaction::Validate(bool local) {
  // Two-verb C.2 (remote records) and the fallback's check of local ones:
  // every read-set entry still carries its observed incarnation and seq, and
  // every written record is committable (Table 4), its current seq becoming
  // the base for the increments. A lock held by another transaction fails
  // the check even at an unchanged seq: its committer may not have written
  // the record back yet. Our own C.1 and fallback locks pass. Remote
  // metadata READs are posted back-to-back (their latencies overlap) and one
  // fence awaits the batch.
  struct Pending {
    const AccessEntry* entry;
    size_t ws_index;
    TxnEngine::RecordMeta meta;
  };
  std::vector<Pending> pending;
  for (const AccessEntry& e : read_set_) {
    if (IsLocal(e.node) == local) {
      pending.push_back(Pending{&e, kReadOnly, {}});
    }
  }
  for (size_t i = 0; i < write_set_.size(); ++i) {
    if (IsLocal(write_set_[i].access.node) == local) {
      pending.push_back(Pending{&write_set_[i].access, i, {}});
    }
  }
  uint64_t completion = 0;
  for (Pending& p : pending) {
    if (local) {
      engine_->ReadMetaLocal(ctx_, *p.entry, &p.meta);
    } else if (const Status s = engine_->ReadMetaRemote(ctx_, *p.entry, &p.meta, &completion);
               s != Status::kOk) {
      return s;
    }
  }
  if (!local && !pending.empty()) {
    self_->nic()->Fence(ctx_, completion, engine_->cost()->rdma_read_ns);
    if (engine_->config().message_passing_commit) {
      ctx_->Charge(engine_->cost()->send_recv_ns * pending.size());
    }
  }
  for (const Pending& p : pending) {
    if ((LockWord::IsLocked(p.meta.lock) && p.meta.lock != lock_word_) ||
        p.meta.inc != p.entry->incarnation) {
      return Status::kConflict;
    }
    if (p.ws_index == kReadOnly) {
      if (!rules_.ReadValid(p.entry->seq, p.meta.seq)) {
        return Status::kConflict;
      }
    } else {
      if (!rules_.WriteValid(p.meta.seq)) {
        return Status::kConflict;
      }
      commit_seq_[p.ws_index] = p.meta.seq;
    }
  }
  return Status::kOk;
}

Status Transaction::HtmValidateAndApply() {
  const TxnConfig& cfg = engine_->config();
  // Pre-size image_ to the largest local record so BuildImage's assign()
  // never allocates inside the HTM region below — on real RTM a malloc inside
  // XBEGIN..XEND is a guaranteed abort (drtmr-htm-region-purity).
  uint64_t max_record_bytes = 0;
  for (const WriteEntry& w : write_set_) {
    if (IsLocal(w.access.node) && w.access.table->record_bytes() > max_record_bytes) {
      max_record_bytes = w.access.table->record_bytes();
    }
  }
  image_.reserve(max_record_bytes);
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
    uint64_t held_word = 0;  // a lock word found held on a local record
    uint64_t held_off = 0;

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
        held_word = meta[0];
        held_off = e.offset;
        conflict = true;
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
          // began (§4.4 C.4's "additional check").
          held_word = meta[0];
          held_off = w.access.offset;
          conflict = true;
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
        BuildImage(w, new_seq);
        // Write everything after the lock+incarnation words: seq, key,
        // payload, and per-line versions.
        if (htm->Write(w.access.offset + RecordLayout::kSeqOff,
                       image_.data() + RecordLayout::kSeqOff,
                       image_.size() - RecordLayout::kSeqOff) != Status::kOk) {
          htm_failed = true;
          break;
        }
        // §6.4: pointer-swap tables shrink the HTM write cost to one line.
        if (w.access.table->ptr_swap()) {
          ctx_->Charge(engine_->cost()->line_access_ns);
        } else {
          ctx_->Charge(engine_->cost()->CopyNs(image_.size()));
        }
      }
    }

    if (conflict) {
      htm->Abort();
      // A lock whose owner is gone is released outside the region (§5.2),
      // and the region retried.
      if (engine_->StealIfOwnerAbsent(ctx_, ctx_->node_id, held_off, held_word)) {
        continue;
      }
      return Status::kConflict;
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
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    const uint64_t predicted = rules_.RemoteCommitSeq(rules_.Committable(w.access.seq));
    BuildImage(w, predicted);
    const Status s = rep->StageUpdate(ctx_, txn_id_, w.access.node, w.access.table->id(),
                                      w.access.key, w.access.offset, image_.data(),
                                      image_.size());
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
  Status worst = Status::kOk;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    const uint64_t final_seq = rules_.RemoteCommitSeq(commit_seq_[i]);
    if (staged_seq_[i] == final_seq) {
      continue;  // the early slot already carries the committed image
    }
    BuildImage(w, final_seq);
    const Status s =
        staged_seq_[i] == kNotStaged
            ? rep->StageUpdate(ctx_, txn_id_, w.access.node, w.access.table->id(),
                               w.access.key, w.access.offset, image_.data(), image_.size())
            : rep->SupersedeUpdate(ctx_, txn_id_, w.access.node, w.access.table->id(),
                                   w.access.key, w.access.offset, image_.data(), image_.size());
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
  uint64_t completion = 0;
  bool any = false;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (IsLocal(w.access.node)) {
      continue;
    }
    const uint64_t final_seq = rules_.RemoteCommitSeq(commit_seq_[i]);
    BuildImage(w, final_seq);
    // Posted write-back, outcome ignored: an epoch install never refuses a
    // member mid-stamp, so a refusal means this issuer was fenced out or the
    // target is dead. Either way the node was removed from the view, and
    // recovery replays the logged image (patching the primary, or re-hosting
    // the dead target's records).
    (void)self_->nic()->Write(ctx_, w.access.node, w.access.offset + RecordLayout::kSeqOff,
                              image_.data() + RecordLayout::kSeqOff,
                              image_.size() - RecordLayout::kSeqOff, &completion);
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
  if (engine_->fencing() && !engine_->membership()->LeaseAndEpochValid(
                                 ctx_->node_id, ctx_->clock.now_ns(), begin_epoch_)) {
    return AbortWith(Status::kStaleEpoch);
  }
  for (const AccessEntry& e : read_set_) {
    TxnEngine::RecordMeta meta;
    if (IsLocal(e.node)) {
      engine_->ReadMetaLocal(ctx_, e, &meta);
    } else {
      if (const Status s = engine_->ReadMetaRemote(ctx_, e, &meta); s != Status::kOk) {
        return AbortWith(s);
      }
    }
    // A held lock fails validation even at an unchanged seq: its committer
    // may have written back some of our reads and not yet this one.
    if (LockWord::IsLocked(meta.lock)) {
      engine_->StealIfOwnerAbsent(ctx_, e.node, e.offset, meta.lock);
      return AbortWith(Status::kConflict);
    }
    if (meta.inc != e.incarnation || !rules_.ReadValid(e.seq, meta.seq)) {
      return AbortWith(Status::kConflict);
    }
  }
  engine_->stats().IncCommit();
  return Status::kOk;
}

void Transaction::ApplyLocalWrites() {
  // Every local record is locked, and local readers honor the lock (Fig. 5),
  // so the buffered writes land without HTM. The image's new seq also clears
  // a fused lock bit.
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteEntry& w = write_set_[i];
    if (!IsLocal(w.access.node)) {
      continue;
    }
    BuildImage(w, rules_.LocalCommitSeq(commit_seq_[i]));
    self_->bus()->Write(ctx_, w.access.offset + RecordLayout::kSeqOff,
                        image_.data() + RecordLayout::kSeqOff,
                        image_.size() - RecordLayout::kSeqOff);
  }
}

Status Transaction::CommitReadWrite() {
  // Fencing admission (DESIGN.md §10): a degraded node, an expiring lease, or
  // a moved epoch all mean this node may no longer act as a primary — abort
  // before taking any lock.
  if (Fenced()) {
    return AbortWith(Status::kStaleEpoch);
  }
  commit_seq_.assign(write_set_.size(), 0);
  staged_seq_.assign(write_set_.size(), kNotStaged);
  rep_staged_ = false;
  targets_.clear();
  LockGuard guard{this};

  // C.1: lock the remote records (sorted, deduplicated). A fused CAS also
  // validates, and the whole step is attributed to kLock.
  AddTargets(/*local=*/false);
  Status s;
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kLock);
    s = LockTargets();
  }
  if (s != Status::kOk) {
    return AbortWith(s, Step::kLock);
  }

  // R.1 issued early: stage speculative log slots onto the doorbell chains
  // now, so the log writes overlap C.2–C.4 instead of serializing after them.
  if (engine_->config().replication) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kReplication);
    StageReplicationEarly();
  }

  // C.2: validate the remote read set (and remote write committability),
  // unless the fused CAS already did.
  if (!fused_) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kValidation);
    s = Validate(/*local=*/false);
  }
  if (s != Status::kOk) {
    return AbortWith(s);
  }

  // Fencing re-check before entering HTM: C.1/C.2 verbs may have stalled
  // across a fault window, during which the epoch can have moved.
  if (Fenced()) {
    return AbortWith(Status::kStaleEpoch);
  }

  // C.3 + C.4 inside one HTM region.
  {
    obs::PhaseTimer timer(ctx_, obs::Phase::kHtmCommit);
    s = HtmValidateAndApply();
  }
  if (s == Status::kAborted) {
    // §6.1 fallback, timed as one opaque phase: HTM made no progress. The C.1
    // locks stay held, so the remote records stay validated; lock the local
    // records too, through loopback RDMA CAS (§6.2) with the same strategy,
    // validate them, and apply without HTM. Locking is no-wait, so the order
    // cannot deadlock and the paper's release-and-relock is unnecessary.
    obs::PhaseTimer timer(ctx_, obs::Phase::kFallback);
    engine_->stats().IncFallback();
    AddTargets(/*local=*/true);
    s = LockTargets();
    if (s != Status::kOk) {
      return AbortWith(s, Step::kLock);
    }
    if (!fused_) {
      s = Validate(/*local=*/true);
    }
    if (s != Status::kOk) {
      return AbortWith(s);
    }
    // No HTM region for an epoch stamp to doom: check it under the locks.
    if (Fenced()) {
      return AbortWith(Status::kStaleEpoch);
    }
    ApplyLocalWrites();
  } else if (s != Status::kOk) {
    return AbortWith(s);
  }

  // R.1 decision + R.2 (replication).
  if (engine_->config().replication) {
    obs::PhaseTimer timer(ctx_, obs::Phase::kReplication);
    s = FinishReplication();
    if (s != Status::kOk) {
      if (engine_->fencing()) {
        // Fenced mid-replication: this primary may be cut off and about to be
        // re-hosted from its backups — reporting commit here would lose the
        // update. Abort instead; the local records stay odd (uncommittable)
        // until recovery reconciles them (DESIGN.md §10).
        return AbortWith(Status::kStaleEpoch);
      }
      DRTMR_LOG(Warning) << "replication failed: " << StatusString(s);
    }
    MakeupLocal();
  }
  // C.5: write back remote records; a fused write's new seq also unlocks it.
  obs::PhaseTimer wb_timer(ctx_, obs::Phase::kWriteBack);
  (void)WriteBackRemote();  // past the commit point: recovery patches misses

  // Apply queued inserts/removes (validated transaction; see DESIGN.md on
  // phantom handling).
  for (MutationEntry& m : mutations_) {
    (void)engine_->Mutate(ctx_, m);  // past the commit point: idempotent
  }

  // Transaction reports committed before unlocking (Fig. 7).
  engine_->stats().IncCommit();

  // C.6: unlock.
  Unlock(/*committed=*/true);
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
    rec.reads.push_back({e.table->id(), e.key, rules_.Committable(e.seq)});
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

}  // namespace drtmr::txn
