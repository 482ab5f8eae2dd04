#include "src/txn/txn_engine.h"

#include <cstring>
#include <thread>

#include "src/chk/protocol_analyzer.h"
#include "src/cluster/membership.h"
#include "src/store/record.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace drtmr::txn {

using store::LockWord;
using store::RecordLayout;

struct TxnEngine::RpcMsg {
  enum Op : uint32_t { kInsert = 1, kRemove = 2, kReply = 3 };
  uint32_t op;
  uint32_t table_id;
  uint32_t reply_qp;
  uint32_t status;
  uint64_t key;
  uint64_t token;
  uint32_t value_len;
  uint32_t pad;
  // followed by value_len payload bytes
};

TxnEngine::TxnEngine(cluster::Cluster* cluster, store::Catalog* catalog, const TxnConfig& config,
                     cluster::Coordinator* coordinator, Replicator* replicator)
    : cluster_(cluster),
      catalog_(catalog),
      config_(config),
      coordinator_(coordinator),
      replicator_(replicator) {
  DRTMR_CHECK(!config_.replication || replicator_ != nullptr)
      << "replication enabled without a Replicator";
  DRTMR_CHECK(!config_.fused_seq_lock ||
              cluster->fabric()->atomicity() == sim::AtomicityLevel::kGlob)
      << "fused seq locking (Â§4.4) requires IBV_ATOMIC_GLOB";
  workers_per_node_ = cluster->config().workers_per_node;
  caches_.reserve(cluster->num_nodes() * workers_per_node_);
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    for (uint32_t w = 0; w < workers_per_node_; ++w) {
      caches_.push_back(std::make_unique<store::LocationCache>());
    }
  }
}

TxnEngine::~TxnEngine() { StopServices(); }

bool TxnEngine::OwnerAbsent(const sim::ThreadContext* ctx, uint64_t lock_word) const {
  if (coordinator_ == nullptr || !LockWord::IsLocked(lock_word)) {
    return false;
  }
  const uint32_t owner = LockWord::OwnerNode(lock_word);
  if (coordinator_->view().Contains(owner)) {
    return false;
  }
  // Tombstone grace (§5.2): a lease-expired owner may still have an unlock
  // verb in flight; survivors wait out the grace window before stealing.
  return coordinator_->SafeToStealLocksOf(owner, ctx->clock.now_ns());
}

// ---------------- execution-phase reads ----------------

namespace {

// Retries of a locked local record in the execution phase before the
// seqlock fallback read path.
constexpr uint32_t kLocalReadRetries = 16;
// Spins of the seqlock fallback read before giving up with kConflict. A
// healthy committer clears the lock within a handful of spins; a lock that
// outlives this budget is leaked (its owner died or its unlock verb was lost)
// and only a configuration change can release it, so the read must abort
// rather than wait (DESIGN.md §9).
constexpr uint32_t kSeqlockReadSpins = 256;
// Max consistency retries for a remote versioned read.
constexpr uint32_t kRemoteReadRetries = 64;
// The execution-phase reads copy a record, and an ordered-store insert builds
// one, in stack buffers of this size (64 cache lines); every table in the
// repo is far smaller.
constexpr size_t kMaxReadBytes = 4096;

// Records an accepted read of `rec` (table[key] at `off` on `node`) in
// `entry`, and copies its payload out when the caller asked for it.
void FillAccess(store::Table* table, uint32_t node, uint64_t key, uint64_t off,
                const std::byte* rec, void* value_out, AccessEntry* entry) {
  entry->table = table;
  entry->node = node;
  entry->key = key;
  entry->offset = off;
  entry->seq = store::SeqWord::Value(RecordLayout::GetSeq(rec));
  entry->incarnation = RecordLayout::GetIncarnation(rec);
  if (value_out != nullptr) {
    RecordLayout::GatherValue(rec, value_out, table->value_size());
  }
}

}  // namespace

Status TxnEngine::ReadLocalRecord(sim::ThreadContext* ctx, store::Table* table, uint64_t key,
                                  void* value_out, AccessEntry* entry) {
  cluster::Node* node = cluster_->node(ctx->node_id);
  const uint64_t off = table->Lookup(ctx, ctx->node_id, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  ctx->Charge(cost()->record_logic_ns);

  const size_t rec_bytes = table->record_bytes();
  DRTMR_CHECK(rec_bytes <= kMaxReadBytes) << "record of " << rec_bytes << " B";
  alignas(8) std::byte buf[kMaxReadBytes];

  // Fig. 5: copy the record inside a small HTM region after checking that no
  // remote committer holds the lock; a locked record is about to change, so
  // abort and retry with randomized backoff rather than read a doomed value.
  for (uint32_t attempt = 0; attempt < kLocalReadRetries; ++attempt) {
    sim::HtmTxn* htm = node->htm()->Begin(ctx, obs::HtmSite::kLocalRead);
    if (htm == nullptr) {
      return Status::kInvalid;  // nested inside another HTM region
    }
    if (htm->Read(off, buf, rec_bytes) != Status::kOk) {
      continue;  // conflict abort: immediately retry
    }
    if (LockWord::IsLocked(RecordLayout::GetLock(buf)) ||
        store::SeqWord::Locked(RecordLayout::GetSeq(buf))) {
      htm->Abort();
      if (StealIfOwnerAbsent(ctx, ctx->node_id, off, RecordLayout::GetLock(buf))) {
        continue;  // passive dangling-lock release (§5.2): the owner crashed
      }
      // Linear jitter keyed to the loop's own attempt index (bit-identical to
      // the historical Range(50, 400) * (attempt + 1) charge sequence).
      ctx->Charge(util::Backoff::Linear(50, 400).DelayAt(attempt, &ctx->rng));
      // TimeGate only syncs at Begin(), so this yield is what lets a
      // descheduled lock holder run on a 1-core host.
      std::this_thread::yield();
      continue;
    }
    if (htm->Commit() != Status::kOk) {
      continue;
    }
    FillAccess(table, ctx->node_id, key, off, buf, value_out, entry);
    return Status::kOk;
  }

  // Seqlock-style fallback read: two stable snapshots with equal seq, no
  // lock and line versions that agree with the seq imply a consistent copy
  // (the HTM path had no forward progress). Equal reads alone are not enough:
  // R.2's lock-free makeup writes the line versions before the seq word. The
  // wait is bounded: a lock held past the spin budget is leaked — its owner
  // failed mid-commit or the unlock verb was lost — and waiting for it would
  // hang the reader until a configuration change releases it, so abort the
  // read and let the transaction retry instead.
  alignas(8) std::byte buf2[kMaxReadBytes];
  bool stable = false;
  for (uint32_t spin = 0; spin < kSeqlockReadSpins; ++spin) {
    node->bus()->Read(ctx, off, buf, rec_bytes);
    if (LockWord::IsLocked(RecordLayout::GetLock(buf)) ||
        store::SeqWord::Locked(RecordLayout::GetSeq(buf))) {
      if (StealIfOwnerAbsent(ctx, ctx->node_id, off, RecordLayout::GetLock(buf))) {
        continue;
      }
      std::this_thread::yield();
      continue;
    }
    node->bus()->Read(ctx, off, buf2, rec_bytes);
    if (RecordLayout::GetLock(buf2) == 0 &&
        RecordLayout::GetSeq(buf) == RecordLayout::GetSeq(buf2) &&
        std::memcmp(buf, buf2, rec_bytes) == 0 &&
        RecordLayout::VersionsConsistent(buf, table->value_size())) {
      stable = true;
      break;
    }
  }
  if (!stable) {
    return Status::kConflict;  // leaked lock or livelock: abort, do not hang
  }
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().OnSnapshotAccepted(
        node->bus(), off, RecordLayout::GetSeq(buf), RecordLayout::GetLock(buf),
        RecordLayout::VersionsConsistent(buf, table->value_size()),
        /*lock_checked=*/true);
  }
  FillAccess(table, ctx->node_id, key, off, buf, value_out, entry);
  return Status::kOk;
}

Status TxnEngine::ReadRemoteRecord(sim::ThreadContext* ctx, store::Table* table, uint32_t node,
                                   uint64_t key, void* value_out, AccessEntry* entry,
                                   bool check_lock) {
  DRTMR_CHECK(table->remote_accessible()) << "ordered tables are local-only";
  cluster::Node* self = cluster_->node(ctx->node_id);
  store::LocationCache* cache = this->cache(ctx->node_id, ctx->worker_id);

  uint64_t off = cache->Get(table->id(), node, key);
  bool from_cache = off != 0;
  if (off == 0) {
    off = table->hash(node)->RemoteLookup(ctx, self->nic(), node, key);
    if (off == 0) {
      return Status::kNotFound;
    }
    cache->Put(table->id(), node, key, off);
  }

  const size_t rec_bytes = table->record_bytes();
  DRTMR_CHECK(rec_bytes <= kMaxReadBytes) << "record of " << rec_bytes << " B";
  alignas(8) std::byte buf[kMaxReadBytes];
  for (uint32_t attempt = 0; attempt < kRemoteReadRetries; ++attempt) {
    const Status s = self->nic()->Read(ctx, node, off, buf, rec_bytes);
    if (s != Status::kOk) {
      return s;
    }
    if (RecordLayout::GetKey(buf) != key) {
      // Stale location-cache hint (record freed/reused): invalidate, re-look.
      if (!from_cache) {
        return Status::kNotFound;
      }
      cache->Invalidate(table->id(), node, key);
      off = table->hash(node)->RemoteLookup(ctx, self->nic(), node, key);
      if (off == 0) {
        return Status::kNotFound;
      }
      cache->Put(table->id(), node, key, off);
      from_cache = false;
      continue;
    }
    // Fig. 6: versions at every line must match the seqnum's low 16 bits or
    // the one-sided READ raced a multi-line write.
    if (!RecordLayout::VersionsConsistent(buf, table->value_size())) {
      continue;
    }
    // Fig. 8: read-only transactions refuse locked records (the lock means a
    // commit is in flight; an uncommitted value must not be returned).
    if (check_lock && (LockWord::IsLocked(RecordLayout::GetLock(buf)) ||
                       store::SeqWord::Locked(RecordLayout::GetSeq(buf)))) {
      StealIfOwnerAbsent(ctx, node, off, RecordLayout::GetLock(buf));
      std::this_thread::yield();
      continue;
    }
    if (chk::AnalyzerEnabled()) {
      // Re-derives the torn/locked verdicts from the accepted bytes rather
      // than trusting the checks above, so a regression there is caught here.
      chk::ProtocolAnalyzer::Global().OnSnapshotAccepted(
          cluster_->node(node)->bus(), off, RecordLayout::GetSeq(buf),
          RecordLayout::GetLock(buf),
          RecordLayout::VersionsConsistent(buf, table->value_size()), check_lock);
    }
    FillAccess(table, node, key, off, buf, value_out, entry);
    return Status::kOk;
  }
  return Status::kAborted;
}

static_assert(sizeof(TxnEngine::RecordMeta) == 24 &&
                  RecordLayout::kIncOff == RecordLayout::kLockOff + 8 &&
                  RecordLayout::kSeqOff == RecordLayout::kLockOff + 16,
              "RecordMeta mirrors the first three words of line 0");

void TxnEngine::ReadMetaLocal(sim::ThreadContext* ctx, const AccessEntry& e, RecordMeta* meta) {
  cluster_->node(ctx->node_id)
      ->bus()
      ->Read(ctx, e.offset + RecordLayout::kLockOff, meta, sizeof(*meta));
}

Status TxnEngine::ReadMetaRemote(sim::ThreadContext* ctx, const AccessEntry& e, RecordMeta* meta,
                                 uint64_t* completion_ns) {
  return cluster_->node(ctx->node_id)
      ->nic()
      ->Read(ctx, e.node, e.offset + RecordLayout::kLockOff, meta, sizeof(*meta), completion_ns);
}

bool TxnEngine::StealIfOwnerAbsent(sim::ThreadContext* ctx, uint32_t node, uint64_t offset,
                                   uint64_t lock_word) {
  if (!OwnerAbsent(ctx, lock_word)) {
    return false;
  }
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().NoteDanglingSteal(cluster_->node(node)->bus(), offset,
                                                      lock_word);
  }
  (void)cluster_->node(ctx->node_id)
      ->nic()
      ->CompareSwap(ctx, node, offset + RecordLayout::kLockOff, lock_word, LockWord::kUnlocked,
                    nullptr);
  stats_.dangling_locks_released.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---------------- insert/delete shipping ----------------

namespace {

// Virtual-time budget a mutation RPC waits for its reply before surfacing
// kTimeout: a host that is partitioned or dead but still in the installed
// view never replies, and only a configuration change will say so.
constexpr uint64_t kMutateReplyBudgetNs = 200'000;

}  // namespace

Status TxnEngine::ApplyMutation(sim::ThreadContext* ctx, MutationEntry::Op op, uint32_t table_id,
                                uint64_t key, const std::byte* value, size_t value_len) {
  store::Table* table = catalog_->table(table_id);
  DRTMR_CHECK(table != nullptr) << "unknown table " << table_id;
  cluster::Node* node = cluster_->node(ctx->node_id);
  ctx->Charge(cost()->record_logic_ns);
  if (table->kind() == store::StoreKind::kHash) {
    if (op == MutationEntry::Op::kInsert) {
      return table->hash(ctx->node_id)->Insert(ctx, key, value, nullptr);
    }
    return table->hash(ctx->node_id)->Remove(ctx, key);
  }
  // Ordered store: allocate/initialize the record, then index it.
  if (op == MutationEntry::Op::kInsert) {
    const size_t rec_bytes = table->record_bytes();
    const uint64_t off = node->allocator()->Alloc(rec_bytes);
    if (off == cluster::RegionAllocator::kInvalidOffset) {
      return Status::kCapacity;
    }
    DRTMR_CHECK(rec_bytes <= kMaxReadBytes) << "record of " << rec_bytes << " B";
    alignas(8) std::byte image[kMaxReadBytes];
    RecordLayout::Init(image, key, 2, 2, value, table->value_size());
    node->bus()->Write(ctx, off, image, rec_bytes);
    const Status s = table->btree(ctx->node_id)->Insert(ctx, key, off);
    if (s != Status::kOk) {
      node->allocator()->Free(off, rec_bytes);
    } else if (chk::AnalyzerEnabled()) {
      chk::ProtocolAnalyzer::Global().RegisterRecord(node->bus(), off, table->value_size(),
                                                     image);
    }
    return s;
  }
  const uint64_t off = table->btree(ctx->node_id)->Lookup(ctx, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  // Invalidate concurrent readers before unlinking (§4.3 incarnation rule).
  node->bus()->FetchAddU64(ctx, off + RecordLayout::kIncOff, 1);
  const Status s = table->btree(ctx->node_id)->Remove(ctx, key);
  if (s == Status::kOk) {
    if (chk::AnalyzerEnabled()) {
      chk::ProtocolAnalyzer::Global().UnregisterRecord(node->bus(), off);
    }
    node->allocator()->Free(off, table->record_bytes());
  }
  return s;
}

Status TxnEngine::Mutate(sim::ThreadContext* ctx, const MutationEntry& m) {
  if (m.node == ctx->node_id) {
    return ApplyMutation(ctx, m.op, m.table->id(), m.key, m.value.data(), m.value.size());
  }
  // Ship to the hosting machine via SEND/RECV (§4.3) and wait for the reply
  // on this worker's queue pair.
  const uint64_t token = next_rpc_token_.fetch_add(1, std::memory_order_relaxed);
  RpcMsg header;
  header.op = m.op == MutationEntry::Op::kInsert ? RpcMsg::kInsert : RpcMsg::kRemove;
  header.table_id = m.table->id();
  header.reply_qp = 1 + ctx->worker_id;
  header.status = 0;
  header.key = m.key;
  header.token = token;
  header.value_len = static_cast<uint32_t>(m.value.size());
  header.pad = 0;
  std::vector<std::byte> payload(sizeof(header) + m.value.size());
  std::memcpy(payload.data(), &header, sizeof(header));
  if (!m.value.empty()) {
    std::memcpy(payload.data() + sizeof(header), m.value.data(), m.value.size());
  }
  sim::RdmaNic* nic = cluster_->node(ctx->node_id)->nic();
  Status s = nic->Send(ctx, m.node, std::move(payload));
  if (s != Status::kOk) {
    return s;
  }
  // Poll for the matching reply; bail out once the installed view drops the
  // target machine or the virtual-time budget runs out.
  const uint64_t deadline_ns = ctx->clock.now_ns() + kMutateReplyBudgetNs;
  sim::Message reply;
  while (true) {
    if (nic->TryRecv(ctx, &reply, 1 + ctx->worker_id)) {
      RpcMsg r;
      DRTMR_CHECK(reply.payload.size() >= sizeof(r));
      std::memcpy(&r, reply.payload.data(), sizeof(r));
      if (r.token == token) {
        return static_cast<Status>(r.status);
      }
      continue;  // stale reply from an earlier timed-out RPC
    }
    if (coordinator_ != nullptr && !coordinator_->view().Contains(m.node)) {
      return Status::kUnavailable;
    }
    if (ctx->clock.now_ns() >= deadline_ns) {
      stats_.IncAbortTimeout();
      return Status::kTimeout;
    }
    ctx->Charge(cost()->line_access_ns);
    std::this_thread::yield();
  }
}

void TxnEngine::HandleRpc(sim::ThreadContext* ctx, const sim::Message& msg) {
  RpcMsg m;
  DRTMR_CHECK(msg.payload.size() >= sizeof(m));
  std::memcpy(&m, msg.payload.data(), sizeof(m));
  const std::byte* value = msg.payload.data() + sizeof(m);
  const Status s = ApplyMutation(
      ctx, m.op == RpcMsg::kInsert ? MutationEntry::Op::kInsert : MutationEntry::Op::kRemove,
      m.table_id, m.key, value, m.value_len);
  RpcMsg reply = m;
  reply.op = RpcMsg::kReply;
  reply.status = static_cast<uint32_t>(s);
  reply.value_len = 0;
  std::vector<std::byte> payload(sizeof(reply));
  std::memcpy(payload.data(), &reply, sizeof(reply));
  // A failed reply SEND means the requester died; it can never consume it.
  (void)cluster_->node(ctx->node_id)->nic()->Send(ctx, msg.src_node, std::move(payload),
                                                  m.reply_qp);
}

void TxnEngine::StartServices() {
  DRTMR_CHECK(!services_running_);
  for (uint32_t i = 0; i < cluster_->num_nodes(); ++i) {
    cluster::Node::IdleFn idle;
    if (replicator_ != nullptr) {
      Replicator* rep = replicator_;
      idle = [rep](sim::ThreadContext* ctx) { return rep->Pump(ctx); };
    }
    cluster_->node(i)->StartService(
        [this](sim::ThreadContext* ctx, const sim::Message& msg) { HandleRpc(ctx, msg); },
        std::move(idle));
  }
  services_running_ = true;
}

void TxnEngine::StopServices() {
  if (services_running_) {
    for (uint32_t i = 0; i < cluster_->num_nodes(); ++i) {
      cluster_->node(i)->StopService();
    }
    services_running_ = false;
  }
}

}  // namespace drtmr::txn
