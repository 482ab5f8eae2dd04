#include "src/rep/primary_backup.h"

#include <cstring>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"
#include "src/store/record.h"
#include "src/util/logging.h"

namespace drtmr::rep {

PrimaryBackupReplicator::PrimaryBackupReplicator(cluster::Cluster* cluster,
                                                 const RepConfig& config)
    : cluster_(cluster), config_(config), num_nodes_(cluster->num_nodes()) {
  DRTMR_CHECK(config_.replicas >= 1 && config_.replicas <= num_nodes_);
  DRTMR_CHECK(config_.group_commit_window >= 1);
  lanes_per_node_ = cluster_->node(0)->num_slots();
  num_lanes_ = num_nodes_ * lanes_per_node_;
  stores_.reserve(num_nodes_);
  for (uint32_t i = 0; i < num_nodes_; ++i) {
    stores_.push_back(std::make_unique<BackupStore>());
  }
  lanes_.reserve(num_lanes_);
  for (uint32_t i = 0; i < num_lanes_; ++i) {
    auto lane = std::make_unique<LaneState>();
    lane->dst.resize(num_nodes_);
    lanes_.push_back(std::move(lane));
  }
  consumed_ = std::vector<std::atomic<uint64_t>>(num_nodes_ * num_lanes_);
  pump_mu_ = std::unique_ptr<Spinlock[]>(new Spinlock[num_nodes_ * num_lanes_]);
  const RingGeometry g = Ring(0);
  DRTMR_CHECK(g.nslots >= 16) << "log area too small: " << g.nslots << " slots per ring";
}

RingGeometry PrimaryBackupReplicator::Ring(uint32_t lane) const {
  const cluster::Node* n0 = const_cast<cluster::Cluster*>(cluster_)->node(0);
  return RingGeometry::For(n0->log_begin(), n0->log_size(), num_lanes_, lane,
                           config_.max_record_bytes);
}

Status PrimaryBackupReplicator::PushSlot(sim::ThreadContext* ctx, LaneState& lane, uint32_t dst,
                                         uint64_t index, const void* slot, size_t slot_len) {
  const RingGeometry ring = Ring(LaneOf(ctx));
  DstState& ds = lane.dst[dst];
  const Status s = cluster_->node(ctx->node_id)
                       ->nic()
                       ->ChainAppend(ctx, &ds.chain, dst, ring.slot_offset(index), slot, slot_len);
  if (s != Status::kOk) {
    // Dead backup (kUnavailable) or fenced issuer (kStaleEpoch): the verb did
    // not land, but once an index is reserved the slot MUST be written — a
    // hole would stall the consumer forever and deadlock the lane once the
    // ring fills. Write it through the bus (the simulated NVM exists
    // in-process even for an unreachable machine; a dead machine's consumer
    // never runs, so the content is only read by recovery).
    if (s != Status::kUnavailable && s != Status::kStaleEpoch) {
      DRTMR_LOG(Error) << "log chain append failed (src=" << ctx->node_id << " dst=" << dst
                       << " index=" << index << " status=" << StatusString(s)
                       << "); writing slot through the bus to keep the ring continuous";
    }
    // drtmr-lint: allow(registered-memory): ring-continuity write when the verb path is refused (see above)
    cluster_->node(dst)->bus()->Write(nullptr, ring.slot_offset(index), slot, slot_len);
    cluster_->node(dst)->nic()->service_doorbell()->Ring();
    return s;
  }
  log_writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::kOk;
}

void PrimaryBackupReplicator::PublishWatermark(sim::ThreadContext* ctx, LaneState& lane,
                                               uint32_t dst) {
  const RingGeometry ring = Ring(LaneOf(ctx));
  DstState& ds = lane.dst[dst];
  const uint64_t wm = ds.watermark;
  const Status s =
      cluster_->node(ctx->node_id)
          ->nic()
          ->ChainAppend(ctx, &ds.chain, dst, ring.watermark_offset(), &wm, sizeof(wm));
  if (s != Status::kOk) {
    // Same continuity argument as PushSlot: the decided frontier must reach
    // the ring even when the verb path is refused, or recovery would roll
    // back transactions this lane already reported committed.
    // drtmr-lint: allow(registered-memory): decided frontier must land even on a refused verb
    cluster_->node(dst)->bus()->WriteU64(nullptr, ring.watermark_offset(), wm);
    cluster_->node(dst)->nic()->service_doorbell()->Ring();
  }
}

Status PrimaryBackupReplicator::StageSlotTo(sim::ThreadContext* ctx, LaneState& lane,
                                            uint32_t dst, uint64_t txn_id, uint32_t primary,
                                            uint32_t table_id, uint64_t key,
                                            uint64_t record_offset, const std::byte* image,
                                            size_t image_len, uint64_t* index_out) {
  const uint32_t src = ctx->node_id;
  const RingGeometry ring = Ring(LaneOf(ctx));
  DstState& ds = lane.dst[dst];
  const uint64_t index = ds.next++;
  *index_out = index;
  // The consumer cannot pass this lane's watermark, and the watermark only
  // moves at the decision — so a single transaction staging more slots to
  // one backup than the ring can hold would deadlock against itself.
  DRTMR_CHECK(index - ds.watermark < ring.nslots - 8)
      << "transaction write set exceeds the log ring (" << ring.nslots
      << " slots): shrink the write set or grow log_bytes";

  // Build the slot first: once an index is reserved the slot MUST be
  // written. flags carries kSlotCommitted optimistically — the slot stays
  // invisible to the pump until the watermark passes it, and an abort
  // rewrites the header as a tombstone before the watermark moves.
  std::vector<std::byte> slot(sizeof(LogSlotHeader) + image_len);
  LogSlotHeader hdr;
  hdr.stamp = index + 1;
  hdr.txn_id = txn_id;
  hdr.key = key;
  hdr.record_off = record_offset;
  hdr.table_id = table_id;
  hdr.primary = primary;
  hdr.image_len = static_cast<uint32_t>(image_len);
  hdr.flags = kSlotCommitted;
  hdr.pad = 0;
  hdr.check = FoldLogSlotHeader(hdr);
  std::memcpy(slot.data(), &hdr, sizeof(hdr));
  std::memcpy(slot.data() + sizeof(hdr), image, image_len);

  // Flow control: never lap the consumer.
  uint64_t spins = 0;
  while (index - ds.consumed_seen >= ring.nslots - 8) {
    uint64_t consumed = 0;
    const Status s = cluster_->node(src)->nic()->Read(ctx, dst, ring.header_offset(), &consumed,
                                                      sizeof(consumed));
    if (s != Status::kOk) {
      break;  // dead backup: its consumer never runs; fall through to PushSlot
    }
    // The consumer cannot pass this writer's own reserved-but-unwritten
    // slot, so any read above `index` is provably garbage (e.g. a torn read
    // of a header that violates the line-atomicity contract). Latching it
    // into the monotonic consumed_seen would over-admit a whole lap and
    // jam the ring; clamp instead of trusting it.
    if (consumed > index) {
      consumed = index;
    }
    if (consumed > ds.consumed_seen) {
      ds.consumed_seen = consumed;
    }
    if (index - ds.consumed_seen < ring.nslots - 8) {
      break;
    }
    // The paper dedicates auxiliary cores to log truncation (§7.1); on an
    // oversubscribed host the consumer may be starved in real time, so the
    // stalled writer pumps its own ring on the destination (single-consumer
    // is enforced by the ring's pump lock).
    (void)PumpRing(ctx, dst, LaneOf(ctx), /*budget=*/256, /*wait=*/false);
    if (++spins == 1000000) {
      DRTMR_LOG(Warning) << "slow log consumer: lane=" << LaneOf(ctx) << " dst=" << dst
                         << " index=" << index << " consumed=" << ds.consumed_seen;
    }
    std::this_thread::yield();
  }

  const Status s = PushSlot(ctx, lane, dst, index, slot.data(), slot.size());
  if (s == Status::kOk) {
    obs::Count(obs::Counter::kRepLogEntries);
    obs::Count(obs::Counter::kRepLogBytes, slot.size());
  }
  return s;
}

Status PrimaryBackupReplicator::StageUpdate(sim::ThreadContext* ctx, uint64_t txn_id,
                                            uint32_t primary, uint32_t table_id, uint64_t key,
                                            uint64_t record_offset, const std::byte* image,
                                            size_t image_len) {
  DRTMR_CHECK(image_len + sizeof(LogSlotHeader) <=
              AlignUpToLine(sizeof(LogSlotHeader) + config_.max_record_bytes))
      << "record too large for the log slot size";
  const uint32_t src = ctx->node_id;
  LaneState& lane = Lane(ctx);
  Status worst = Status::kOk;

  for (uint32_t r = 1; r < config_.replicas; ++r) {
    const uint32_t dst = cluster_->BackupOf(primary, r);
    if (dst == primary) {
      continue;  // tiny clusters: placement wrapped onto the primary
    }
    StagedSlot staged;
    staged.dst = dst;
    staged.index = 0;
    staged.txn_id = txn_id;
    staged.key = key;
    staged.record_off = record_offset;
    staged.table_id = table_id;
    staged.primary = primary;
    staged.image_len = static_cast<uint32_t>(image_len);
    if (dst == src) {
      // This machine is itself a backup of `primary`: the log write is a
      // local NVM append. The apply is deferred to the commit decision — the
      // slot is speculative, and a backup copy must never hold an undecided
      // image.
      staged.local_image.assign(image, image + image_len);
      ctx->Charge(cluster_->cost()->CopyNs(image_len));
    } else {
      const Status s = StageSlotTo(ctx, lane, dst, txn_id, primary, table_id, key, record_offset,
                                   image, image_len, &staged.index);
      if (s != Status::kOk) {
        worst = s;
      }
    }
    lane.staged.push_back(std::move(staged));
  }
  if (config_.test.watermark_at_stage) {
    // Teeth override: expose the speculative slots immediately (the decision
    // has not happened). The pump will replay them even if the transaction
    // aborts — exactly the bug the battery's checkers must catch.
    for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
      DstState& ds = lane.dst[dst];
      if (ds.watermark != ds.next) {
        ds.watermark = ds.next;
        PublishWatermark(ctx, lane, dst);
      }
    }
  }
  return worst;
}

void PrimaryBackupReplicator::TombstoneSlot(sim::ThreadContext* ctx, LaneState& lane,
                                            const StagedSlot& s) {
  // Header-only rewrite: the image bytes stay in place (they are never read
  // through a tombstone), so retiring a slot costs one 56-byte chained WQE.
  LogSlotHeader hdr;
  hdr.stamp = s.index + 1;
  hdr.txn_id = s.txn_id;
  hdr.key = s.key;
  hdr.record_off = s.record_off;
  hdr.table_id = s.table_id;
  hdr.primary = s.primary;
  hdr.image_len = s.image_len;
  hdr.flags = kSlotTombstone;
  hdr.pad = 0;
  hdr.check = FoldLogSlotHeader(hdr);
  (void)PushSlot(ctx, lane, s.dst, s.index, &hdr, sizeof(hdr));
}

Status PrimaryBackupReplicator::SupersedeUpdate(sim::ThreadContext* ctx, uint64_t txn_id,
                                                uint32_t primary, uint32_t table_id, uint64_t key,
                                                uint64_t record_offset, const std::byte* image,
                                                size_t image_len) {
  LaneState& lane = Lane(ctx);
  Status worst = Status::kOk;
  bool found = false;
  for (StagedSlot& s : lane.staged) {
    if (s.primary != primary || s.table_id != table_id || s.key != key) {
      continue;
    }
    found = true;
    obs::Count(obs::Counter::kRepSlotsSuperseded);
    if (s.dst == ctx->node_id) {
      // Deferred local apply: just swap the buffered image.
      s.image_len = static_cast<uint32_t>(image_len);
      s.local_image.assign(image, image + image_len);
      ctx->Charge(cluster_->cost()->CopyNs(image_len));
      continue;
    }
    // Remote slot: retire the mispredicted one and restage a corrected copy
    // to the same replica, updating the staged record in place so a later
    // abort tombstones the new index, not the already-retired one.
    TombstoneSlot(ctx, lane, s);
    s.image_len = static_cast<uint32_t>(image_len);
    const Status ps = StageSlotTo(ctx, lane, s.dst, txn_id, primary, table_id, key, record_offset,
                                  image, image_len, &s.index);
    if (ps != Status::kOk) {
      worst = ps;
    }
  }
  if (!found) {
    // Never staged (e.g. the early pass skipped it): stage late.
    return StageUpdate(ctx, txn_id, primary, table_id, key, record_offset, image, image_len);
  }
  return worst;
}

Status PrimaryBackupReplicator::CommitTxnLog(sim::ThreadContext* ctx, uint64_t txn_id) {
  LaneState& lane = Lane(ctx);
  if (lane.staged.empty()) {
    return Status::kOk;  // nothing replicated: no log, no fence debt
  }
  const uint32_t src = ctx->node_id;
  bool touched[/*max nodes*/ 64] = {};
  DRTMR_CHECK(num_nodes_ <= 64);
  for (StagedSlot& s : lane.staged) {
    if (s.dst == src) {
      // Deferred local NVM append becomes durable at the decision.
      stores_[src]->Apply(s.table_id, s.primary, s.key, s.local_image.data(), s.image_len);
      entries_applied_.fetch_add(1, std::memory_order_relaxed);
      obs::Count(obs::Counter::kRepLogEntries);
      obs::Count(obs::Counter::kRepLogBytes, sizeof(LogSlotHeader) + s.image_len);
    } else {
      touched[s.dst] = true;
    }
  }
  for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
    if (!touched[dst]) {
      continue;
    }
    DstState& ds = lane.dst[dst];
    // All slots between the old watermark and `next` were staged by this
    // transaction (earlier transactions' decisions already advanced the
    // watermark to their frontier), so the decision is one 8-byte append.
    ds.watermark = ds.next;
    PublishWatermark(ctx, lane, dst);
  }
  lane.staged.clear();
  CloseDecision(ctx, lane);
  return Status::kOk;
}

void PrimaryBackupReplicator::AbortTxnLog(sim::ThreadContext* ctx, uint64_t txn_id) {
  LaneState& lane = Lane(ctx);
  if (lane.staged.empty()) {
    return;  // most aborts never reached the staging point
  }
  const uint32_t src = ctx->node_id;
  bool touched[64] = {};
  DRTMR_CHECK(num_nodes_ <= 64);
  for (const StagedSlot& s : lane.staged) {
    obs::Count(obs::Counter::kRepSlotsRetired);
    if (s.dst == src) {
      continue;  // buffered local apply: dropping the buffer is the rollback
    }
    TombstoneSlot(ctx, lane, s);
    touched[s.dst] = true;
  }
  for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
    if (!touched[dst]) {
      continue;
    }
    DstState& ds = lane.dst[dst];
    // Advance the watermark past the tombstones: the consumer must be able to
    // consume (and skip) them, or an abort storm would jam the ring.
    ds.watermark = ds.next;
    PublishWatermark(ctx, lane, dst);
  }
  lane.staged.clear();
  CloseDecision(ctx, lane);
}

void PrimaryBackupReplicator::CloseDecision(sim::ThreadContext* ctx, LaneState& lane) {
  if (lane.window_txns == 0) {
    lane.window_open_ns = ctx->clock.now_ns();
  }
  lane.window_txns++;
  if (lane.window_txns >= config_.group_commit_window ||
      ctx->clock.now_ns() - lane.window_open_ns >= config_.group_commit_max_open_ns) {
    FlushWindow(ctx, lane);
  }
}

void PrimaryBackupReplicator::FlushWindow(sim::ThreadContext* ctx, LaneState& lane) {
  sim::RdmaNic* nic = cluster_->node(ctx->node_id)->nic();
  for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
    nic->ChainRing(ctx, &lane.dst[dst].chain, &lane.completion_ns);
  }
  // One durability fence for every decision in the window (R.1's "wait for
  // the NIC ack" amortized across the group).
  nic->Fence(ctx, lane.completion_ns, cluster_->cost()->rdma_write_ns);
  obs::Count(obs::Counter::kRepWindowFlushes);
  obs::Count(obs::Counter::kRepWindowTxns, lane.window_txns);
  lane.window_txns = 0;
  lane.completion_ns = 0;
}

void PrimaryBackupReplicator::FlushLog(sim::ThreadContext* ctx) {
  LaneState& lane = Lane(ctx);
  bool open_chain = false;
  for (const DstState& ds : lane.dst) {
    open_chain |= ds.chain.open();
  }
  if (lane.window_txns > 0 || open_chain) {
    FlushWindow(ctx, lane);
  }
}

void PrimaryBackupReplicator::EndTransaction(sim::ThreadContext* ctx, uint64_t txn_id) {
  // Truncation is continuous (consumption); the explicit end marker of the
  // paper maps to the consumed-counter advancing past the txn's slots.
}

bool PrimaryBackupReplicator::PumpRing(sim::ThreadContext* ctx, uint32_t node, uint32_t lane,
                                       uint64_t budget, bool wait) {
  Spinlock& mu = pump_mu_[node * num_lanes_ + lane];
  if (wait) {
    mu.lock();
  } else if (!mu.try_lock()) {
    // Another consumer (service thread, stalled writer or recovery) is on
    // this ring. It may have read the watermark before the latest append, so
    // the ring counts as pending work, not idle.
    return true;
  }
  const std::lock_guard<Spinlock> g(mu, std::adopt_lock);
  const RingGeometry ring = Ring(lane);
  sim::MemoryBus* bus = cluster_->node(node)->bus();
  std::atomic<uint64_t>& consumed = consumed_[node * num_lanes_ + lane];
  // The decided frontier: slots at or beyond it are speculative (their
  // transactions have not decided) and must not be applied or consumed.
  const uint64_t decided = bus->ReadU64(ctx, ring.watermark_offset());
  const uint64_t watermark = config_.test.pump_ignores_watermark ? UINT64_MAX : decided;
  std::vector<std::byte> slot(ring.slot_bytes);
  bool progressed = false;
  for (uint64_t i = 0; i < budget; ++i) {
    const uint64_t index = consumed.load(std::memory_order_relaxed);
    if (index >= watermark) {
      break;  // speculative tail: wait for the writer's decision
    }
    LogSlotHeader hdr;
    bus->Read(ctx, ring.slot_offset(index), &hdr, sizeof(hdr));
    if (hdr.stamp != index + 1 || !LogSlotHeaderIntact(hdr)) {
      if (hdr.stamp > index + 1 && index < decided) {
        // Overrun: while this machine was unreachable its consumer could not
        // run, and writers — whose flow-control reads of the consumed counter
        // failed — kept appending through the NVM write-through path and
        // lapped the ring. The decided content that used to sit here is
        // already physically overwritten, so this backup missed that update
        // (its transaction was told kUnavailable); freshest-wins Apply and
        // seq-based recovery reconcile the staleness. Below the watermark a
        // stamp can never be *behind* (slot writes precede the watermark that
        // covers them, failed verbs fall back to the bus), so a stamp from a
        // later lap is provably an overrun — consume the position rather than
        // wedging the lane forever on a stamp that can never match.
        ring_overruns_.fetch_add(1, std::memory_order_relaxed);
        consumed.store(index + 1, std::memory_order_relaxed);
        progressed = true;
        continue;
      }
      break;  // slot not (fully) written yet — stamp lands before the rest
    }
    DRTMR_CHECK(hdr.image_len <= ring.slot_bytes - sizeof(LogSlotHeader));
    if ((hdr.flags & kSlotTombstone) != 0 && !config_.test.pump_applies_tombstones) {
      // Retired slot (aborted or superseded): consume without applying.
      consumed.store(index + 1, std::memory_order_relaxed);
      progressed = true;
      continue;
    }
    bus->Read(ctx, ring.slot_offset(index) + sizeof(LogSlotHeader), slot.data(), hdr.image_len);
    if (!store::RecordLayout::ImageConsistent(slot.data(), hdr.image_len)) {
      // Torn slot: the writer died mid-write and the payload lines disagree
      // with the header's seqnum. The transaction behind it never reached its
      // commit point, so the entry must not be applied — and the entries
      // behind it must not be skipped past it either (log order is the
      // roll-forward order). Stop here; recovery truncates at the tear.
      torn_slots_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    stores_[node]->Apply(hdr.table_id, hdr.primary, hdr.key, slot.data(), hdr.image_len);
    entries_applied_.fetch_add(1, std::memory_order_relaxed);
    consumed.store(index + 1, std::memory_order_relaxed);
    progressed = true;
  }
  if (progressed) {
    // Publish truncation progress for writer flow control.
    bus->WriteU64(ctx, ring.header_offset(), consumed.load(std::memory_order_relaxed));
  }
  return progressed;
}

bool PrimaryBackupReplicator::Pump(sim::ThreadContext* ctx) {
  const uint32_t node = ctx->node_id;
  bool busy = false;
  for (uint32_t lane = 0; lane < num_lanes_; ++lane) {
    if (lane / lanes_per_node_ == node) {
      continue;  // own lanes never log to this node remotely
    }
    busy |= PumpRing(ctx, node, lane, /*budget=*/64, /*wait=*/false);
  }
  return busy;
}

void PrimaryBackupReplicator::DrainNode(sim::ThreadContext* ctx, uint32_t node) {
  // Bounded at two ring laps, not "until empty": consumption is FIFO, so the
  // first nslots consumed slots necessarily include everything present when
  // the drain started — an unbounded loop could chase live writers that keep
  // appending at the consumption rate and never terminate.
  const uint64_t budget = 2 * Ring(0).nslots;
  for (uint32_t lane = 0; lane < num_lanes_; ++lane) {
    if (lane / lanes_per_node_ == node) {
      continue;
    }
    (void)PumpRing(ctx, node, lane, budget, /*wait=*/true);
  }
}

uint64_t PrimaryBackupReplicator::TruncateTornTail(sim::ThreadContext* ctx, uint32_t node,
                                                   uint32_t writer) {
  uint64_t dropped = 0;
  for (uint32_t lane = writer * lanes_per_node_; lane < (writer + 1) * lanes_per_node_; ++lane) {
    Spinlock& mu = pump_mu_[node * num_lanes_ + lane];
    const std::lock_guard<Spinlock> g(mu);
    const RingGeometry ring = Ring(lane);
    sim::MemoryBus* bus = cluster_->node(node)->bus();
    std::atomic<uint64_t>& consumed = consumed_[node * num_lanes_ + lane];
    const uint64_t watermark = bus->ReadU64(ctx, ring.watermark_offset());
    std::vector<std::byte> slot(ring.slot_bytes);
    uint64_t lane_dropped = 0;
    while (true) {
      const uint64_t index = consumed.load(std::memory_order_relaxed);
      LogSlotHeader hdr;
      bus->Read(ctx, ring.slot_offset(index), &hdr, sizeof(hdr));
      if (hdr.stamp != index + 1 ||
          hdr.image_len > ring.slot_bytes - sizeof(LogSlotHeader)) {
        break;  // empty tail (or garbage header): nothing more to discard
      }
      if (index >= watermark) {
        // Speculative slot of a dead lane: its transaction never decided, so
        // discarding is the roll-back the protocol requires (§5.2). The
        // watermark word landed after the slots it covers (FIFO per chain),
        // so everything beyond it is provably undecided.
        consumed.store(index + 1, std::memory_order_relaxed);
        ++lane_dropped;
        continue;
      }
      if (!LogSlotHeaderIntact(hdr)) {
        // The writer died mid-header: stamp landed, the rest did not. Same
        // torn-tail case as a torn image, detected one step earlier.
        consumed.store(index + 1, std::memory_order_relaxed);
        ++lane_dropped;
        continue;
      }
      bus->Read(ctx, ring.slot_offset(index) + sizeof(LogSlotHeader), slot.data(), hdr.image_len);
      if (store::RecordLayout::ImageConsistent(slot.data(), hdr.image_len)) {
        break;  // a complete decided entry: leave it for the normal pump
      }
      consumed.store(index + 1, std::memory_order_relaxed);
      ++lane_dropped;
    }
    if (lane_dropped > 0) {
      bus->WriteU64(ctx, ring.header_offset(), consumed.load(std::memory_order_relaxed));
      dropped += lane_dropped;
    }
  }
  if (dropped > 0) {
    // Decided entries past a discarded tail are left to the service pump.
    cluster_->node(node)->nic()->service_doorbell()->Ring();
  }
  return dropped;
}

void PrimaryBackupReplicator::SeedBackup(uint32_t backup_node, uint32_t table_id, uint32_t primary,
                                         uint64_t key, const std::byte* image, size_t image_len) {
  stores_[backup_node]->Apply(table_id, primary, key, image, image_len);
}

}  // namespace drtmr::rep
