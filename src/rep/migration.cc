#include "src/rep/migration.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/store/record.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace drtmr::rep {

using store::LockWord;
using store::RecordLayout;
using store::SeqWord;

namespace {

// Transport-retry budget per copy READ (RdmaNic::ReadTimeout).
constexpr uint64_t kCopyReadTimeoutNs = 20'000;
// Consistency retries per record before a pass skips it (the next pass
// re-covers it; the final pass fails the migration instead of skipping).
constexpr uint32_t kCopyRetries = 32;
// Bulk passes before cutting over regardless of delta size.
constexpr uint32_t kMaxBulkPasses = 8;
// Delta (records refreshed in a pass) below which the pump cuts over.
constexpr uint64_t kCutoverDelta = 64;

}  // namespace

MigrationManager::MigrationManager(txn::TxnEngine* engine, PrimaryBackupReplicator* replicator,
                                   cluster::Coordinator* coordinator,
                                   cluster::PartitionMap* pmap, MigrationSpec spec)
    : engine_(engine),
      replicator_(replicator),
      coordinator_(coordinator),
      pmap_(pmap),
      spec_(std::move(spec)) {
  DRTMR_CHECK(spec_.partition_of != nullptr);
  cluster::Cluster* cluster = engine_->cluster();
  ctx_.reserve(cluster->num_nodes());
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    // Same context *slot* as the tool context so HTM descriptor indexing
    // stays in range, but a private ThreadContext object: clock and RNG are
    // not shared with recovery. HTM use through this context (InsertImage)
    // is serialized against recovery's by the table's mutate_mu_.
    ctx_.push_back(std::make_unique<sim::ThreadContext>(
        n, cluster->node(n)->num_slots() - 1, spec_.seed * 7919 + n + 1));
  }
  block_.partition_of = spec_.partition_of;
  engine_->set_migration_block(&block_);
}

sim::ThreadContext* MigrationManager::ctx_of(uint32_t node) { return ctx_[node].get(); }

std::vector<std::pair<uint32_t, uint32_t>> MigrationManager::PlanRebalance(
    const cluster::PartitionMap& pmap, uint32_t active_nodes) {
  std::vector<std::pair<uint32_t, uint32_t>> moves;
  DRTMR_CHECK(active_nodes > 0);
  for (uint32_t p = 0; p < pmap.num_partitions(); ++p) {
    const uint32_t want = p % active_nodes;
    if (pmap.node_of(p) != want) {
      moves.emplace_back(p, want);
    }
  }
  return moves;
}

bool MigrationManager::DrainInflightCommits() {
  cluster::Cluster* cluster = engine_->cluster();
  // Real-time bail: commits run in real time, so a drain that does not
  // converge within this budget means the cluster is wedged (e.g. every
  // worker frozen by a fault window) and the migration should roll back
  // rather than hang the control thread forever.
  // drtmr-lint: allow(wallclock): wedge watchdog on real threads; never feeds protocol state
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (uint32_t i = 0; i < cluster->num_nodes(); ++i) {
    while (cluster->node(i)->inflight_commits() != 0) {
      // drtmr-lint: allow(wallclock): wedge watchdog on real threads; never feeds protocol state
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::yield();
    }
  }
  return true;
}

uint64_t MigrationManager::WorkerFrontierNs() {
  cluster::Cluster* cluster = engine_->cluster();
  uint64_t frontier = 0;
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    const uint64_t now = cluster->node(n)->context(0)->clock.now_ns();
    frontier = now > frontier ? now : frontier;
  }
  return frontier;
}

void MigrationManager::PaceToWorkers(sim::ThreadContext* ctx) {
  // The booking horizon of the shared NIC timelines (SimResource) assumes
  // clock skew stays small; keep the pump's lead at a quarter of it.
  constexpr uint64_t kMaxLeadNs = 500'000;
  // Real time after which an unmoving frontier means "no workers running".
  constexpr auto kStale = std::chrono::milliseconds(5);
  const auto observe = [&] {
    const uint64_t f = WorkerFrontierNs();
    if (f > pace_frontier_ns_) {
      pace_frontier_ns_ = f;
      // drtmr-lint: allow(wallclock): staleness stamp detects stopped workers, not protocol time
      pace_moved_at_ = std::chrono::steady_clock::now();
    }
  };
  observe();
  while (ctx->clock.now_ns() > pace_frontier_ns_ + kMaxLeadNs &&
         // drtmr-lint: allow(wallclock): staleness window vs. real stopped workers
         std::chrono::steady_clock::now() - pace_moved_at_ < kStale) {
    std::this_thread::yield();
    observe();
  }
}

void MigrationManager::StampMembers(uint64_t epoch) {
  cluster::Cluster* cluster = engine_->cluster();
  if (!cluster->fabric()->epoch_fencing()) {
    return;
  }
  // Same mechanism as the membership driver: monotone raise by direct bus
  // CAS (control-plane write — reaches every member and dooms HTM regions
  // that read the word). The manager stamps itself rather than waiting on
  // the membership driver thread, so a frozen driver cannot stall cutover.
  for (uint32_t m : coordinator_->view().members) {
    sim::MemoryBus* bus = cluster->node(m)->bus();
    while (true) {
      const uint64_t cur = bus->ReadU64(nullptr, sim::Fabric::kEpochWordOff);
      if (cur >= epoch) {
        break;
      }
      uint64_t obs = 0;
      // drtmr-lint: allow(registered-memory): control-plane epoch stamp, deliberately unpaced
      if (bus->CasU64(nullptr, sim::Fabric::kEpochWordOff, cur, epoch, &obs)) {
        break;
      }
    }
  }
}

void MigrationManager::Rollback(uint32_t partition, MigrationReport* report, Status why) {
  // Order matters: close write admission first so blocked writers stop
  // aborting, then clear the routing flag. Destination-side copies stay
  // behind as freshest-wins debris unreachable through the partition map.
  block_.Deactivate();
  pmap_->SetMigrating(partition, false);
  report->status = why;
  report->rolled_back = true;
  ++rolled_back_;
}

Status MigrationManager::CopyPass(uint32_t partition, uint32_t src, uint32_t dst,
                                  bool final_pass, uint64_t* refreshed) {
  *refreshed = 0;
  cluster::Cluster* cluster = engine_->cluster();
  sim::ThreadContext* dctx = ctx_of(dst);
  sim::RdmaNic* nic = cluster->node(dst)->nic();
  const bool rep = engine_->config().replication;

  for (store::Table* table : spec_.tables) {
    DRTMR_CHECK(table->kind() == store::StoreKind::kHash)
        << "live migration supports hash tables only";
    // Enumerate under the source store's mutation lock, then release it
    // before the remote reads — holding it across the pull would block the
    // source's live inserts for the whole pass.
    std::vector<std::pair<uint64_t, uint64_t>> keys;
    table->hash(src)->ForEachKey([&](uint64_t key, uint64_t off) {
      if (spec_.partition_of(key) == partition) {
        keys.emplace_back(key, off);
      }
    });

    const size_t rec_bytes = table->record_bytes();

    // A pulled image is clean when it can become the destination's copy:
    // consistent per-line versions, unlocked, and (under replication) an even
    // seq — a mid-commit image must never cross homes.
    const auto clean_image = [&](const std::byte* image) {
      const uint64_t seq = RecordLayout::GetSeq(image);
      return RecordLayout::ImageConsistent(image, rec_bytes) && !SeqWord::Locked(seq) &&
             !LockWord::IsLocked(RecordLayout::GetLock(image)) &&
             (!rep || (SeqWord::Value(seq) & 1ull) == 0);
    };
    // Installs a clean image on the destination unless it already holds a
    // copy at least as fresh — the per-pass refresh count is the convergence
    // signal for the delta chase.
    const auto install = [&](uint64_t key, std::byte* image) -> Status {
      const uint64_t src_seq = SeqWord::Value(RecordLayout::GetSeq(image));
      const uint64_t dst_off = table->hash(dst)->Lookup(nullptr, key);
      if (dst_off != store::HashStore::kNoRecord) {
        uint64_t dst_seq = 0;
        cluster->node(dst)->bus()->Read(nullptr, dst_off + RecordLayout::kSeqOff, &dst_seq,
                                        sizeof(dst_seq));
        if (SeqWord::Value(dst_seq) >= src_seq) {
          return Status::kOk;
        }
      }
      // Never copy the source's lock word: a committer's lock names a record
      // *on the source*; carrying it over would plant a dangling lock.
      RecordLayout::SetLock(image, LockWord::kUnlocked);
      const Status ins = table->hash(dst)->InsertImage(dctx, key, image, rec_bytes);
      if (ins == Status::kOk) {
        ++*refreshed;
      }
      return ins;
    };

    // Extent-coalesced bulk pull. The loader and allocator lay a partition's
    // records out in near-contiguous runs of registered memory, so instead of
    // one verb per record (message-rate bound — the NIC busy that congests
    // the foreground), sort the records by offset, coalesce them into large
    // extents (small gaps are read as dead bytes; bandwidth is cheap, verbs
    // are not), and pull each extent with one posted READ, fencing once per
    // window. Records whose image came back dirty (mid-commit, locked, torn)
    // fall out to the serial retry pull below.
    std::sort(keys.begin(), keys.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    constexpr uint64_t kGapSlackBytes = 1024;    // merge across holes up to this
    constexpr uint64_t kMaxExtentBytes = 65536;  // one READ's payload ceiling
    constexpr uint64_t kWindowBytes = 262144;    // fence granularity
    struct Extent {
      uint64_t off = 0;       // source offset of the extent
      uint64_t len = 0;       // bytes covered
      size_t scratch = 0;     // position in the window's scratch buffer
      size_t first_rec = 0;   // index into `keys` of the extent's first record
      size_t nrecs = 0;
    };
    std::vector<Extent> extents;
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint64_t off = keys[i].second;
      if (!extents.empty()) {
        Extent& cur = extents.back();
        const uint64_t end = cur.off + cur.len;
        if (off <= end + kGapSlackBytes && off + rec_bytes - cur.off <= kMaxExtentBytes) {
          cur.len = std::max(cur.len, off + rec_bytes - cur.off);
          cur.nrecs++;
          continue;
        }
      }
      extents.push_back(Extent{off, rec_bytes, 0, i, 1});
    }
    std::vector<std::byte> scratch;
    std::vector<std::pair<uint64_t, uint64_t>> retry;
    for (size_t e = 0; e < extents.size();) {
      PaceToWorkers(dctx);
      if (cluster->node(src)->killed() || cluster->node(dst)->killed()) {
        return Status::kUnavailable;
      }
      // One window: consecutive extents up to the fence granularity.
      size_t window_end = e;
      uint64_t window_bytes = 0;
      while (window_end < extents.size() && window_bytes < kWindowBytes) {
        extents[window_end].scratch = window_bytes;
        window_bytes += extents[window_end].len;
        window_end++;
      }
      scratch.resize(window_bytes);
      uint64_t completion = 0;
      for (size_t i = e; i < window_end; ++i) {
        const Status s = nic->Read(dctx, src, extents[i].off,
                                   scratch.data() + extents[i].scratch, extents[i].len,
                                   &completion);
        if (s != Status::kOk) {
          return s;  // source dead or unreachable — abort the migration
        }
      }
      nic->Fence(dctx, completion, cluster->cost()->rdma_read_ns);
      for (size_t i = e; i < window_end; ++i) {
        const Extent& ext = extents[i];
        for (size_t r = ext.first_rec; r < ext.first_rec + ext.nrecs; ++r) {
          const uint64_t key = keys[r].first;
          std::byte* image = scratch.data() + ext.scratch + (keys[r].second - ext.off);
          if (RecordLayout::GetKey(image) != key) {
            continue;  // slot recycled under us; the key is gone
          }
          if (!clean_image(image)) {
            retry.emplace_back(keys[r]);
            continue;
          }
          if (const Status ins = install(key, image); ins != Status::kOk) {
            return ins;
          }
        }
      }
      e = window_end;
    }

    // Serial retry pull for the dirty residue (a handful of records caught
    // mid-commit), with jittered backoff between attempts.
    std::vector<std::byte> image(rec_bytes);
    for (const auto& [key, off] : retry) {
      PaceToWorkers(dctx);
      if (cluster->node(src)->killed() || cluster->node(dst)->killed()) {
        return Status::kUnavailable;
      }
      util::Backoff backoff = util::Backoff::Exponential(200, 800, /*max_shift=*/6);
      bool clean = false;
      for (uint32_t attempt = 0; attempt <= kCopyRetries; ++attempt) {
        const Status s = nic->ReadTimeout(dctx, src, off, image.data(), rec_bytes,
                                          kCopyReadTimeoutNs);
        if (s == Status::kUnavailable) {
          return s;  // source dead or unreachable — abort the migration
        }
        if (s == Status::kOk) {
          if (RecordLayout::GetKey(image.data()) != key) {
            break;  // slot recycled under us; the key is gone
          }
          if (clean_image(image.data())) {
            clean = true;
            break;
          }
        }
        dctx->Charge(backoff.NextDelay(&dctx->rng));
      }
      if (!clean) {
        if (!final_pass) {
          continue;  // the next pass re-covers it
        }
        // Final pass with the source write-quiesced: a record that still
        // never yields a clean image is wedged (e.g. a leaked lock) — fail
        // the migration rather than cut over with a stale copy.
        return Status::kConflict;
      }
      if (RecordLayout::GetKey(image.data()) != key) {
        continue;
      }
      if (const Status ins = install(key, image.data()); ins != Status::kOk) {
        return ins;
      }
    }
  }
  return Status::kOk;
}

uint64_t MigrationManager::ReseedBackups(uint32_t partition, uint32_t dst) {
  if (replicator_ == nullptr || replicator_->config().replicas <= 1) {
    return 0;
  }
  cluster::Cluster* cluster = engine_->cluster();
  const uint32_t replicas = replicator_->config().replicas;
  uint64_t seeded = 0;
  for (store::Table* table : spec_.tables) {
    std::vector<std::pair<uint64_t, uint64_t>> keys;
    table->hash(dst)->ForEachKey([&](uint64_t key, uint64_t off) {
      if (spec_.partition_of(key) == partition) {
        keys.emplace_back(key, off);
      }
    });
    const size_t rec_bytes = table->record_bytes();
    std::vector<std::byte> image(rec_bytes);
    for (const auto& [key, off] : keys) {
      cluster->node(dst)->bus()->Read(nullptr, off, image.data(), rec_bytes);
      // The destination is the record's primary after cutover, so its backup
      // ring must hold the image under {table, dst, key} (the cascaded-
      // failover rule recovery applies when re-hosting). Apply is
      // freshest-wins, so racing with post-cutover writers is harmless; the
      // old copies under the source's name become unreferenced debris.
      for (uint32_t r = 1; r < replicas; ++r) {
        replicator_->SeedBackup(cluster->BackupOf(dst, r), table->id(), dst, key, image.data(),
                                rec_bytes);
        ++seeded;
      }
    }
  }
  return seeded;
}

MigrationReport MigrationManager::MigratePartition(uint32_t partition, uint32_t dst) {
  MigrationReport r;
  r.partition = partition;
  r.destination = dst;
  cluster::Cluster* cluster = engine_->cluster();
  DRTMR_CHECK(partition < pmap_->num_partitions() && dst < cluster->num_nodes());
  const uint32_t src = pmap_->node_of(partition);
  r.source = src;
  // Write safety depends on epoch fencing: without it, a transaction that
  // routed its writes before the flip could commit them on the old home
  // after the drain window closes. Refuse rather than migrate unsafely.
  if (!engine_->fencing() || src == dst || pmap_->migrating(partition) ||
      cluster->node(src)->killed() || cluster->node(dst)->killed()) {
    r.status = Status::kInvalid;
    return r;
  }
  ++started_;

  // Fast-forward the control clocks to the worker frontier so RDMA costs and
  // timeouts are charged at current virtual time (contexts are not gate
  // registered — migration runs in real time, like recovery).
  const uint64_t frontier = WorkerFrontierNs();
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    ctx_of(n)->clock.AdvanceTo(frontier);
  }
  const uint64_t t0 = ctx_of(dst)->clock.now_ns();

  // Phase 1: bulk copy + delta chase, source still committing.
  uint64_t refreshed = 0;
  for (uint32_t pass = 0; pass < kMaxBulkPasses; ++pass) {
    ++r.bulk_passes;
    const Status s = CopyPass(partition, src, dst, /*final_pass=*/false, &refreshed);
    r.records_copied += refreshed;
    if (s != Status::kOk) {
      Rollback(partition, &r, s);
      return r;
    }
    if (refreshed <= kCutoverDelta) {
      break;  // delta small enough to close under the drain window
    }
  }

  // Phase 2: open the drain window. New writes to the partition — on either
  // home, which matters once the map flips in phase 5 — abort with
  // kMigrating (reads keep flowing); in-flight commits drain out.
  pmap_->SetMigrating(partition, true);
  block_.Activate(partition);
  if (!DrainInflightCommits()) {
    Rollback(partition, &r, Status::kTimeout);
    return r;
  }
  if (cluster->node(src)->killed() || cluster->node(dst)->killed()) {
    Rollback(partition, &r, Status::kUnavailable);
    return r;
  }

  // Phase 3: final delta copy against the quiesced source. After this the
  // two homes agree — the dual-home window.
  const Status fin = CopyPass(partition, src, dst, /*final_pass=*/true, &refreshed);
  r.records_copied += refreshed;
  if (fin != Status::kOk) {
    Rollback(partition, &r, fin);
    return r;
  }

  // Phase 4: restore the replication invariant under the new primary's name.
  r.backups_seeded = ReseedBackups(partition, dst);

  if (hooks_.on_dual_home) {
    hooks_.on_dual_home();
  }
  if (cluster->node(src)->killed() || cluster->node(dst)->killed()) {
    Rollback(partition, &r, Status::kUnavailable);
    return r;
  }

  // Phase 5: cutover. Commit a new epoch, flip the map entry (monotone CAS —
  // losing to a newer epoch means a concurrent reconfiguration superseded
  // us), fence stragglers by stamping members, drain once more, and only
  // then close the write block: the flip-to-stamp window stays write-free.
  const uint64_t epoch = coordinator_->BumpEpoch();
  if (!pmap_->Rehost(partition, dst, epoch)) {
    Rollback(partition, &r, Status::kConflict);
    return r;
  }
  StampMembers(epoch);
  // Best-effort: pre-stamp stragglers self-fence, so non-convergence here
  // (wedged cluster) no longer endangers the committed flip.
  (void)DrainInflightCommits();
  block_.Deactivate();

  r.epoch = epoch;
  r.duration_ns = ctx_of(dst)->clock.now_ns() - t0;
  r.status = Status::kOk;
  ++committed_;
  return r;
}

}  // namespace drtmr::rep
