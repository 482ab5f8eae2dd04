#include "src/rep/recovery.h"

#include <vector>

#include "src/chk/protocol_analyzer.h"
#include "src/store/record.h"
#include "src/util/logging.h"

namespace drtmr::rep {

using store::LockWord;
using store::RecordLayout;

RecoveryReport RecoveryManager::RecoverAfterFailure(sim::ThreadContext* ctx, uint32_t dead,
                                                    uint32_t host,
                                                    cluster::PartitionMap* pmap) {
  RecoveryReport report;
  cluster::Cluster* cluster = engine_->cluster();

  // 1) The configuration no longer contains the dead machine (the lease
  //    reconfiguration already ran, or we enforce it here).
  if (coordinator_->view().Contains(dead)) {
    coordinator_->Remove(dead);
  }
  const cluster::ClusterView view = coordinator_->view();
  DRTMR_CHECK(view.Contains(host)) << "recovery host " << host << " is not a member";

  // 2) Drain pending log slots on every other machine, members or not: NVM
  //    outlives reachability, and after overlapping removals a non-member
  //    may hold a partition's only backups (DESIGN.md §10). Slots written by
  //    the dead machine before it failed are durable in NVM and must be
  //    applied (the transaction reached its commit point once R.1 completed).
  const uint64_t applied_before = replicator_->entries_applied();
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    if (n == dead) {
      continue;
    }
    replicator_->DrainNode(ctx, n);
    // The dead writer can leave a torn slot at the tail of its ring (it died
    // mid-write). The drain stopped there; the entry never completed R.1, so
    // its transaction never committed — discard the tail rather than leaving
    // the ring wedged on it.
    report.torn_tail_truncated += replicator_->TruncateTornTail(ctx, n, dead);
  }
  report.log_entries_drained = replicator_->entries_applied() - applied_before;

  // 3) Re-host the dead machine's records on `host` from the freshest backup
  //    copy across survivors, and patch surviving primaries whose write-back
  //    (C.5) the dead writer never completed.
  store::Catalog* catalog = engine_->catalog();
  sim::ThreadContext* host_ctx = cluster->node(host)->tool_context();
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    if (n == dead) {
      continue;
    }
    // Snapshot, not ForEach: the patch path below spins on record locks, and
    // a lock owner may itself be blocked in BackupStore::Apply (R.1 local
    // append) waiting for the store mutex ForEach would hold.
    for (const auto& [k, image] : replicator_->backup_store(n)->Snapshot()) {
      store::Table* table = catalog->table(k.table);
      if (table == nullptr || table->kind() != store::StoreKind::kHash) {
        continue;
      }
      if (k.primary == dead) {
        // Revive on the host node under the same key. InsertImage keeps the
        // freshest seq if several backups hold copies.
        const Status s = table->hash(host)->InsertImage(host_ctx, k.key, image.data(),
                                                        image.size());
        if (s == Status::kOk) {
          report.records_rehosted++;
        }
        // Restore the replication invariant under the record's new name: the
        // host is now the primary, so its backup ring must hold the image as
        // {table, host, key}. Without this, a record never rewritten after the
        // re-host has backups only under the old primary, and a later failure
        // of the host would strand it (cascaded failover loses data). Apply is
        // freshest-wins, so duplicate copies and races with live writers that
        // replicate a newer image under the host's name are both harmless.
        const uint32_t replicas = replicator_->config().replicas;
        for (uint32_t r = 1; r < replicas; ++r) {
          replicator_->SeedBackup(cluster->BackupOf(host, r), k.table, host, k.key,
                                  image.data(), image.size());
        }
        continue;
      }
      if (!view.Contains(k.primary)) {
        continue;  // an earlier victim: its own recovery re-hosted the record
      }
      // Patch a surviving primary that missed its write-back: the log holds a
      // newer image than the record (writer crashed between R.1 and C.5).
      const uint64_t off = table->hash(k.primary)->Lookup(nullptr, k.key);
      if (off == store::HashStore::kNoRecord) {
        continue;
      }
      sim::MemoryBus* bus = cluster->node(k.primary)->bus();
      const uint64_t cur_seq = bus->ReadU64(ctx, off + RecordLayout::kSeqOff);
      const uint64_t log_seq = RecordLayout::GetSeq(image.data());
      if (log_seq <= cur_seq) {
        continue;
      }
      // Take the record's lock (or steal it from an owner outside the view,
      // re-read per spin) so live transactions keep away while we splice the
      // image in. The lock word names (host, 63), so pin the actor.
      const uint64_t rec_lock = LockWord::Make(host, 63);
      chk::ScopedActor actor(host, 63);
      while (true) {
        uint64_t obs = 0;
        if (bus->CasU64(ctx, off + RecordLayout::kLockOff, LockWord::kUnlocked, rec_lock, &obs)) {
          break;
        }
        if (!coordinator_->view().Contains(LockWord::OwnerNode(obs))) {
          if (chk::AnalyzerEnabled()) {
            chk::ProtocolAnalyzer::Global().NoteDanglingSteal(bus, off, obs);
          }
          if (bus->CasU64(ctx, off + RecordLayout::kLockOff, obs, rec_lock, &obs)) {
            break;
          }
        }
        std::this_thread::yield();
      }
      // Re-validate under the lock: a live transaction may have committed a
      // newer version between the unlocked seq probe and the CAS — splicing
      // the log image over it would be a lost update.
      if (RecordLayout::GetSeq(image.data()) > bus->ReadU64(ctx, off + RecordLayout::kSeqOff)) {
        bus->Write(ctx, off + RecordLayout::kSeqOff, image.data() + RecordLayout::kSeqOff,
                   image.size() - RecordLayout::kSeqOff);
        report.primaries_patched++;
      }
      uint64_t obs = 0;
      bus->CasU64(ctx, off + RecordLayout::kLockOff, rec_lock, LockWord::kUnlocked, &obs);
    }
  }

  // 4) Route the dead machine's partitions to the host, stamped with the
  //    configuration epoch that removed the dead machine. A concurrent
  //    migration cutover with a newer epoch wins the monotone CAS.
  if (pmap != nullptr) {
    (void)pmap->Apply(pmap->MovesOff(dead, host), coordinator_->epoch());
  }
  return report;
}

}  // namespace drtmr::rep
