// Replication batching battery (DESIGN.md §13): properties of the
// doorbell-batched log chains, the speculative slot lifecycle
// (speculative -> committed / tombstoned -> fenced), and the per-lane
// watermark that gates the backup pump — plus teeth tests that break each
// invariant through RepConfig::TestOverrides and show the same checks the
// property tests rely on would catch the corruption.
#include "src/rep/primary_backup.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/store/record.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"

namespace drtmr::rep {
namespace {

using store::RecordLayout;

struct Cell {
  uint64_t value;
  uint64_t pad[9];  // 80 bytes: record spans 2 cache lines
};

constexpr uint32_t kTable = 1;
constexpr uint32_t kNodes = 3;
constexpr uint64_t kSeedValue = 100;

class RepBatchingTest : public ::testing::Test {
 protected:
  // Tests build the stack themselves so each can pick a RepConfig (window
  // size, teeth overrides).
  void Init(const RepConfig& rcfg) {
    cfg_.num_nodes = kNodes;
    cfg_.workers_per_node = 4;
    cfg_.memory_bytes = 16 << 20;
    cfg_.log_bytes = 4 << 20;
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    store::TableOptions opt;
    opt.value_size = sizeof(Cell);
    opt.hash_buckets = 512;
    table_ = catalog_->CreateTable(kTable, opt);

    replicator_ = std::make_unique<PrimaryBackupReplicator>(cluster_.get(), rcfg);

    coordinator_ = std::make_unique<cluster::Coordinator>();
    for (uint32_t i = 0; i < kNodes; ++i) {
      coordinator_->Join(i, 0, 1000000);
    }

    txn::TxnConfig tcfg;
    tcfg.replication = true;
    tcfg.replicas = rcfg.replicas;
    engine_ = std::make_unique<txn::TxnEngine>(cluster_.get(), catalog_.get(), tcfg,
                                               coordinator_.get(), replicator_.get());
    engine_->StartServices();

    for (uint64_t k = 1; k <= 12; ++k) {
      LoadKey(k, kSeedValue);
    }
  }

  void TearDown() override {
    if (engine_ != nullptr) {
      engine_->StopServices();
    }
    obs::Registry::Global().Enable(false);
    obs::Registry::Global().Reset();
  }

  static uint32_t HomeOf(uint64_t k) { return static_cast<uint32_t>(k % kNodes); }

  void LoadKey(uint64_t k, uint64_t value) {
    Cell c{value, {}};
    const uint32_t node = HomeOf(k);
    uint64_t off = 0;
    ASSERT_EQ(table_->hash(node)->Insert(cluster_->node(node)->context(0), k, &c, &off),
              Status::kOk);
    std::vector<std::byte> image(table_->record_bytes());
    cluster_->node(node)->bus()->Read(nullptr, off, image.data(), image.size());
    for (uint32_t r = 1; r < kNodes; ++r) {
      replicator_->SeedBackup(cluster_->BackupOf(node, r), kTable, node, k, image.data(),
                              image.size());
    }
  }

  uint64_t CommitUpdate(uint32_t from_node, uint64_t key, uint64_t value) {
    sim::ThreadContext* ctx = cluster_->node(from_node)->context(0);
    txn::Transaction t(engine_.get(), ctx);
    while (true) {
      t.Begin();
      Cell c{};
      EXPECT_EQ(t.Read(table_, HomeOf(key), key, &c), Status::kOk);
      c.value = value;
      EXPECT_EQ(t.Write(table_, HomeOf(key), key, &c), Status::kOk);
      if (t.Commit() == Status::kOk) {
        return c.value;
      }
    }
  }

  uint64_t RecordOffset(uint64_t key) {
    return table_->hash(HomeOf(key))->Lookup(nullptr, key);
  }

  uint64_t RecordSeq(uint64_t key) {
    return cluster_->node(HomeOf(key))->bus()->ReadU64(nullptr,
                                                       RecordOffset(key) + RecordLayout::kSeqOff);
  }

  // A full record image carrying `value` at `seq`, as the transaction layer
  // would stage it.
  std::vector<std::byte> MakeImage(uint64_t key, uint64_t seq, uint64_t value) {
    std::vector<std::byte> image(table_->record_bytes());
    Cell c{value, {}};
    RecordLayout::Init(image.data(), key, /*incarnation=*/1, seq, &c, sizeof(c));
    return image;
  }

  // The value a backup node holds for `key`, or ~0 if it has no copy.
  uint64_t BackupValue(uint32_t backup_node, uint64_t key) {
    std::vector<std::byte> img;
    if (!replicator_->backup_store(backup_node)->Get(kTable, HomeOf(key), key, &img) ||
        img.size() < table_->record_bytes()) {
      return ~0ull;
    }
    Cell c{};
    RecordLayout::GatherValue(img.data(), &c, sizeof(c));
    return c.value;
  }

  // The invariant every property test (and recovery) leans on: a backup copy
  // only ever holds the image of a *decided, committed* transaction. The
  // teeth tests below run the same check and expect it to fail.
  ::testing::AssertionResult BackupHoldsCommittedValue(uint32_t backup_node, uint64_t key,
                                                       uint64_t committed) {
    const uint64_t got = BackupValue(backup_node, key);
    if (got == committed) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "backup " << backup_node << " holds " << got << " for key " << key
           << ", committed value is " << committed
           << " (an undecided or aborted image leaked past the watermark)";
  }

  LogSlotHeader SlotHeader(uint32_t node, uint32_t lane, uint64_t index) {
    const RingGeometry ring = replicator_->Ring(lane);
    LogSlotHeader hdr;
    cluster_->node(node)->bus()->Read(nullptr, ring.slot_offset(index), &hdr, sizeof(hdr));
    return hdr;
  }

  uint64_t SlotValue(uint32_t node, uint32_t lane, uint64_t index) {
    const RingGeometry ring = replicator_->Ring(lane);
    std::vector<std::byte> img(table_->record_bytes());
    cluster_->node(node)->bus()->Read(nullptr, ring.slot_offset(index) + sizeof(LogSlotHeader),
                                      img.data(), img.size());
    Cell c{};
    RecordLayout::GatherValue(img.data(), &c, sizeof(c));
    return c.value;
  }

  uint64_t Watermark(uint32_t node, uint32_t lane) {
    const RingGeometry ring = replicator_->Ring(lane);
    return cluster_->node(node)->bus()->ReadU64(nullptr, ring.watermark_offset());
  }

  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  store::Table* table_ = nullptr;
  std::unique_ptr<PrimaryBackupReplicator> replicator_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<txn::TxnEngine> engine_;
};

// ---- properties ----

// One chained submission per backup delivers slots in stage order: ring
// indices are dense, stamps/txn ids ascend, and the pump applies them in that
// order (the backup converges to the *last* committed image).
TEST_F(RepBatchingTest, ChainDeliversSlotsInOrderPerBackup) {
  Init(RepConfig{});
  // Key 3 lives on node 0; its backups are nodes 1 and 2. Committing from
  // node 1 makes node 2 the one remote ring destination for the lane.
  const uint32_t writer_lane = replicator_->LaneOf(cluster_->node(1)->context(0));
  constexpr int kUpdates = 6;
  for (int i = 0; i < kUpdates; ++i) {
    CommitUpdate(/*from_node=*/1, /*key=*/3, 1000 + i);
  }
  uint64_t prev_txn = 0;
  for (uint64_t i = 0; i < kUpdates; ++i) {
    const LogSlotHeader hdr = SlotHeader(/*node=*/2, writer_lane, i);
    ASSERT_EQ(hdr.stamp, i + 1) << "slot " << i << " out of order";
    ASSERT_TRUE(LogSlotHeaderIntact(hdr));
    EXPECT_EQ(hdr.key, 3u);
    EXPECT_EQ(hdr.flags, kSlotCommitted);
    EXPECT_GT(hdr.txn_id, prev_txn) << "txn order must follow ring order";
    prev_txn = hdr.txn_id;
    EXPECT_EQ(SlotValue(2, writer_lane, i), 1000u + i);
  }
  EXPECT_EQ(Watermark(2, writer_lane), static_cast<uint64_t>(kUpdates))
      << "every decision advances the watermark past its slots";
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, 1000 + kUpdates - 1));
}

// The watermark is the decided frontier: a staged-but-undecided slot is never
// applied by the pump, no matter how often it runs; the commit decision (one
// 8-byte chained append) makes it visible.
TEST_F(RepBatchingTest, WatermarkGatesThePumpUntilTheDecision) {
  Init(RepConfig{});
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  const uint32_t lane = replicator_->LaneOf(ctx);
  const uint64_t seq = RecordSeq(3);
  const std::vector<std::byte> img = MakeImage(3, seq + 2, 777);
  ASSERT_EQ(replicator_->StageUpdate(ctx, /*txn_id=*/4242, HomeOf(3), kTable, 3, RecordOffset(3),
                                     img.data(), img.size()),
            Status::kOk);
  EXPECT_EQ(Watermark(2, lane), 0u) << "staging must not move the decided frontier";

  const uint64_t applied_before = replicator_->entries_applied();
  for (int i = 0; i < 4; ++i) {
    replicator_->Pump(cluster_->node(2)->tool_context());
  }
  EXPECT_EQ(replicator_->entries_applied(), applied_before)
      << "pump consumed a speculative slot";
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, kSeedValue));

  ASSERT_EQ(replicator_->CommitTxnLog(ctx, 4242), Status::kOk);
  replicator_->FlushLog(ctx);
  EXPECT_EQ(Watermark(2, lane), 1u);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, 777));
}

// An abort retires its speculative slots as tombstones: the pump consumes
// them without applying, the ring does not jam, and recovery (truncation +
// drain) never replays them.
TEST_F(RepBatchingTest, AbortedSlotsAreRetiredNotReplayed) {
  Init(RepConfig{});
  obs::Registry::Global().Enable(true);
  obs::Registry::Global().Reset();
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  const uint32_t lane = replicator_->LaneOf(ctx);
  const uint64_t seq = RecordSeq(3);
  const std::vector<std::byte> img = MakeImage(3, seq + 2, 777);
  ASSERT_EQ(replicator_->StageUpdate(ctx, 7001, HomeOf(3), kTable, 3, RecordOffset(3), img.data(),
                                     img.size()),
            Status::kOk);
  replicator_->AbortTxnLog(ctx, 7001);
  replicator_->FlushLog(ctx);

  EXPECT_EQ(SlotHeader(2, lane, 0).flags, kSlotTombstone);
  EXPECT_EQ(Watermark(2, lane), 1u) << "tombstones must stay consumable or aborts jam the ring";
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(1, 3, kSeedValue));
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, kSeedValue));
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_GE(snap.counter(obs::Counter::kRepSlotsRetired), 2u) << "one per backup copy";

  // The ring keeps flowing after the abort...
  CommitUpdate(0, 3, 500);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, 500));

  // ...and a speculative slot left by a *dead* writer is discarded by
  // recovery truncation, not replayed.
  const std::vector<std::byte> poison = MakeImage(3, RecordSeq(3) + 2, 666);
  ASSERT_EQ(replicator_->StageUpdate(ctx, 7002, HomeOf(3), kTable, 3, RecordOffset(3),
                                     poison.data(), poison.size()),
            Status::kOk);
  cluster_->Kill(0);
  EXPECT_GE(replicator_->TruncateTornTail(cluster_->node(2)->tool_context(), 2, /*writer=*/0), 1u);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, 500));
}

// End-to-end: early staging at lock-acquire time means a transaction that
// fails validation *after* locking has speculative slots in flight; the abort
// path must retire every one of them and leave the backups untouched.
TEST_F(RepBatchingTest, ValidationAbortAfterEarlyStagingLeavesBackupsClean) {
  Init(RepConfig{});
  obs::Registry::Global().Enable(true);
  obs::Registry::Global().Reset();
  // Force key 6 (node 0) uncommittable: writers lock it, then validation
  // fails — after StageReplicationEarly already ran.
  const uint64_t off = RecordOffset(6);
  sim::MemoryBus* bus = cluster_->node(0)->bus();
  const uint64_t seq = bus->ReadU64(nullptr, off + RecordLayout::kSeqOff);
  bus->WriteU64(nullptr, off + RecordLayout::kSeqOff, seq + 1);

  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  txn::Transaction t(engine_.get(), ctx);
  t.Begin();
  Cell c{};
  ASSERT_EQ(t.Read(table_, 0, 6, &c), Status::kOk);
  c.value = 31337;
  ASSERT_EQ(t.Write(table_, 0, 6, &c), Status::kOk);
  EXPECT_EQ(t.Commit(), Status::kAborted);

  const obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_GE(snap.counter(obs::Counter::kRepSlotsRetired), 1u)
      << "the aborted transaction staged early and must retire its slots";
  for (uint32_t n = 0; n < kNodes; ++n) {
    replicator_->DrainNode(cluster_->node(n)->tool_context(), n);
  }
  EXPECT_TRUE(BackupHoldsCommittedValue(1, 6, kSeedValue));
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 6, kSeedValue));

  // Ring healthy afterwards: the next commit replicates normally.
  bus->WriteU64(nullptr, off + RecordLayout::kSeqOff, seq);
  CommitUpdate(1, 6, 900);
  for (uint32_t n = 0; n < kNodes; ++n) {
    replicator_->DrainNode(cluster_->node(n)->tool_context(), n);
  }
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 6, 900));
}

// A mispredicted early image (blind write) is superseded: the stale slot is
// tombstoned, the corrected one restaged, and only the corrected image
// reaches the backup.
TEST_F(RepBatchingTest, SupersedeReplacesMispredictedImage) {
  Init(RepConfig{});
  obs::Registry::Global().Enable(true);
  obs::Registry::Global().Reset();
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  const uint32_t lane = replicator_->LaneOf(ctx);
  const uint64_t seq = RecordSeq(3);
  const std::vector<std::byte> wrong = MakeImage(3, seq + 2, 111);
  const std::vector<std::byte> right = MakeImage(3, seq + 2, 222);
  ASSERT_EQ(replicator_->StageUpdate(ctx, 9001, HomeOf(3), kTable, 3, RecordOffset(3),
                                     wrong.data(), wrong.size()),
            Status::kOk);
  ASSERT_EQ(replicator_->SupersedeUpdate(ctx, 9001, HomeOf(3), kTable, 3, RecordOffset(3),
                                         right.data(), right.size()),
            Status::kOk);
  ASSERT_EQ(replicator_->CommitTxnLog(ctx, 9001), Status::kOk);
  replicator_->FlushLog(ctx);

  EXPECT_EQ(SlotHeader(2, lane, 0).flags, kSlotTombstone) << "mispredicted slot retired";
  EXPECT_EQ(SlotHeader(2, lane, 1).flags, kSlotCommitted) << "corrected slot committed";
  EXPECT_EQ(Watermark(2, lane), 2u);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, 222));
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_GE(snap.counter(obs::Counter::kRepSlotsSuperseded), 1u);
}

// Group commit amortizes the wire cost: many chained WQEs ride each doorbell,
// and one durability fence covers a window of decisions.
TEST_F(RepBatchingTest, GroupCommitAmortizesDoorbellsAndFences) {
  RepConfig rcfg;
  rcfg.group_commit_window = 8;
  Init(rcfg);
  obs::Registry::Global().Enable(true);
  obs::Registry::Global().Reset();
  sim::ThreadContext* ctx = cluster_->node(1)->context(0);
  constexpr int kUpdates = 32;
  for (int i = 0; i < kUpdates; ++i) {
    CommitUpdate(/*from_node=*/1, /*key=*/3, 2000 + i);
  }
  replicator_->FlushLog(ctx);  // close the partial window

  const obs::Snapshot snap = obs::Registry::Global().Collect();
  const uint64_t doorbells = snap.counter(obs::Counter::kFabricDoorbells);
  const uint64_t verbs = snap.counter(obs::Counter::kFabricChainedVerbs);
  const uint64_t flushes = snap.counter(obs::Counter::kRepWindowFlushes);
  const uint64_t window_txns = snap.counter(obs::Counter::kRepWindowTxns);
  ASSERT_GT(doorbells, 0u);
  EXPECT_GT(verbs, doorbells) << "chains must carry multiple WQEs per doorbell";
  ASSERT_GT(flushes, 0u);
  EXPECT_GE(window_txns, static_cast<uint64_t>(kUpdates));
  EXPECT_GE(window_txns, 2 * flushes)
      << "a window of 8 must average well above one decision per fence";

  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_TRUE(BackupHoldsCommittedValue(2, 3, 2000 + kUpdates - 1));
}

// The service doorbell alone drives the backup pump: nothing below calls
// Pump or DrainNode. Under a group-commit window the decisions' watermarks
// are chain-appended (their memory effects land) long before the window's
// NIC doorbell rings at the flush, so the pump must be woken at the append.
TEST_F(RepBatchingTest, ServiceDoorbellsAloneConvergeEveryBackup) {
  RepConfig rcfg;
  rcfg.group_commit_window = 8;
  rcfg.group_commit_max_open_ns = ~0ull >> 1;  // only a full window or FlushLog flushes
  Init(rcfg);
  obs::Registry::Global().Enable(true);
  obs::Registry::Global().Reset();

  // Every backup of `key` holds the primary's current value.
  auto converged = [&](uint64_t key) {
    Cell primary{};
    std::vector<std::byte> img(table_->record_bytes());
    cluster_->node(HomeOf(key))->bus()->Read(nullptr, RecordOffset(key), img.data(), img.size());
    RecordLayout::GatherValue(img.data(), &primary, sizeof(primary));
    for (uint32_t r = 1; r < kNodes; ++r) {
      if (BackupValue(cluster_->BackupOf(HomeOf(key), r), key) != primary.value) {
        return false;
      }
    }
    return true;
  };
  auto await_convergence = [&](uint64_t first, uint64_t last) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (uint64_t k = first; k <= last; ++k) {
      while (!converged(k)) {
        if (std::chrono::steady_clock::now() >= deadline) {
          return ::testing::AssertionFailure() << "backups of key " << k << " never converged";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return ::testing::AssertionSuccess();
  };

  // Three decisions inside one open window: appended, never rung.
  for (uint64_t k = 1; k <= 3; ++k) {
    CommitUpdate(/*from_node=*/1, k, 3000 + k);
  }
  ASSERT_EQ(obs::Registry::Global().Collect().counter(obs::Counter::kRepWindowFlushes), 0u)
      << "the window must still be open for this phase to test anything";
  EXPECT_TRUE(await_convergence(1, 3));

  // Every node writes every key; windows fill and flush, FlushLog closes them.
  for (int round = 0; round < 4; ++round) {
    for (uint32_t n = 0; n < kNodes; ++n) {
      for (uint64_t k = 1; k <= 12; ++k) {
        CommitUpdate(n, k, 10000 * (round + 1) + 100 * n + k);
      }
    }
  }
  for (uint32_t n = 0; n < kNodes; ++n) {
    replicator_->FlushLog(cluster_->node(n)->context(0));
  }
  EXPECT_TRUE(await_convergence(1, 12));
}

// ---- teeth: each override breaks one lifecycle invariant, and the same
// ---- checks the property tests use must detect the corruption.

// A pump that ignores the watermark applies a speculative slot; when the
// transaction aborts, the backup permanently diverges from the primary.
TEST_F(RepBatchingTest, TeethPumpIgnoringWatermarkIsCaught) {
  RepConfig rcfg;
  rcfg.test.pump_ignores_watermark = true;
  Init(rcfg);
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  const uint64_t seq = RecordSeq(3);
  const std::vector<std::byte> img = MakeImage(3, seq + 2, 777);
  ASSERT_EQ(replicator_->StageUpdate(ctx, 4242, HomeOf(3), kTable, 3, RecordOffset(3), img.data(),
                                     img.size()),
            Status::kOk);
  replicator_->FlushLog(ctx);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  // The battery's invariant check fires: an undecided image is visible.
  EXPECT_FALSE(BackupHoldsCommittedValue(2, 3, kSeedValue))
      << "teeth override had no effect — the watermark property test is toothless";
  replicator_->AbortTxnLog(ctx, 4242);
  replicator_->FlushLog(ctx);
  EXPECT_EQ(BackupValue(2, 3), 777u) << "aborted image stuck on the backup";
}

// A pump that applies tombstones revives an aborted image — and because the
// backup store is freshest-by-seq, the *real* commit at the same seq can
// never displace it: the divergence survives to recovery.
TEST_F(RepBatchingTest, TeethPumpApplyingTombstonesIsCaught) {
  RepConfig rcfg;
  rcfg.test.pump_applies_tombstones = true;
  Init(rcfg);
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  const uint64_t seq = RecordSeq(3);
  const std::vector<std::byte> img = MakeImage(3, seq + 2, 777);
  ASSERT_EQ(replicator_->StageUpdate(ctx, 7001, HomeOf(3), kTable, 3, RecordOffset(3), img.data(),
                                     img.size()),
            Status::kOk);
  replicator_->AbortTxnLog(ctx, 7001);
  replicator_->FlushLog(ctx);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_FALSE(BackupHoldsCommittedValue(2, 3, kSeedValue))
      << "teeth override had no effect — the abort property test is toothless";

  // The legitimate commit reuses the same seq (the abort never advanced it):
  // the poisoned backup copy blocks it.
  CommitUpdate(0, 3, 500);
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_FALSE(BackupHoldsCommittedValue(2, 3, 500));
}

// Publishing the watermark at stage time makes recovery trust speculative
// slots: truncation keeps them, the drain applies them, and an in-flight
// transaction of a dead node reappears after recovery.
TEST_F(RepBatchingTest, TeethWatermarkAtStageIsCaught) {
  RepConfig rcfg;
  rcfg.test.watermark_at_stage = true;
  Init(rcfg);
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  const uint64_t seq = RecordSeq(3);
  const std::vector<std::byte> img = MakeImage(3, seq + 2, 666);
  ASSERT_EQ(replicator_->StageUpdate(ctx, 7002, HomeOf(3), kTable, 3, RecordOffset(3), img.data(),
                                     img.size()),
            Status::kOk);
  replicator_->FlushLog(ctx);
  cluster_->Kill(0);
  // Truncation should drop the speculative slot (AbortedSlotsAreRetired...
  // proves it does); under the override the slot sits below the watermark and
  // survives as "decided".
  EXPECT_EQ(replicator_->TruncateTornTail(cluster_->node(2)->tool_context(), 2, /*writer=*/0), 0u)
      << "teeth override had no effect — truncation still dropped the slot";
  replicator_->DrainNode(cluster_->node(2)->tool_context(), 2);
  EXPECT_FALSE(BackupHoldsCommittedValue(2, 3, kSeedValue))
      << "an undecided transaction of the dead node was replayed";
}

}  // namespace
}  // namespace drtmr::rep
