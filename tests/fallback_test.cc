// Tests of the fallback handler (§6.1-6.2): with the HTM retry threshold
// forced to zero, every read-write commit takes the fallback path — keep the
// C.1 locks, lock the local records via loopback RDMA CAS, validate, apply
// without HTM, unlock. The entire protocol must still be serializable, on
// either lock strategy (lock-word CAS, or the §4.4 fused seq CAS).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "src/rep/primary_backup.h"
#include "src/sim/fault.h"
#include "src/store/record.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"
#include "src/util/test_seed.h"
#include "tests/lock_state.h"

namespace drtmr::txn {
namespace {

struct Cell {
  int64_t value;
  uint64_t pad[6];
};

// Replication on or off under one lock strategy. Printed as the replication
// flag alone, so test names end in /false or /true; the instantiation prefix
// names the strategy.
struct FallbackParam {
  bool replication;
  bool fused_seq_lock;
};
void PrintTo(const FallbackParam& p, std::ostream* os) { *os << std::boolalpha << p.replication; }

class FallbackTest : public ::testing::TestWithParam<FallbackParam> {
 protected:
  FallbackTest() {
    cfg_.num_nodes = 3;
    cfg_.workers_per_node = 4;
    cfg_.memory_bytes = 16 << 20;
    cfg_.log_bytes = 2 << 20;
    if (Fused()) {
      cfg_.atomicity = sim::AtomicityLevel::kGlob;
    }
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    store::TableOptions opt;
    opt.value_size = sizeof(Cell);
    opt.hash_buckets = 256;
    table_ = catalog_->CreateTable(1, opt);
    coordinator_ = std::make_unique<cluster::Coordinator>();
    for (uint32_t i = 0; i < 3; ++i) {
      coordinator_->Join(i, 0, ~0ull >> 2);
    }
    const bool replication = Replication();
    if (replication) {
      rep::RepConfig rcfg;
      rcfg.replicas = 3;
      replicator_ = std::make_unique<rep::PrimaryBackupReplicator>(cluster_.get(), rcfg);
    }
    TxnConfig tcfg;
    tcfg.htm_retry_threshold = 0;  // force the fallback handler on every commit
    tcfg.replication = replication;
    tcfg.fused_seq_lock = Fused();
    engine_ = std::make_unique<TxnEngine>(cluster_.get(), catalog_.get(), tcfg,
                                          coordinator_.get(), replicator_.get());
    engine_->StartServices();
    for (uint64_t k = 1; k <= 24; ++k) {
      Cell c{100, {}};
      const uint32_t node = HomeOf(k);
      EXPECT_EQ(table_->hash(node)->Insert(cluster_->node(node)->context(0), k, &c, nullptr),
                Status::kOk);
      if (replicator_ != nullptr) {
        const uint64_t off = table_->hash(node)->Lookup(nullptr, k);
        std::vector<std::byte> img(table_->record_bytes());
        cluster_->node(node)->bus()->Read(nullptr, off, img.data(), img.size());
        for (uint32_t r = 1; r < 3; ++r) {
          replicator_->SeedBackup(cluster_->BackupOf(node, r), 1, node, k, img.data(),
                                  img.size());
        }
      }
    }
  }

  ~FallbackTest() override { engine_->StopServices(); }

  uint32_t HomeOf(uint64_t k) const { return static_cast<uint32_t>(k % 3); }
  static bool Replication() { return GetParam().replication; }
  static bool Fused() { return GetParam().fused_seq_lock; }
  static std::vector<uint64_t> AllKeys() {
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; k <= 24; ++k) {
      keys.push_back(k);
    }
    return keys;
  }

  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  store::Table* table_ = nullptr;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<rep::PrimaryBackupReplicator> replicator_;
  std::unique_ptr<TxnEngine> engine_;
};

TEST_P(FallbackTest, SingleCommitTakesFallbackAndApplies) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  while (true) {
    txn.Begin();
    Cell a{};
    ASSERT_EQ(txn.Read(table_, 0, 3, &a), Status::kOk);
    a.value = 777;
    ASSERT_EQ(txn.Write(table_, 0, 3, &a), Status::kOk);
    if (txn.Commit() == Status::kOk) {
      break;
    }
  }
  EXPECT_GE(engine_->stats().fallbacks.load(), 1u);

  // The record is unlocked and committable afterwards.
  ExpectNoLocksHeld(cluster_.get(), table_, {3});
  const uint64_t off = table_->hash(0)->Lookup(nullptr, 3);
  if (Replication()) {
    // Seq parity (even = committable) only exists under optimistic replication.
    EXPECT_EQ(cluster_->node(0)->bus()->ReadU64(nullptr, off + store::RecordLayout::kSeqOff) % 2,
              0u);
  }
  Cell out{};
  std::vector<std::byte> rec(table_->record_bytes());
  cluster_->node(0)->bus()->Read(nullptr, off, rec.data(), rec.size());
  store::RecordLayout::GatherValue(rec.data(), &out, sizeof(out));
  EXPECT_EQ(out.value, 777);
}

TEST_P(FallbackTest, ConcurrentFallbackTransfersConserveMoney) {
  SCOPED_TRACE(::testing::Message() << "DRTMR_TEST_SEED=" << util::TestSeed());
  std::vector<std::thread> threads;
  for (uint32_t n = 0; n < 3; ++n) {
    for (uint32_t w = 0; w < 2; ++w) {
      threads.emplace_back([&, n, w] {
        sim::ThreadContext* ctx = cluster_->node(n)->context(w);
        Transaction txn(engine_.get(), ctx);
        FastRand rng(util::DeriveSeed(n * 7 + w + 1));
        for (int i = 0; i < 100; ++i) {
          const uint64_t from = rng.Range(1, 24);
          uint64_t to = rng.Range(1, 24);
          if (to == from) {
            to = from % 24 + 1;
          }
          while (true) {
            txn.Begin();
            Cell a{}, b{};
            if (txn.Read(table_, HomeOf(from), from, &a) != Status::kOk ||
                txn.Read(table_, HomeOf(to), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            a.value -= 1;
            b.value += 1;
            if (txn.Write(table_, HomeOf(from), from, &a) != Status::kOk ||
                txn.Write(table_, HomeOf(to), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            if (txn.Commit() == Status::kOk) {
              break;
            }
          }
        }
      });
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GT(engine_->stats().fallbacks.load(), 0u);

  int64_t total = 0;
  for (uint64_t k = 1; k <= 24; ++k) {
    const uint32_t node = HomeOf(k);
    const uint64_t off = table_->hash(node)->Lookup(nullptr, k);
    std::vector<std::byte> rec(table_->record_bytes());
    cluster_->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
    Cell c{};
    store::RecordLayout::GatherValue(rec.data(), &c, sizeof(c));
    total += c.value;
    if (Replication()) {
      EXPECT_EQ(store::RecordLayout::GetSeq(rec.data()) % 2, 0u) << "uncommittable key " << k;
    }
  }
  EXPECT_EQ(total, 24 * 100);
  ExpectNoLocksHeld(cluster_.get(), table_, AllKeys());
}

TEST_P(FallbackTest, FallbackAndFastPathInterleave) {
  SCOPED_TRACE(::testing::Message() << "DRTMR_TEST_SEED=" << util::TestSeed());
  // A second engine over the same tables uses the normal threshold: fallback
  // committers (locking) and HTM committers must cooperate via the Fig. 5
  // lock check.
  TxnConfig fast_cfg;
  fast_cfg.replication = Replication();
  fast_cfg.fused_seq_lock = Fused();
  TxnEngine fast_engine(cluster_.get(), catalog_.get(), fast_cfg, coordinator_.get(),
                        replicator_.get());
  std::atomic<bool> stop{false};
  std::thread fallback_thread([&] {
    sim::ThreadContext* ctx = cluster_->node(0)->context(0);
    Transaction txn(engine_.get(), ctx);
    FastRand rng(util::DeriveSeed(3));
    while (!stop.load()) {
      const uint64_t k = rng.Range(1, 24);
      txn.Begin();
      Cell c{};
      if (txn.Read(table_, HomeOf(k), k, &c) != Status::kOk) {
        txn.UserAbort();
        continue;
      }
      (void)txn.Write(table_, HomeOf(k), k, &c);
      (void)txn.Commit();  // contended mix: aborts are expected
    }
  });
  sim::ThreadContext* ctx = cluster_->node(0)->context(1);
  Transaction txn(&fast_engine, ctx);
  FastRand rng(util::DeriveSeed(4));
  for (int i = 0; i < 200; ++i) {
    const uint64_t k = rng.Range(1, 24);
    txn.Begin();
    Cell c{};
    if (txn.Read(table_, HomeOf(k), k, &c) != Status::kOk) {
      txn.UserAbort();
      continue;
    }
    (void)txn.Write(table_, HomeOf(k), k, &c);
    (void)txn.Commit();  // contended mix: aborts are expected
  }
  stop.store(true);
  fallback_thread.join();
  ExpectNoLocksHeld(cluster_.get(), table_, AllKeys());
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutReplication, FallbackTest,
                         ::testing::Values(FallbackParam{false, false}, FallbackParam{true, false}));
INSTANTIATE_TEST_SUITE_P(FusedWithAndWithoutReplication, FallbackTest,
                         ::testing::Values(FallbackParam{false, true}, FallbackParam{true, true}));

// Fused-lock transactions conflicting with HTM transactions on the same cache
// line (§4.4 meets §6.1): under fused seq locking the fallback committer's
// lock IS the seq word's top bit, i.e. it lives on the very line the HTM fast
// path reads for validation and writes for the seq bump. A FaultPlan forces
// every HTM commit inside a virtual-time window to abort, so early commits
// take the fused fallback while workers whose clocks have left the window
// commit via HTM — and because virtual clocks are per-thread, both kinds run
// against the same records at the same real time.
class FusedInterleaveTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 8;  // high contention: every txn collides
  static constexpr int64_t kInitial = 500;

  FusedInterleaveTest() {
    cfg_.num_nodes = 3;
    cfg_.workers_per_node = 4;
    cfg_.memory_bytes = 16 << 20;
    cfg_.log_bytes = 2 << 20;
    cfg_.atomicity = sim::AtomicityLevel::kGlob;  // required for fusing
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    store::TableOptions opt;
    opt.value_size = sizeof(Cell);
    opt.hash_buckets = 256;
    table_ = catalog_->CreateTable(1, opt);
    coordinator_ = std::make_unique<cluster::Coordinator>();
    for (uint32_t i = 0; i < 3; ++i) {
      coordinator_->Join(i, 0, ~0ull >> 2);
    }
    TxnConfig tcfg;
    tcfg.fused_seq_lock = true;
    engine_ = std::make_unique<TxnEngine>(cluster_.get(), catalog_.get(), tcfg,
                                          coordinator_.get(), nullptr);
    engine_->StartServices();
    for (uint64_t k = 1; k <= kKeys; ++k) {
      Cell c{kInitial, {}};
      const uint32_t node = HomeOf(k);
      EXPECT_EQ(table_->hash(node)->Insert(cluster_->node(node)->context(0), k, &c, nullptr),
                Status::kOk);
    }
  }

  ~FusedInterleaveTest() override { engine_->StopServices(); }

  uint32_t HomeOf(uint64_t k) const { return static_cast<uint32_t>(k % 3); }

  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  store::Table* table_ = nullptr;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<TxnEngine> engine_;
};

TEST_F(FusedInterleaveTest, FusedFallbackAndHtmCommitsShareCacheLines) {
  // Every HTM commit region entered before 60us of virtual time aborts with a
  // conflict code; after that the fast path works again. Each worker crosses
  // the boundary at its own pace.
  sim::FaultPlan plan(util::DeriveSeed(9));
  plan.ForceHtmAbort(obs::HtmSite::kCommit,
                     static_cast<uint32_t>(sim::HtmTxn::AbortCode::kConflict),
                     sim::FaultPlan::kPpmAlways, {0, 60'000});
  cluster_->SetFaultPlan(&plan);

  constexpr int kTxnsPerWorker = 150;
  std::vector<std::thread> threads;
  for (uint32_t n = 0; n < 3; ++n) {
    for (uint32_t w = 0; w < 2; ++w) {
      threads.emplace_back([&, n, w] {
        sim::ThreadContext* ctx = cluster_->node(n)->context(w);
        Transaction txn(engine_.get(), ctx);
        FastRand rng(util::DeriveSeed(9 * 31 + n * 7 + w + 1));
        for (int i = 0; i < kTxnsPerWorker; ++i) {
          const uint64_t from = rng.Range(1, kKeys);
          uint64_t to = rng.Range(1, kKeys);
          if (to == from) {
            to = from % kKeys + 1;
          }
          while (true) {
            txn.Begin();
            Cell a{}, b{};
            if (txn.Read(table_, HomeOf(from), from, &a) != Status::kOk ||
                txn.Read(table_, HomeOf(to), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            a.value -= 1;
            b.value += 1;
            if (txn.Write(table_, HomeOf(from), from, &a) != Status::kOk ||
                txn.Write(table_, HomeOf(to), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            if (txn.Commit() == Status::kOk) {
              break;
            }
          }
        }
      });
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  cluster_->SetFaultPlan(nullptr);  // plan leaves scope before the engine does

  // Both commit flavors ran: the window forces the early commits through the
  // fused fallback, and it is short enough that most commits use HTM.
  const uint64_t fallbacks = engine_->stats().fallbacks.load();
  const uint64_t commits = engine_->stats().commits.load();
  EXPECT_EQ(commits, 6u * kTxnsPerWorker);
  EXPECT_GT(fallbacks, 0u) << "the forced-abort window never drove the fused fallback";
  EXPECT_LT(fallbacks, commits) << "no commit ever took the HTM fast path";

  // Conservation plus clean lock state: no fused lock bit left set, no lock
  // word leaked, and every seq is even (committable).
  int64_t total = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    const uint32_t node = HomeOf(k);
    const uint64_t off = table_->hash(node)->Lookup(nullptr, k);
    std::vector<std::byte> rec(table_->record_bytes());
    cluster_->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
    Cell c{};
    store::RecordLayout::GatherValue(rec.data(), &c, sizeof(c));
    total += c.value;
    ExpectUnlocked(cluster_->node(node)->bus(), off, k);
    EXPECT_TRUE(store::RecordLayout::VersionsConsistent(rec.data(), sizeof(Cell)))
        << "torn record on key " << k;
  }
  EXPECT_EQ(total, static_cast<int64_t>(kKeys) * kInitial)
      << "money leaked across fused/HTM interleavings (DRTMR_TEST_SEED=" << util::TestSeed()
      << ")";
}

}  // namespace
}  // namespace drtmr::txn
