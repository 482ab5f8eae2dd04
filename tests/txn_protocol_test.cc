// Protocol-level tests of the DrTM+R hybrid OCC: execution-phase reads,
// 6-step commit, read-only transactions, conflicts, fallback, mutations.
#include "src/txn/transaction.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/chk/history.h"
#include "src/store/record.h"
#include "src/txn/txn_engine.h"
#include "tests/lock_state.h"

namespace drtmr::txn {
namespace {

using store::LockWord;
using store::RecordLayout;

struct Account {
  uint64_t balance;
  uint64_t pad[5];
};

class TxnTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kAccounts = 1;  // table id

  TxnTest() {
    cfg_.num_nodes = 3;
    cfg_.workers_per_node = 4;
    cfg_.memory_bytes = 16 << 20;
    cfg_.log_bytes = 1 << 20;
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    store::TableOptions opt;
    opt.value_size = sizeof(Account);
    opt.kind = store::StoreKind::kHash;
    opt.hash_buckets = 1024;
    accounts_ = catalog_->CreateTable(kAccounts, opt);

    TxnConfig tcfg;
    engine_ = std::make_unique<TxnEngine>(cluster_.get(), catalog_.get(), tcfg);
    engine_->StartServices();

    // Load: accounts k=1..30, balance 1000, spread over nodes (k % 3).
    for (uint64_t k = 1; k <= 30; ++k) {
      Account a{1000, {}};
      const uint32_t node = static_cast<uint32_t>(k % 3);
      EXPECT_EQ(accounts_->hash(node)->Insert(cluster_->node(node)->context(0), k, &a, nullptr),
                Status::kOk);
    }
  }

  ~TxnTest() override { engine_->StopServices(); }

  uint32_t HomeOf(uint64_t key) const { return static_cast<uint32_t>(key % 3); }

  // First word of a B-tree row on node 0, read by a read-only transaction.
  uint64_t RowValue(store::Table* rows, uint64_t key) {
    Transaction txn(engine_.get(), cluster_->node(0)->context(0));
    txn.Begin(/*read_only=*/true);
    uint64_t v[2] = {};
    EXPECT_EQ(txn.Read(rows, 0, key, v), Status::kOk);
    EXPECT_EQ(txn.Commit(), Status::kOk);
    return v[0];
  }

  uint64_t Balance(uint64_t key) {
    sim::ThreadContext* ctx = cluster_->node(0)->context(0);
    Transaction txn(engine_.get(), ctx);
    while (true) {
      txn.Begin(/*read_only=*/true);
      Account a{};
      if (txn.Read(accounts_, HomeOf(key), key, &a) != Status::kOk) {
        txn.UserAbort();
        continue;
      }
      if (txn.Commit() == Status::kOk) {
        return a.balance;
      }
    }
  }

  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  store::Table* accounts_ = nullptr;
  std::unique_ptr<TxnEngine> engine_;
};

TEST_F(TxnTest, LocalReadWriteCommit) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{};
  ASSERT_EQ(txn.Read(accounts_, 0, 3, &a), Status::kOk);  // key 3 lives on node 0
  EXPECT_EQ(a.balance, 1000u);
  a.balance = 1100;
  ASSERT_EQ(txn.Write(accounts_, 0, 3, &a), Status::kOk);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  EXPECT_EQ(Balance(3), 1100u);
  EXPECT_EQ(engine_->stats().commits.load(), 2u);  // txn + Balance()
}

TEST_F(TxnTest, RemoteReadWriteCommit) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{};
  ASSERT_EQ(txn.Read(accounts_, 1, 1, &a), Status::kOk);  // key 1 on node 1: remote
  EXPECT_EQ(a.balance, 1000u);
  a.balance = 900;
  ASSERT_EQ(txn.Write(accounts_, 1, 1, &a), Status::kOk);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  EXPECT_EQ(Balance(1), 900u);

  // After C.6 the remote record must be unlocked and its seq bumped.
  uint64_t lock = cluster_->node(1)->bus()->ReadU64(nullptr,
      accounts_->hash(1)->Lookup(cluster_->node(1)->context(0), 1) + RecordLayout::kLockOff);
  EXPECT_EQ(lock, LockWord::kUnlocked);
}

TEST_F(TxnTest, ReadYourOwnWrite) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{};
  ASSERT_EQ(txn.Read(accounts_, 0, 3, &a), Status::kOk);
  a.balance = 42;
  ASSERT_EQ(txn.Write(accounts_, 0, 3, &a), Status::kOk);
  Account b{};
  ASSERT_EQ(txn.Read(accounts_, 0, 3, &b), Status::kOk);
  EXPECT_EQ(b.balance, 42u);
  txn.UserAbort();
  EXPECT_EQ(Balance(3), 1000u) << "aborted write must not be visible";
}

TEST_F(TxnTest, NotFoundKeys) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{};
  EXPECT_EQ(txn.Read(accounts_, 0, 999, &a), Status::kNotFound);   // local miss
  EXPECT_EQ(txn.Read(accounts_, 1, 1000, &a), Status::kNotFound);  // remote miss
  txn.UserAbort();
}

TEST_F(TxnTest, CrossPartitionTransfer) {
  // Distributed transaction touching all three nodes.
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{}, b{}, c{};
  ASSERT_EQ(txn.Read(accounts_, 0, 3, &a), Status::kOk);
  ASSERT_EQ(txn.Read(accounts_, 1, 4, &b), Status::kOk);
  ASSERT_EQ(txn.Read(accounts_, 2, 5, &c), Status::kOk);
  a.balance -= 100;
  b.balance += 60;
  c.balance += 40;
  ASSERT_EQ(txn.Write(accounts_, 0, 3, &a), Status::kOk);
  ASSERT_EQ(txn.Write(accounts_, 1, 4, &b), Status::kOk);
  ASSERT_EQ(txn.Write(accounts_, 2, 5, &c), Status::kOk);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  EXPECT_EQ(Balance(3), 900u);
  EXPECT_EQ(Balance(4), 1060u);
  EXPECT_EQ(Balance(5), 1040u);
}

TEST_F(TxnTest, WriteWriteConflictAbortsLoser) {
  // txn1 reads+writes key 6; before it commits, txn2 commits an update to 6.
  sim::ThreadContext* ctx1 = cluster_->node(0)->context(0);
  sim::ThreadContext* ctx2 = cluster_->node(0)->context(1);
  Transaction t1(engine_.get(), ctx1);
  Transaction t2(engine_.get(), ctx2);
  t1.Begin();
  Account a{};
  ASSERT_EQ(t1.Read(accounts_, 0, 6, &a), Status::kOk);
  a.balance = 1;
  ASSERT_EQ(t1.Write(accounts_, 0, 6, &a), Status::kOk);

  t2.Begin();
  Account b{};
  ASSERT_EQ(t2.Read(accounts_, 0, 6, &b), Status::kOk);
  b.balance = 2;
  ASSERT_EQ(t2.Write(accounts_, 0, 6, &b), Status::kOk);
  ASSERT_EQ(t2.Commit(), Status::kOk);

  EXPECT_EQ(t1.Commit(), Status::kAborted) << "stale read set must fail validation";
  ExpectNoLocksHeld(cluster_.get(), accounts_, {6});
  EXPECT_EQ(Balance(6), 2u);
}

TEST_F(TxnTest, RemoteValidationConflict) {
  sim::ThreadContext* ctx1 = cluster_->node(0)->context(0);
  sim::ThreadContext* ctx2 = cluster_->node(1)->context(0);
  Transaction t1(engine_.get(), ctx1);
  Transaction t2(engine_.get(), ctx2);
  t1.Begin();
  Account a{};
  ASSERT_EQ(t1.Read(accounts_, 1, 7, &a), Status::kOk);  // remote read from node 0

  t2.Begin();  // local update on node 1
  Account b{};
  ASSERT_EQ(t2.Read(accounts_, 1, 7, &b), Status::kOk);
  b.balance = 777;
  ASSERT_EQ(t2.Write(accounts_, 1, 7, &b), Status::kOk);
  ASSERT_EQ(t2.Commit(), Status::kOk);

  a.balance = 111;
  ASSERT_EQ(t1.Write(accounts_, 1, 7, &a), Status::kOk);
  EXPECT_EQ(t1.Commit(), Status::kAborted);
  ExpectNoLocksHeld(cluster_.get(), accounts_, {7});
  EXPECT_EQ(Balance(7), 777u);
}

TEST_F(TxnTest, ReadOnlySnapshotValidation) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction ro(engine_.get(), ctx);
  ro.Begin(/*read_only=*/true);
  Account a{};
  ASSERT_EQ(ro.Read(accounts_, 0, 9, &a), Status::kOk);
  ASSERT_EQ(ro.Read(accounts_, 1, 10, &a), Status::kOk);

  // A concurrent writer invalidates the snapshot.
  sim::ThreadContext* ctx2 = cluster_->node(0)->context(1);
  Transaction w(engine_.get(), ctx2);
  w.Begin();
  Account b{};
  ASSERT_EQ(w.Read(accounts_, 0, 9, &b), Status::kOk);
  b.balance = 5;
  ASSERT_EQ(w.Write(accounts_, 0, 9, &b), Status::kOk);
  ASSERT_EQ(w.Commit(), Status::kOk);

  EXPECT_EQ(ro.Commit(), Status::kAborted);
}

TEST_F(TxnTest, ReadOnlyRefusesLockedRemoteRecord) {
  // Manually lock a record on node 1 as if a committer held it; a read-only
  // remote read must not return until it is unlocked (Fig. 8).
  const uint64_t off = accounts_->hash(1)->Lookup(cluster_->node(1)->context(0), 13);
  ASSERT_NE(off, 0u);
  const uint64_t owner = LockWord::Make(2, 0);
  uint64_t obs;
  ASSERT_TRUE(cluster_->node(1)->bus()->CasU64(nullptr, off + RecordLayout::kLockOff, 0, owner,
                                               &obs));

  std::atomic<bool> done{false};
  std::thread reader([&] {
    sim::ThreadContext* ctx = cluster_->node(0)->context(0);
    Transaction ro(engine_.get(), ctx);
    while (true) {
      ro.Begin(true);
      Account a{};
      if (ro.Read(accounts_, 1, 13, &a) != Status::kOk) {
        ro.UserAbort();
        continue;
      }
      if (ro.Commit() == Status::kOk) {
        break;
      }
    }
    done.store(true);
  });
  // Give the reader time to spin on the locked record.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(cluster_->node(1)->bus()->CasU64(nullptr, off + RecordLayout::kLockOff, owner, 0,
                                               &obs));
  reader.join();
  EXPECT_TRUE(done.load());
}

// Commit-time validation must see the record lock, not just the seq. A
// committer locks, then writes back record by record, then unlocks; a reader
// that validates in between sees an unchanged seq on a record whose new value
// is on its way, while it may already have read the committer's other writes.
// Each test locks a read-set record the way a remote committer would, right
// before Commit(); the seq never moves, so only the lock can fail validation.
class LockedReadSetTest : public TxnTest {
 protected:
  uint64_t Lock(uint64_t key) {
    const uint32_t node = HomeOf(key);
    const uint64_t off = accounts_->hash(node)->Lookup(nullptr, key);
    uint64_t obs;
    EXPECT_TRUE(cluster_->node(node)->bus()->CasU64(nullptr, off + RecordLayout::kLockOff, 0,
                                                    committer_, &obs));
    return off;
  }
  void Unlock(uint64_t key, uint64_t off) {
    uint64_t obs;
    EXPECT_TRUE(cluster_->node(HomeOf(key))
                    ->bus()
                    ->CasU64(nullptr, off + RecordLayout::kLockOff, committer_, 0, &obs));
  }

  const uint64_t committer_ = LockWord::Make(2, 1);
};

TEST_F(LockedReadSetTest, ReadOnlyValidationRefusesLockedRecord) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  for (const uint64_t key : {9ull, 13ull}) {  // local to node 0, then remote
    Transaction ro(engine_.get(), ctx);
    ro.Begin(/*read_only=*/true);
    Account a{};
    ASSERT_EQ(ro.Read(accounts_, HomeOf(key), key, &a), Status::kOk);
    const uint64_t off = Lock(key);
    EXPECT_EQ(ro.Commit(), Status::kAborted) << "key " << key << " validated while locked";
    Unlock(key, off);
  }
}

TEST_F(LockedReadSetTest, LocalReadSetValidationRefusesLockedRecord) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{};
  ASSERT_EQ(txn.Read(accounts_, 0, 9, &a), Status::kOk);  // local read set (C.3)
  ASSERT_EQ(txn.Read(accounts_, 0, 12, &a), Status::kOk);
  a.balance = 1;
  ASSERT_EQ(txn.Write(accounts_, 0, 12, &a), Status::kOk);
  const uint64_t off = Lock(9);
  EXPECT_EQ(txn.Commit(), Status::kAborted);
  Unlock(9, off);
  EXPECT_EQ(Balance(12), 1000u);
}

TEST_F(LockedReadSetTest, RemoteReadSetValidationRefusesLockedRecordWithoutReadLocks) {
  // Under the lock_remote_read_set=false ablation C.1 locks only the remote
  // write set, so C.2 alone must notice a foreign lock on a remote read. Key
  // 16 is read and written (its C.1 lock is ours and must not fail C.2); key
  // 13 is only read.
  TxnConfig tcfg;
  tcfg.lock_remote_read_set = false;
  TxnEngine engine(cluster_.get(), catalog_.get(), tcfg);
  sim::ThreadContext* ctx = cluster_->node(0)->context(1);
  for (const bool locked : {true, false}) {
    Transaction txn(&engine, ctx);
    txn.Begin();
    Account a{};
    ASSERT_EQ(txn.Read(accounts_, HomeOf(13), 13, &a), Status::kOk);
    ASSERT_EQ(txn.Read(accounts_, HomeOf(16), 16, &a), Status::kOk);
    a.balance = 7;
    ASSERT_EQ(txn.Write(accounts_, HomeOf(16), 16, &a), Status::kOk);
    const uint64_t off = locked ? Lock(13) : 0;
    EXPECT_EQ(txn.Commit(), locked ? Status::kAborted : Status::kOk);
    if (locked) {
      Unlock(13, off);
    }
  }
  EXPECT_EQ(Balance(16), 7u);
  ExpectNoLocksHeld(cluster_.get(), accounts_, {13, 16});
}

TEST_F(TxnTest, LockConflictOnRemoteCommit) {
  // Hold the lock of a remote record; a commit needing it must abort (C.1)
  // and release the lock it already took on key 1, which sorts first.
  const uint64_t off = accounts_->hash(1)->Lookup(cluster_->node(1)->context(0), 16);
  ASSERT_LT(accounts_->hash(1)->Lookup(nullptr, 1), off);
  const uint64_t owner = LockWord::Make(2, 3);
  uint64_t obs;
  ASSERT_TRUE(cluster_->node(1)->bus()->CasU64(nullptr, off + RecordLayout::kLockOff, 0, owner,
                                               &obs));
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{};
  ASSERT_EQ(txn.Read(accounts_, 1, 1, &a), Status::kOk);
  ASSERT_EQ(txn.Read(accounts_, 1, 16, &a), Status::kOk);
  a.balance = 1;
  ASSERT_EQ(txn.Write(accounts_, 1, 16, &a), Status::kOk);
  EXPECT_EQ(txn.Commit(), Status::kAborted);
  EXPECT_GE(engine_->stats().aborts_lock.load(), 1u);
  ASSERT_TRUE(
      cluster_->node(1)->bus()->CasU64(nullptr, off + RecordLayout::kLockOff, owner, 0, &obs));
  ExpectNoLocksHeld(cluster_.get(), accounts_, {1, 16});
}

TEST_F(TxnTest, DanglingLockReleasedWhenOwnerAbsent) {
  // With a coordinator, a lock owned by a machine outside the configuration
  // is released passively and the commit proceeds (§5.2).
  cluster::Coordinator coord;
  coord.Join(0, 0, 1000000);
  coord.Join(1, 0, 1000000);
  coord.Join(2, 0, 1000000);
  TxnConfig tcfg;
  TxnEngine engine(cluster_.get(), catalog_.get(), tcfg, &coord);

  const uint64_t off = accounts_->hash(1)->Lookup(cluster_->node(1)->context(0), 19);
  const uint64_t dead_owner = LockWord::Make(7, 0);  // machine 7 never existed
  uint64_t obs;
  ASSERT_TRUE(cluster_->node(1)->bus()->CasU64(nullptr, off + RecordLayout::kLockOff, 0,
                                               dead_owner, &obs));
  sim::ThreadContext* ctx = cluster_->node(0)->context(2);
  Transaction txn(&engine, ctx);
  txn.Begin();
  Account a{};
  ASSERT_EQ(txn.Read(accounts_, 1, 19, &a), Status::kOk);
  a.balance = 3;
  ASSERT_EQ(txn.Write(accounts_, 1, 19, &a), Status::kOk);
  EXPECT_EQ(txn.Commit(), Status::kOk);
  EXPECT_GE(engine.stats().dangling_locks_released.load(), 1u);
  EXPECT_EQ(cluster_->node(1)->bus()->ReadU64(nullptr, off + RecordLayout::kLockOff),
            LockWord::kUnlocked);

  // A local record's dangling lock goes the same way: one loopback CAS
  // through the NIC, never a CPU CAS (on kHca fabrics a CPU CAS racing an
  // RDMA CAS on the same lock word is silently lost).
  const uint64_t local_off = accounts_->hash(0)->Lookup(nullptr, 18);
  ASSERT_TRUE(cluster_->node(0)->bus()->CasU64(nullptr, local_off + RecordLayout::kLockOff, 0,
                                               dead_owner, &obs));
  const sim::RdmaNic* nic = cluster_->node(0)->nic();
  const uint64_t verbs_before = nic->verbs_issued();
  txn.Begin();
  ASSERT_EQ(txn.Read(accounts_, 0, 18, &a), Status::kOk);
  EXPECT_EQ(nic->verbs_issued(), verbs_before + 1) << "the steal must be one loopback CAS";
  txn.UserAbort();
  ExpectNoLocksHeld(cluster_.get(), accounts_, {18, 19});
}

TEST_F(TxnTest, InsertAndRemoveLocal) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{555, {}};
  ASSERT_EQ(txn.Insert(accounts_, 0, 300, &a), Status::kOk);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  EXPECT_EQ(Balance(300), 555u);

  Transaction txn2(engine_.get(), ctx);
  txn2.Begin();
  ASSERT_EQ(txn2.Remove(accounts_, 0, 300), Status::kOk);
  ASSERT_EQ(txn2.Commit(), Status::kOk);
  Transaction txn3(engine_.get(), ctx);
  txn3.Begin();
  EXPECT_EQ(txn3.Read(accounts_, 0, 300, &a), Status::kNotFound);
  txn3.UserAbort();
}

TEST_F(TxnTest, InsertRemoteViaRpc) {
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  Account a{777, {}};
  ASSERT_EQ(txn.Insert(accounts_, 2, 301, &a), Status::kOk);  // node 2: remote (301 % 3 != 2, but host is explicit)
  ASSERT_EQ(txn.Commit(), Status::kOk);
  // Visible via remote read from node 1.
  Transaction r(engine_.get(), cluster_->node(1)->context(0));
  r.Begin(true);
  Account out{};
  ASSERT_EQ(r.Read(accounts_, 2, 301, &out), Status::kOk);
  EXPECT_EQ(r.Commit(), Status::kOk);
  EXPECT_EQ(out.balance, 777u);
}

TEST_F(TxnTest, IncarnationChangeAbortsReader) {
  // Reader tracks key 21; the record is removed and reinserted before commit.
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  Transaction t(engine_.get(), ctx);
  t.Begin();
  Account a{};
  ASSERT_EQ(t.Read(accounts_, 0, 21, &a), Status::kOk);

  sim::ThreadContext* ctx2 = cluster_->node(0)->context(1);
  ASSERT_EQ(accounts_->hash(0)->Remove(ctx2, 21), Status::kOk);
  Account fresh{1, {}};
  ASSERT_EQ(accounts_->hash(0)->Insert(ctx2, 21, &fresh, nullptr), Status::kOk);

  a.balance = 9;
  // The write may fail (kNotFound during relookup) or the commit must abort.
  if (t.Write(accounts_, 0, 21, &a) == Status::kOk) {
    EXPECT_EQ(t.Commit(), Status::kAborted);
  } else {
    t.UserAbort();
  }
  EXPECT_EQ(Balance(21), 1u);
}

TEST_F(TxnTest, BTreeTableScanWithinTxn) {
  store::TableOptions opt;
  opt.value_size = 16;
  opt.kind = store::StoreKind::kBTree;
  store::Table* orders = catalog_->CreateTable(2, opt);
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  // Insert via transactions.
  for (uint64_t k = 10; k <= 50; k += 10) {
    Transaction t(engine_.get(), ctx);
    t.Begin();
    uint64_t v[2] = {k, k * 2};
    ASSERT_EQ(t.Insert(orders, 0, k, v), Status::kOk);
    ASSERT_EQ(t.Commit(), Status::kOk);
  }
  Transaction t(engine_.get(), ctx);
  t.Begin(true);
  std::vector<uint64_t> keys;
  ASSERT_EQ(t.ScanLocal(orders, 15, 45, [&](uint64_t k, const void* v) {
    keys.push_back(k);
    uint64_t vv[2];
    std::memcpy(vv, v, 16);
    EXPECT_EQ(vv[1], k * 2);
    return true;
  }), Status::kOk);
  EXPECT_EQ(t.Commit(), Status::kOk);
  EXPECT_EQ(keys, (std::vector<uint64_t>{20, 30, 40}));
}

// A local B-tree table of `n` records, key k holding {k, 2k}, loaded by one
// insert-only transaction.
store::Table* LoadRows(store::Catalog* catalog, TxnEngine* engine, sim::ThreadContext* ctx,
                       uint32_t id, uint64_t n) {
  store::TableOptions opt;
  opt.value_size = 16;
  opt.kind = store::StoreKind::kBTree;
  store::Table* rows = catalog->CreateTable(id, opt);
  Transaction t(engine, ctx);
  t.Begin();
  for (uint64_t k = 1; k <= n; ++k) {
    const uint64_t v[2] = {k, 2 * k};
    EXPECT_EQ(t.Insert(rows, ctx->node_id, k, v), Status::kOk);
  }
  EXPECT_EQ(t.Commit(), Status::kOk);
  return rows;
}

// More distinct records than the access index starts with, so it doubles
// mid-transaction: re-reads stay one read-set entry each, a buffered write
// still shadows the stored value, and the next Begin() forgets everything.
TEST_F(TxnTest, AccessIndexGrowsAndResets) {
  constexpr uint64_t kRows = 640;
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  store::Table* rows = LoadRows(catalog_.get(), engine_.get(), ctx, 2, kRows);
  chk::HistoryRecorder& history = chk::HistoryRecorder::Global();
  history.Reset();
  history.Enable(true);

  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  uint64_t v[2];
  const uint64_t mine[2] = {7, 7};
  ASSERT_EQ(txn.Read(rows, 0, 1, v), Status::kOk);
  ASSERT_EQ(txn.Write(rows, 0, 1, mine), Status::kOk);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t k = 1; k <= kRows; ++k) {
      ASSERT_EQ(txn.Read(rows, 0, k, v), Status::kOk);
      EXPECT_EQ(v[0], k == 1 ? 7u : k);
      ASSERT_EQ(txn.Read(rows, 0, k, nullptr), Status::kOk);
    }
  }
  const uint64_t mine2[2] = {9, 9};
  ASSERT_EQ(txn.Write(rows, 0, kRows, mine2), Status::kOk);
  ASSERT_EQ(txn.Read(rows, 0, kRows, v), Status::kOk);
  EXPECT_EQ(v[0], 9u);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  const uint64_t committed_id = txn.id();

  // The same object again: a write aborted here must not leak into the read
  // after the following Begin(), and each transaction's read set holds only
  // its own records.
  txn.Begin();
  const uint64_t junk[2] = {99, 99};
  ASSERT_EQ(txn.Write(rows, 0, 5, junk), Status::kOk);
  txn.UserAbort();
  txn.Begin();
  ASSERT_EQ(txn.Read(rows, 0, 5, v), Status::kOk);
  EXPECT_EQ(v[0], 5u);
  ASSERT_EQ(txn.Read(rows, 0, 1, nullptr), Status::kOk);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  const uint64_t second_id = txn.id();

  history.Enable(false);
  size_t seen = 0;
  for (const chk::TxnRec& rec : history.Collect()) {
    if (rec.txn_id == committed_id) {
      ++seen;
      EXPECT_EQ(rec.reads.size(), kRows);
      EXPECT_EQ(rec.writes.size(), 2u);
    } else if (rec.txn_id == second_id) {
      ++seen;
      EXPECT_EQ(rec.reads.size(), 2u);
      EXPECT_TRUE(rec.writes.empty());
    }
  }
  EXPECT_EQ(seen, 2u);
  history.Reset();
  EXPECT_EQ(RowValue(rows, 1), 7u);
  EXPECT_EQ(RowValue(rows, kRows), 9u);
}

// A write to a record read earlier builds on that read (not blind): it must
// not fetch the record again, so it succeeds even after a concurrent removal,
// and commit then rejects the stale version. Runs past the index's initial
// capacity so the lookup goes through a grown index.
TEST_F(TxnTest, WriteAfterReadIsNotBlind) {
  constexpr uint64_t kRows = 640;
  sim::ThreadContext* ctx = cluster_->node(0)->context(0);
  store::Table* rows = LoadRows(catalog_.get(), engine_.get(), ctx, 2, kRows);
  Transaction txn(engine_.get(), ctx);
  txn.Begin();
  uint64_t v[2];
  for (uint64_t k = 1; k <= kRows; ++k) {
    ASSERT_EQ(txn.Read(rows, 0, k, v), Status::kOk);
  }
  Transaction remover(engine_.get(), cluster_->node(0)->context(1));
  remover.Begin();
  ASSERT_EQ(remover.Remove(rows, 0, 300), Status::kOk);
  ASSERT_EQ(remover.Commit(), Status::kOk);

  const uint64_t w[2] = {1, 1};
  EXPECT_EQ(txn.Write(rows, 0, 300, w), Status::kOk);
  EXPECT_EQ(txn.Commit(), Status::kAborted);

  // The blind path fetches the record, and finds it gone.
  txn.Begin();
  EXPECT_EQ(txn.Write(rows, 0, 300, w), Status::kNotFound);
  txn.UserAbort();
}

// The canonical serializability stress: concurrent transfers between random
// accounts, all nodes, all workers. Total balance must be conserved and no
// read-only sweep may observe an inconsistent total.
TEST_F(TxnTest, MoneyConservationUnderConcurrency) {
  constexpr int kThreadsPerNode = 3;
  constexpr int kTransfers = 300;
  const uint64_t kTotal = 30 * 1000;

  std::atomic<bool> stop{false};
  std::atomic<int> ro_failures{0};
  std::vector<std::thread> threads;
  for (uint32_t n = 0; n < 3; ++n) {
    for (int w = 0; w < kThreadsPerNode; ++w) {
      threads.emplace_back([&, n, w] {
        sim::ThreadContext* ctx = cluster_->node(n)->context(static_cast<uint32_t>(w));
        Transaction txn(engine_.get(), ctx);
        FastRand rng(n * 100 + w + 1);
        for (int i = 0; i < kTransfers; ++i) {
          const uint64_t from = rng.Range(1, 30);
          uint64_t to = rng.Range(1, 30);
          if (to == from) {
            to = from % 30 + 1;
          }
          while (true) {
            txn.Begin();
            Account a{}, b{};
            if (txn.Read(accounts_, HomeOf(from), from, &a) != Status::kOk ||
                txn.Read(accounts_, HomeOf(to), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            const uint64_t amount = rng.Range(1, 10);
            if (a.balance < amount) {
              txn.UserAbort();
              break;
            }
            a.balance -= amount;
            b.balance += amount;
            if (txn.Write(accounts_, HomeOf(from), from, &a) != Status::kOk ||
                txn.Write(accounts_, HomeOf(to), to, &b) != Status::kOk) {
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
  // Read-only auditor: sweeps all accounts, total must always be kTotal.
  std::thread auditor([&] {
    sim::ThreadContext* ctx = cluster_->node(0)->context(3);
    Transaction ro(engine_.get(), ctx);
    while (!stop.load()) {
      ro.Begin(true);
      uint64_t total = 0;
      bool ok = true;
      for (uint64_t k = 1; k <= 30 && ok; ++k) {
        Account a{};
        ok = ro.Read(accounts_, HomeOf(k), k, &a) == Status::kOk;
        total += a.balance;
      }
      if (!ok) {
        ro.UserAbort();
        continue;
      }
      if (ro.Commit() != Status::kOk) {
        continue;  // snapshot invalidated: fine, retry
      }
      if (total != kTotal) {
        ro_failures.fetch_add(1);
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true);
  auditor.join();
  EXPECT_EQ(ro_failures.load(), 0) << "read-only transaction observed a torn total";

  uint64_t total = 0;
  for (uint64_t k = 1; k <= 30; ++k) {
    total += Balance(k);
  }
  EXPECT_EQ(total, kTotal);
  EXPECT_GT(engine_->stats().commits.load(), 0u);
}

}  // namespace
}  // namespace drtmr::txn
