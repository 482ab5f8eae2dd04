// Integration tests: TPC-C and SmallBank running on the full DrTM+R stack,
// with invariants checked after concurrent execution.
#include "src/workload/tpcc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "src/sim/time_gate.h"
#include "src/workload/driver.h"
#include "src/workload/smallbank.h"

namespace drtmr::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    cfg_.num_nodes = 3;
    cfg_.workers_per_node = 4;
    cfg_.memory_bytes = 48 << 20;
    cfg_.log_bytes = 4 << 20;
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    pmap_ = std::make_unique<cluster::PartitionMap>(3);
    txn::TxnConfig tcfg;
    engine_ = std::make_unique<txn::TxnEngine>(cluster_.get(), catalog_.get(), tcfg);
    engine_->StartServices();
  }

  ~WorkloadTest() override { engine_->StopServices(); }

  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  std::unique_ptr<cluster::PartitionMap> pmap_;
  std::unique_ptr<txn::TxnEngine> engine_;
};

TEST_F(WorkloadTest, TpccKeyEncodingsDisjoint) {
  // Order and order-line keys must be strictly ordered by (w, d, o, ol).
  EXPECT_LT(TpccWorkload::OKey(1, 1, 5), TpccWorkload::OKey(1, 1, 6));
  EXPECT_LT(TpccWorkload::OKey(1, 1, 500), TpccWorkload::OKey(1, 2, 1));
  EXPECT_LT(TpccWorkload::OKey(1, 10, 1u << 20), TpccWorkload::OKey(2, 1, 1));
  EXPECT_LT(TpccWorkload::OLKey(1, 1, 5, 15), TpccWorkload::OLKey(1, 1, 6, 1));
  EXPECT_NE(TpccWorkload::CKey(1, 1, 1), TpccWorkload::CKey(1, 2, 1));
  EXPECT_NE(TpccWorkload::SKey(1, 7), TpccWorkload::SKey(2, 7));
}

TEST_F(WorkloadTest, TpccRunsStandardMix) {
  TpccConfig tc;
  tc.warehouses_per_node = 1;
  tc.customers_per_district = 60;
  tc.items = 200;
  TpccWorkload tpcc(engine_.get(), pmap_.get(), tc);
  tpcc.CreateTables();
  tpcc.Load(nullptr);

  DriverOptions opt;
  opt.threads_per_node = 2;
  opt.txns_per_thread = 150;
  opt.warmup_per_thread = 10;
  txn::Transaction* txns[3][4];
  std::vector<std::unique_ptr<txn::Transaction>> owned;
  for (uint32_t n = 0; n < 3; ++n) {
    for (uint32_t w = 0; w < 4; ++w) {
      owned.push_back(
          std::make_unique<txn::Transaction>(engine_.get(), cluster_->node(n)->context(w)));
      txns[n][w] = owned.back().get();
    }
  }
  const DriverResult r = RunWorkload(cluster_.get(), opt, [&](sim::ThreadContext* ctx, uint32_t n,
                                                              uint32_t w, FastRand* rng) {
    return tpcc.RunOne(ctx, txns[n][w], rng);
  });
  EXPECT_EQ(r.committed, 3u * 2 * 150);
  EXPECT_GT(r.elapsed_ns, 0u);
  EXPECT_GT(r.ThroughputTps(), 0.0);
  // The mix should roughly follow Table 5 (45/43/4/4/4).
  EXPECT_GT(r.committed_by_type[kNewOrder], r.committed / 3);
  EXPECT_GT(r.committed_by_type[kPayment], r.committed / 3);
  EXPECT_GT(r.committed_by_type[kOrderStatus] + r.committed_by_type[kDelivery] +
                r.committed_by_type[kStockLevel],
            0u);

  // Consistency: every district's next_o_id - 1 equals the number of orders
  // inserted for it; the ORDER B-tree sizes must add up.
  uint64_t orders_expected = 0;
  for (uint64_t w = 1; w <= tpcc.total_warehouses(); ++w) {
    for (uint64_t d = 1; d <= tc.districts; ++d) {
      orders_expected += tpcc.DistrictNextOrderId(tpcc.NodeOfWarehouse(w), w, d) - 1;
    }
  }
  uint64_t orders_found = 0;
  for (uint32_t n = 0; n < 3; ++n) {
    orders_found += tpcc.table(TpccWorkload::kOrderTab)->btree(n)->size();
  }
  EXPECT_EQ(orders_found, orders_expected);
  EXPECT_GT(orders_found, 0u);
}

TEST_F(WorkloadTest, TpccCrossWarehouseSweepKeepsStockConsistent) {
  TpccConfig tc;
  tc.warehouses_per_node = 1;
  tc.customers_per_district = 30;
  tc.items = 100;
  tc.cross_warehouse_new_order_pct = 50;  // heavy distributed load
  tc.mix[kNewOrder] = 100;
  tc.mix[kPayment] = tc.mix[kOrderStatus] = tc.mix[kDelivery] = tc.mix[kStockLevel] = 0;
  TpccWorkload tpcc(engine_.get(), pmap_.get(), tc);
  tpcc.CreateTables();
  tpcc.Load(nullptr);

  DriverOptions opt;
  opt.threads_per_node = 2;
  opt.txns_per_thread = 100;
  opt.warmup_per_thread = 0;
  std::vector<std::unique_ptr<txn::Transaction>> owned;
  txn::Transaction* txns[3][4];
  for (uint32_t n = 0; n < 3; ++n) {
    for (uint32_t w = 0; w < 4; ++w) {
      owned.push_back(
          std::make_unique<txn::Transaction>(engine_.get(), cluster_->node(n)->context(w)));
      txns[n][w] = owned.back().get();
    }
  }
  const DriverResult r = RunWorkload(cluster_.get(), opt,
                                     [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w,
                                         FastRand* rng) { return tpcc.RunOne(ctx, txns[n][w], rng); });
  EXPECT_EQ(r.committed, 600u);

  // Stock consistency: sum over stock rows of ytd equals the total quantity
  // ordered across all order lines (every order line decrements stock once).
  uint64_t stock_ytd = 0;
  store::Table* stock = tpcc.table(TpccWorkload::kStockTab);
  for (uint64_t w = 1; w <= 3; ++w) {
    const uint32_t node = tpcc.NodeOfWarehouse(w);
    for (uint64_t i = 1; i <= tc.items; ++i) {
      const uint64_t off = stock->hash(node)->Lookup(nullptr, TpccWorkload::SKey(w, i));
      ASSERT_NE(off, 0u);
      std::vector<std::byte> rec(stock->record_bytes());
      cluster_->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
      StockRow row;
      store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
      stock_ytd += row.ytd;
    }
  }
  uint64_t ordered_qty = 0;
  store::Table* ol = tpcc.table(TpccWorkload::kOrderLineTab);
  for (uint32_t n = 0; n < 3; ++n) {
    ol->btree(n)->Scan(nullptr, 0, ~0ull, [&](uint64_t, uint64_t off) {
      std::vector<std::byte> rec(ol->record_bytes());
      cluster_->node(n)->bus()->Read(nullptr, off, rec.data(), rec.size());
      OrderLineRow row;
      store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
      ordered_qty += row.qty;
      return true;
    });
  }
  EXPECT_EQ(stock_ytd, ordered_qty);
  EXPECT_GT(stock_ytd, 0u);
}

TEST_F(WorkloadTest, SmallBankConservesMoney) {
  SmallBankConfig sc;
  sc.accounts_per_node = 200;
  sc.hot_accounts = 20;
  sc.cross_machine_pct = 10;
  SmallBankWorkload bank(engine_.get(), pmap_.get(), sc);
  bank.CreateTables();
  bank.Load(nullptr);
  EXPECT_EQ(bank.TotalBalance(), bank.initial_total());

  DriverOptions opt;
  opt.threads_per_node = 3;
  opt.txns_per_thread = 300;
  opt.warmup_per_thread = 0;
  std::vector<std::unique_ptr<txn::Transaction>> owned;
  txn::Transaction* txns[3][4];
  for (uint32_t n = 0; n < 3; ++n) {
    for (uint32_t w = 0; w < 4; ++w) {
      owned.push_back(
          std::make_unique<txn::Transaction>(engine_.get(), cluster_->node(n)->context(w)));
      txns[n][w] = owned.back().get();
    }
  }
  const DriverResult r = RunWorkload(cluster_.get(), opt,
                                     [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w,
                                         FastRand* rng) { return bank.RunOne(ctx, txns[n][w], rng); });
  EXPECT_EQ(r.committed, 3u * 3 * 300);
  EXPECT_EQ(bank.TotalBalance(), bank.initial_total() + bank.external_delta());
  // All six types were exercised.
  for (uint32_t t = 0; t < kSmallBankTxnTypes; ++t) {
    EXPECT_GT(r.committed_by_type[t], 0u) << "type " << t;
  }
}

TEST_F(WorkloadTest, DriverThroughputScalesWithThreads) {
  // More worker threads -> more committed txns per unit of virtual time
  // (workload is uncontended enough to scale).
  SmallBankConfig sc;
  sc.accounts_per_node = 1000;
  sc.hot_accounts = 500;
  sc.cross_machine_pct = 0;
  SmallBankWorkload bank(engine_.get(), pmap_.get(), sc);
  bank.CreateTables();
  bank.Load(nullptr);
  std::vector<std::unique_ptr<txn::Transaction>> owned;
  txn::Transaction* txns[3][4];
  for (uint32_t n = 0; n < 3; ++n) {
    for (uint32_t w = 0; w < 4; ++w) {
      owned.push_back(
          std::make_unique<txn::Transaction>(engine_.get(), cluster_->node(n)->context(w)));
      txns[n][w] = owned.back().get();
    }
  }
  auto run = [&](uint32_t threads) {
    DriverOptions opt;
    opt.threads_per_node = threads;
    opt.txns_per_thread = 400;
    opt.warmup_per_thread = 20;
    return RunWorkload(cluster_.get(), opt,
                       [&](sim::ThreadContext* ctx, uint32_t n, uint32_t w, FastRand* rng) {
                         return bank.RunOne(ctx, txns[n][w], rng);
                       });
  };
  const double t1 = run(1).ThroughputTps();
  const double t4 = run(4).ThroughputTps();
  EXPECT_GT(t4, t1 * 2.0) << "t1=" << t1 << " t4=" << t4;
}

// RunWorkload's control actor shares the workers' gate: it is registered
// before any worker runs, the workers wait on its clock, it is joined before
// RunWorkload returns, and it adds nothing to the result. Each "transaction"
// charges a fixed 1 us and syncs, so the run is deterministic.
TEST_F(WorkloadTest, ControlActorIsGatedJoinedAndAddsNothing) {
  constexpr uint64_t kWindowNs = 100'000;  // RunWorkload's gate window
  constexpr uint64_t kTxnNs = 1'000;
  constexpr uint32_t kThreads = 2;
  DriverOptions opt;
  opt.threads_per_node = kThreads;
  opt.txns_per_thread = 400;  // 4x the window: the workers must hit the gate
  opt.warmup_per_thread = 10;
  const TxnFn fn = [](sim::ThreadContext* ctx, uint32_t, uint32_t, FastRand*) {
    ctx->Charge(kTxnNs);
    sim::TimeGate::Sync(&ctx->clock);
    return 0u;
  };
  const DriverResult plain = RunWorkload(cluster_.get(), opt, fn);

  // The control actor holds its clock at 0 until every worker is parked past
  // the window, records how far the fastest got, then finishes late.
  sim::ThreadContext control(0, cfg_.workers_per_node, 1);
  uint64_t fastest_ns = 0;
  std::atomic<bool> finished{false};
  opt.control = {&control, [&] {
                   for (bool parked = false; !parked;) {
                     parked = true;
                     fastest_ns = 0;
                     for (uint32_t n = 0; n < cfg_.num_nodes; ++n) {
                       for (uint32_t w = 0; w < kThreads; ++w) {
                         const uint64_t now = cluster_->node(n)->context(w)->clock.now_ns();
                         parked = parked && now > kWindowNs;
                         fastest_ns = std::max(fastest_ns, now);
                       }
                     }
                     std::this_thread::yield();
                   }
                   for (int i = 0; i < 1000; ++i) {
                     std::this_thread::yield();
                   }
                   finished.store(true);
                 }};
  const DriverResult gated = RunWorkload(cluster_.get(), opt, fn);

  EXPECT_LE(fastest_ns, kWindowNs + kTxnNs);  // registered first, waited on
  EXPECT_TRUE(finished.load());               // joined before the return
  EXPECT_EQ(control.clock.now_ns(), 0u);
  EXPECT_EQ(gated.committed, uint64_t{cfg_.num_nodes} * kThreads * opt.txns_per_thread);
  EXPECT_EQ(gated.committed, plain.committed);
  EXPECT_EQ(gated.elapsed_ns, plain.elapsed_ns);
  EXPECT_EQ(gated.elapsed_ns, opt.txns_per_thread * kTxnNs);
  EXPECT_EQ(gated.committed_by_type, plain.committed_by_type);
  EXPECT_EQ(gated.latency.count(), plain.latency.count());
}

}  // namespace
}  // namespace drtmr::workload
