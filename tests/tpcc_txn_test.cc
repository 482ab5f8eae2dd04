// Per-transaction-type semantics of the TPC-C implementation: new-order
// allocates order ids densely and moves stock; payment moves money into
// warehouse/district/customer YTD consistently; delivery consumes each
// NEW_ORDER exactly once; order-status sees the customer's latest order;
// stock-level observes a consistent district snapshot.
#include "src/workload/tpcc.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "src/txn/transaction.h"
#include "src/workload/driver.h"

namespace drtmr::workload {
namespace {

class TpccTxnTest : public ::testing::Test {
 protected:
  TpccTxnTest() {
    cfg_.num_nodes = 2;
    cfg_.workers_per_node = 4;
    cfg_.memory_bytes = 32 << 20;
    cfg_.log_bytes = 2 << 20;
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    pmap_ = std::make_unique<cluster::PartitionMap>(2);
    txn::TxnConfig tcfg;
    engine_ = std::make_unique<txn::TxnEngine>(cluster_.get(), catalog_.get(), tcfg);
    tc_.warehouses_per_node = 1;
    tc_.customers_per_district = 40;
    tc_.items = 200;
    tpcc_ = std::make_unique<TpccWorkload>(engine_.get(), pmap_.get(), tc_);
    tpcc_->CreateTables();
    tpcc_->Load(nullptr);
    engine_->StartServices();
  }

  ~TpccTxnTest() override { engine_->StopServices(); }

  // Runs `count` transactions of one forced type on node 0's warehouse.
  void RunType(uint32_t type, int count, uint32_t worker = 0) {
    sim::ThreadContext* ctx = cluster_->node(0)->context(worker);
    txn::Transaction txn(engine_.get(), ctx);
    FastRand rng(worker + 17);
    for (int i = 0; i < count; ++i) {
      while (!tpcc_->RunType(type, ctx, &txn, &rng, /*w=*/1)) {
      }
    }
  }

  template <typename Row>
  Row ReadRow(TpccWorkload::TableId tab, uint32_t node, uint64_t key) {
    store::Table* t = tpcc_->table(tab);
    const uint64_t off = t->kind() == store::StoreKind::kHash
                             ? t->hash(node)->Lookup(nullptr, key)
                             : t->btree(node)->Lookup(nullptr, key);
    EXPECT_NE(off, 0u) << "missing key " << key;
    std::vector<std::byte> rec(t->record_bytes());
    cluster_->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
    Row row;
    store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
    return row;
  }

  cluster::ClusterConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<store::Catalog> catalog_;
  std::unique_ptr<cluster::PartitionMap> pmap_;
  std::unique_ptr<txn::TxnEngine> engine_;
  TpccConfig tc_;
  std::unique_ptr<TpccWorkload> tpcc_;
};

TEST_F(TpccTxnTest, NewOrderAllocatesDenseOrderIdsAndLines) {
  RunType(kNewOrder, 50);
  uint64_t orders_total = 0;
  for (uint64_t d = 1; d <= 10; ++d) {
    const uint64_t next = tpcc_->DistrictNextOrderId(0, 1, d);
    // Every order id below next_o_id must exist with 5..15 order lines.
    for (uint64_t o = 1; o < next; ++o) {
      const OrderRow orow = ReadRow<OrderRow>(TpccWorkload::kOrderTab, 0,
                                              TpccWorkload::OKey(1, d, o));
      EXPECT_GE(orow.ol_cnt, 5u);
      EXPECT_LE(orow.ol_cnt, 15u);
      EXPECT_GE(orow.c_id, 1u);
      uint32_t lines = 0;
      tpcc_->table(TpccWorkload::kOrderLineTab)
          ->btree(0)
          ->Scan(nullptr, TpccWorkload::OLKey(1, d, o, 0), TpccWorkload::OLKey(1, d, o, 15),
                 [&](uint64_t, uint64_t) {
                   lines++;
                   return true;
                 });
      EXPECT_EQ(lines, orow.ol_cnt);
      // A matching NEW_ORDER entry exists (no deliveries ran).
      EXPECT_NE(tpcc_->table(TpccWorkload::kNewOrderTab)
                    ->btree(0)
                    ->Lookup(nullptr, TpccWorkload::OKey(1, d, o)),
                0u);
      orders_total++;
    }
  }
  EXPECT_EQ(orders_total, 50u);
}

TEST_F(TpccTxnTest, PaymentMovesMoneyConsistently) {
  RunType(kPayment, 60);
  // warehouse.ytd == sum(district.ytd) == total customer ytd_payment over
  // home-warehouse payments (all local here since 2 nodes, 15% remote may
  // target warehouse 2 customers — count both warehouses).
  uint64_t w_ytd = 0, d_ytd = 0, c_ytd = 0;
  for (uint64_t w = 1; w <= 2; ++w) {
    const uint32_t node = tpcc_->NodeOfWarehouse(w);
    w_ytd += ReadRow<WarehouseRow>(TpccWorkload::kWarehouseTab, node, TpccWorkload::WKey(w)).ytd;
    for (uint64_t d = 1; d <= 10; ++d) {
      d_ytd += ReadRow<DistrictRow>(TpccWorkload::kDistrictTab, node, TpccWorkload::DKey(w, d))
                   .ytd;
      for (uint64_t c = 1; c <= tc_.customers_per_district; ++c) {
        c_ytd += ReadRow<CustomerRow>(TpccWorkload::kCustomerTab, node,
                                      TpccWorkload::CKey(w, d, c))
                     .ytd_payment;
      }
    }
  }
  EXPECT_GT(w_ytd, 0u);
  EXPECT_EQ(w_ytd, d_ytd);
  EXPECT_EQ(w_ytd, c_ytd);
}

TEST_F(TpccTxnTest, DeliveryConsumesEachNewOrderOnce) {
  RunType(kNewOrder, 40);
  uint64_t pending_before = tpcc_->table(TpccWorkload::kNewOrderTab)->btree(0)->size();
  ASSERT_EQ(pending_before, 40u);

  // Two concurrent deliverers must never double-deliver.
  std::thread t1([&] { RunType(kDelivery, 3, 0); });
  std::thread t2([&] { RunType(kDelivery, 3, 1); });
  t1.join();
  t2.join();

  // Every delivered order got a carrier and its customer's delivery_cnt rose;
  // total deliveries == orders removed from NEW_ORDER.
  uint64_t delivered = 0;
  uint64_t delivery_cnt_total = 0;
  for (uint64_t d = 1; d <= 10; ++d) {
    const uint64_t next = tpcc_->DistrictNextOrderId(0, 1, d);
    for (uint64_t o = 1; o < next; ++o) {
      const OrderRow orow =
          ReadRow<OrderRow>(TpccWorkload::kOrderTab, 0, TpccWorkload::OKey(1, d, o));
      const bool pending = tpcc_->table(TpccWorkload::kNewOrderTab)
                               ->btree(0)
                               ->Lookup(nullptr, TpccWorkload::OKey(1, d, o)) != 0;
      if (orow.carrier_id != 0) {
        EXPECT_FALSE(pending) << "delivered order still in NEW_ORDER";
        delivered++;
      } else {
        EXPECT_TRUE(pending) << "undelivered order missing from NEW_ORDER";
      }
    }
    for (uint64_t c = 1; c <= tc_.customers_per_district; ++c) {
      delivery_cnt_total +=
          ReadRow<CustomerRow>(TpccWorkload::kCustomerTab, 0, TpccWorkload::CKey(1, d, c))
              .delivery_cnt;
    }
  }
  const uint64_t pending_after = tpcc_->table(TpccWorkload::kNewOrderTab)->btree(0)->size();
  EXPECT_EQ(pending_before - pending_after, delivered);
  EXPECT_EQ(delivery_cnt_total, delivered);
  EXPECT_GT(delivered, 0u);
}

// A delivery's tombstone commits before its NEW_ORDER removal lands (the
// removal is a mutation applied after the commit point), so a concurrent
// deliverer can still find the tombstoned row in the index. It must treat the
// order as delivered, not deliver it a second time.
TEST_F(TpccTxnTest, DeliverySkipsTombstonedNewOrder) {
  RunType(kNewOrder, 40);
  store::Table* new_order = tpcc_->table(TpccWorkload::kNewOrderTab);
  sim::MemoryBus* bus = cluster_->node(0)->bus();
  // Leave each district's oldest pending order as a committed delivery does
  // until its removal lands: tombstoned, still indexed.
  for (uint64_t d = 1; d <= 10; ++d) {
    uint64_t key = 0, off = 0;
    if (!new_order->btree(0)->FirstGreaterEqual(nullptr, TpccWorkload::OKey(1, d, 1),
                                                TpccWorkload::OKey(1, d, ~0ull >> 28), &key,
                                                &off)) {
      continue;
    }
    std::vector<std::byte> rec(new_order->record_bytes());
    bus->Read(nullptr, off, rec.data(), rec.size());
    const NewOrderRow tombstone{0};
    store::RecordLayout::ScatterValue(rec.data(), &tombstone, sizeof(tombstone));
    bus->Write(nullptr, off, rec.data(), rec.size());
  }
  RunType(kDelivery, 1);
  for (uint64_t d = 1; d <= 10; ++d) {
    for (uint64_t c = 1; c <= tc_.customers_per_district; ++c) {
      EXPECT_EQ(ReadRow<CustomerRow>(TpccWorkload::kCustomerTab, 0, TpccWorkload::CKey(1, d, c))
                    .delivery_cnt,
                0u)
          << "district " << d << " customer " << c << " credited for a delivered order";
    }
  }
}

TEST_F(TpccTxnTest, OrderStatusSeesLatestOrder) {
  RunType(kNewOrder, 30);
  // For every customer with a recorded last order, that order must exist and
  // belong to them.
  for (uint64_t d = 1; d <= 10; ++d) {
    for (uint64_t c = 1; c <= tc_.customers_per_district; ++c) {
      const CustLastOrderRow lo = ReadRow<CustLastOrderRow>(TpccWorkload::kCustLastOrderTab, 0,
                                                            TpccWorkload::CKey(1, d, c));
      if (lo.o_id == 0) {
        continue;
      }
      const OrderRow orow =
          ReadRow<OrderRow>(TpccWorkload::kOrderTab, 0, TpccWorkload::OKey(1, d, lo.o_id));
      EXPECT_EQ(orow.c_id, c);
    }
  }
  // And the read-only transaction itself commits.
  RunType(kOrderStatus, 20);
}

TEST_F(TpccTxnTest, StockLevelCommitsReadOnly) {
  RunType(kNewOrder, 30);
  const uint64_t commits_before = engine_->stats().commits.load();
  RunType(kStockLevel, 10);
  EXPECT_GE(engine_->stats().commits.load(), commits_before + 10);
}

TEST_F(TpccTxnTest, LastNameIndexResolvesCustomers) {
  // Every customer is reachable through the (w, d, last-name) index, and the
  // index entry points back at a real customer row.
  store::Table* name_index = tpcc_->table(TpccWorkload::kCustNameTab);
  uint64_t indexed = 0;
  for (uint32_t n = 0; n < 2; ++n) {
    name_index->btree(n)->Scan(nullptr, 0, ~0ull, [&](uint64_t key, uint64_t off) {
      const uint64_t c = key & 0xfff;
      const uint64_t d = (key >> 36) & 0xf;
      const uint64_t w = key >> 40;
      EXPECT_GE(c, 1u);
      EXPECT_LE(c, tc_.customers_per_district);
      std::vector<std::byte> rec(name_index->record_bytes());
      cluster_->node(n)->bus()->Read(nullptr, off, rec.data(), rec.size());
      CustNameRow row;
      store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
      EXPECT_EQ(row.c_id, c);
      EXPECT_NE(tpcc_->table(TpccWorkload::kCustomerTab)
                    ->hash(n)
                    ->Lookup(nullptr, TpccWorkload::CKey(w, d, c)),
                0u);
      indexed++;
      return true;
    });
  }
  EXPECT_EQ(indexed, 2u * 10 * tc_.customers_per_district);
  // Payments (60% by last name) run against the index without errors.
  RunType(kPayment, 40);
}

TEST_F(TpccTxnTest, StockYtdMatchesOrderLines) {
  RunType(kNewOrder, 50);
  uint64_t stock_ytd = 0;
  for (uint64_t w = 1; w <= 2; ++w) {
    const uint32_t node = tpcc_->NodeOfWarehouse(w);
    for (uint64_t i = 1; i <= tc_.items; ++i) {
      stock_ytd += ReadRow<StockRow>(TpccWorkload::kStockTab, node, TpccWorkload::SKey(w, i)).ytd;
    }
  }
  uint64_t line_qty = 0;
  for (uint32_t n = 0; n < 2; ++n) {
    tpcc_->table(TpccWorkload::kOrderLineTab)->btree(n)->Scan(nullptr, 0, ~0ull, [&](uint64_t,
                                                                                     uint64_t off) {
      std::vector<std::byte> rec(tpcc_->table(TpccWorkload::kOrderLineTab)->record_bytes());
      cluster_->node(n)->bus()->Read(nullptr, off, rec.data(), rec.size());
      OrderLineRow row;
      store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
      line_qty += row.qty;
      return true;
    });
  }
  EXPECT_EQ(stock_ytd, line_qty);
  EXPECT_GT(stock_ytd, 0u);
}

}  // namespace
}  // namespace drtmr::workload
