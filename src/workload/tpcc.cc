#include "src/workload/tpcc.h"

#include <cstring>
#include <thread>
#include <unordered_set>

#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace drtmr::workload {

using store::StoreKind;
using store::TableOptions;
using txn::TxnApi;

TpccWorkload::TpccWorkload(txn::TxnEngine* engine, cluster::PartitionMap* pmap,
                           const TpccConfig& config)
    : engine_(engine), pmap_(pmap), config_(config) {
  total_warehouses_ = pmap->num_partitions() * config.warehouses_per_node;
}

void TpccWorkload::CreateTables() {
  store::Catalog* catalog = engine_->catalog();
  auto hash = [&](uint32_t id, uint32_t value_size, uint64_t buckets) {
    TableOptions opt;
    opt.kind = StoreKind::kHash;
    opt.value_size = value_size;
    opt.hash_buckets = buckets;
    return catalog->CreateTable(id, opt);
  };
  auto btree = [&](uint32_t id, uint32_t value_size) {
    TableOptions opt;
    opt.kind = StoreKind::kBTree;
    opt.value_size = value_size;
    opt.ptr_swap = config_.ptr_swap_local;  // §6.4: local-only tables
    return catalog->CreateTable(id, opt);
  };
  const uint32_t wpn = config_.warehouses_per_node;
  warehouse_ = hash(kWarehouseTab, sizeof(WarehouseRow), 64);
  district_ = hash(kDistrictTab, sizeof(DistrictRow), 256);
  customer_ = hash(kCustomerTab, sizeof(CustomerRow),
                   std::max<uint64_t>(1024, wpn * config_.districts *
                                                config_.customers_per_district / 2));
  history_ = hash(kHistoryTab, sizeof(HistoryRow), 1 << 12);
  new_order_ = btree(kNewOrderTab, sizeof(NewOrderRow));
  order_ = btree(kOrderTab, sizeof(OrderRow));
  order_line_ = btree(kOrderLineTab, sizeof(OrderLineRow));
  item_ = hash(kItemTab, sizeof(ItemRow), std::max<uint64_t>(512, config_.items / 2));
  stock_ = hash(kStockTab, sizeof(StockRow), std::max<uint64_t>(1024, wpn * config_.items / 2));
  cust_last_order_ = hash(kCustLastOrderTab, sizeof(CustLastOrderRow),
                          std::max<uint64_t>(1024, wpn * config_.districts *
                                                       config_.customers_per_district / 2));
  cust_name_ = btree(kCustNameTab, sizeof(CustNameRow));
}

void TpccWorkload::Load(rep::PrimaryBackupReplicator* replicator) {
  cluster::Cluster* cluster = engine_->cluster();
  const uint32_t replicas = replicator != nullptr ? replicator->config().replicas : 1;

  auto seed = [&](store::Table* table, uint32_t node, uint64_t key, uint64_t off) {
    if (replicator == nullptr || table->kind() != StoreKind::kHash) {
      return;
    }
    std::vector<std::byte> image(table->record_bytes());
    cluster->node(node)->bus()->Read(nullptr, off, image.data(), image.size());
    for (uint32_t r = 1; r < replicas; ++r) {
      replicator->SeedBackup(cluster->BackupOf(node, r), table->id(), node, key, image.data(),
                             image.size());
    }
  };
  auto put = [&](sim::ThreadContext* lctx, store::Table* table, uint32_t node, uint64_t key,
                 const void* value) {
    uint64_t off = 0;
    const Status s = table->hash(node)->Insert(lctx, key, value, &off);
    DRTMR_CHECK(s == Status::kOk) << "load failed: " << StatusString(s) << " key " << key;
    seed(table, node, key, off);
  };

  std::vector<std::thread> loaders;
  for (uint32_t part = 0; part < pmap_->num_partitions(); ++part) {
    loaders.emplace_back([&, part] {
      const uint32_t node = pmap_->node_of(part);
      sim::ThreadContext* lctx = cluster->node(node)->context(0);
      FastRand rng(part + 999);
      // Items are replicated on every node (read-only).
      for (uint64_t i = 1; i <= config_.items; ++i) {
        ItemRow row{};
        row.price = rng.Range(100, 10000);
        row.im_id = static_cast<uint32_t>(rng.Range(1, 10000));
        std::snprintf(row.name, sizeof(row.name), "item-%llu",
                      static_cast<unsigned long long>(i));
        uint64_t off = 0;
        DRTMR_CHECK(item_->hash(node)->Insert(lctx, IKey(i), &row, &off) == Status::kOk);
      }
      for (uint32_t wi = 0; wi < config_.warehouses_per_node; ++wi) {
        const uint64_t w = static_cast<uint64_t>(part) * config_.warehouses_per_node + wi + 1;
        WarehouseRow wrow{};
        wrow.tax_pct = static_cast<uint32_t>(rng.Range(0, 2000));
        put(lctx, warehouse_, node, WKey(w), &wrow);
        for (uint64_t d = 1; d <= config_.districts; ++d) {
          DistrictRow drow{};
          drow.next_o_id = 1;
          drow.tax_pct = static_cast<uint32_t>(rng.Range(0, 2000));
          put(lctx, district_, node, DKey(w, d), &drow);
          for (uint64_t c = 1; c <= config_.customers_per_district; ++c) {
            CustomerRow crow{};
            crow.balance = -1000;  // spec: C_BALANCE = -10.00
            std::snprintf(crow.data, sizeof(crow.data), "customer-%llu-%llu-%llu",
                          static_cast<unsigned long long>(w), static_cast<unsigned long long>(d),
                          static_cast<unsigned long long>(c));
            put(lctx, customer_, node, CKey(w, d, c), &crow);
            CustLastOrderRow lo{0};
            put(lctx, cust_last_order_, node, CKey(w, d, c), &lo);
            // Secondary index for payment-by-last-name (spec: 60% of
            // payments select the customer by C_LAST).
            {
              const uint64_t name = LastNameOf(c, &rng);
              const uint64_t name_key = CNameKey(w, d, name, c);
              const uint64_t rec_bytes = cust_name_->record_bytes();
              const uint64_t roff = cluster->node(node)->allocator()->Alloc(rec_bytes);
              DRTMR_CHECK(roff != cluster::RegionAllocator::kInvalidOffset);
              CustNameRow nrow{c};
              std::vector<std::byte> image(rec_bytes);
              store::RecordLayout::Init(image.data(), name_key, 2, 2, &nrow, sizeof(nrow));
              // drtmr-lint: allow(registered-memory): initial-load bulk populate before any traffic
              cluster->node(node)->bus()->Write(nullptr, roff, image.data(), rec_bytes);
              DRTMR_CHECK(cust_name_->btree(node)->Insert(lctx, name_key, roff) == Status::kOk);
            }
          }
        }
        for (uint64_t i = 1; i <= config_.items; ++i) {
          StockRow srow{};
          srow.quantity = static_cast<uint32_t>(rng.Range(10, 100));
          put(lctx, stock_, node, SKey(w, i), &srow);
        }
      }
    });
  }
  for (auto& t : loaders) {
    t.join();
  }
}

uint64_t TpccWorkload::PickLocalWarehouse(sim::ThreadContext* ctx, FastRand* rng) const {
  // Partitions currently hosted by this node (usually exactly one; more after
  // recovery re-hosts a dead machine's partitions here).
  uint32_t owned[64];
  uint32_t n = 0;
  for (uint32_t p = 0; p < pmap_->num_partitions() && n < 64; ++p) {
    if (pmap_->node_of(p) == ctx->node_id) {
      owned[n++] = p;
    }
  }
  DRTMR_CHECK(n > 0) << "node " << ctx->node_id << " hosts no partition";
  const uint32_t part = owned[rng->Uniform(n)];
  return static_cast<uint64_t>(part) * config_.warehouses_per_node +
         rng->Range(1, config_.warehouses_per_node);
}

uint64_t TpccWorkload::PickRemoteWarehouse(FastRand* rng, uint64_t home) const {
  if (total_warehouses_ == 1) {
    return home;
  }
  uint64_t w = rng->Range(1, total_warehouses_);
  if (w == home) {
    w = w % total_warehouses_ + 1;
  }
  return w;
}

uint32_t TpccWorkload::PickType(FastRand* rng) const {
  const uint64_t roll = rng->Uniform(100);
  uint64_t acc = 0;
  for (uint32_t t = 0; t < kTpccTxnTypes; ++t) {
    acc += config_.mix[t];
    if (roll < acc) {
      return t;
    }
  }
  return kNewOrder;
}

bool TpccWorkload::RunType(uint32_t type, sim::ThreadContext* ctx, txn::TxnApi* txn,
                           FastRand* rng, uint64_t w) {
  switch (type) {
    case kNewOrder:
      return TxNewOrder(ctx, txn, rng, w);
    case kPayment:
      return TxPayment(ctx, txn, rng, w);
    case kOrderStatus:
      return TxOrderStatus(ctx, txn, rng, w);
    case kDelivery:
      return TxDelivery(ctx, txn, rng, w);
    case kStockLevel:
      return TxStockLevel(ctx, txn, rng, w);
  }
  return false;
}

uint32_t TpccWorkload::RunOne(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng) {
  const uint64_t w = PickLocalWarehouse(ctx, rng);
  const uint32_t type = PickType(rng);
  // Charged, escalating retry backoff (DESIGN.md §6).
  util::Backoff backoff = util::Backoff::Exponential(400, 1600, /*max_shift=*/7);
  while (!RunType(type, ctx, txn, rng, w)) {
    ctx->Charge(backoff.NextDelay(rng));
  }
  return type;
}

bool TpccWorkload::TxNewOrder(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng,
                              uint64_t w) {
  const uint32_t home = NodeOfWarehouse(w);
  const uint64_t d = rng->Range(1, config_.districts);
  const uint64_t c = rng->NuRand(1023, 1, config_.customers_per_district);
  const uint32_t ol_cnt = static_cast<uint32_t>(rng->Range(5, 15));

  struct Line {
    uint64_t i;
    uint64_t supply_w;
    uint32_t qty;
  };
  Line lines[15];
  for (uint32_t i = 0; i < ol_cnt; ++i) {
    lines[i].i = rng->NuRand(8191, 1, config_.items);
    lines[i].supply_w = rng->Percent(config_.cross_warehouse_new_order_pct)
                            ? PickRemoteWarehouse(rng, w)
                            : w;
    lines[i].qty = static_cast<uint32_t>(rng->Range(1, 10));
  }

  txn->Begin();
  WarehouseRow wrow;
  if (txn->Read(warehouse_, home, WKey(w), &wrow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  DistrictRow drow;
  if (txn->Read(district_, home, DKey(w, d), &drow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  const uint64_t o_id = drow.next_o_id;
  drow.next_o_id++;
  if (txn->Write(district_, home, DKey(w, d), &drow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  CustomerRow crow;
  if (txn->Read(customer_, home, CKey(w, d, c), &crow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }

  OrderRow orow{};
  orow.c_id = c;
  orow.entry_d = ctx->clock.now_ns();
  orow.ol_cnt = ol_cnt;
  (void)txn->Insert(order_, home, OKey(w, d, o_id), &orow);  // buffered until Commit
  NewOrderRow norow{1};
  (void)txn->Insert(new_order_, home, OKey(w, d, o_id), &norow);
  CustLastOrderRow lo{o_id};
  if (txn->Write(cust_last_order_, home, CKey(w, d, c), &lo) != Status::kOk) {
    txn->UserAbort();
    return false;
  }

  for (uint32_t i = 0; i < ol_cnt; ++i) {
    ItemRow irow;
    if (txn->Read(item_, ctx->node_id, IKey(lines[i].i), &irow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
    const uint32_t supply_node = NodeOfWarehouse(lines[i].supply_w);
    StockRow srow;
    if (txn->Read(stock_, supply_node, SKey(lines[i].supply_w, lines[i].i), &srow) !=
        Status::kOk) {
      txn->UserAbort();
      return false;
    }
    if (srow.quantity >= lines[i].qty + 10) {
      srow.quantity -= lines[i].qty;
    } else {
      srow.quantity = srow.quantity - lines[i].qty + 91;
    }
    srow.ytd += lines[i].qty;
    srow.order_cnt++;
    if (lines[i].supply_w != w) {
      srow.remote_cnt++;
    }
    if (txn->Write(stock_, supply_node, SKey(lines[i].supply_w, lines[i].i), &srow) !=
        Status::kOk) {
      txn->UserAbort();
      return false;
    }
    OrderLineRow olrow{};
    olrow.i_id = lines[i].i;
    olrow.supply_w = lines[i].supply_w;
    olrow.qty = lines[i].qty;
    olrow.amount = lines[i].qty * irow.price;
    (void)txn->Insert(order_line_, home, OLKey(w, d, o_id, i + 1), &olrow);
  }
  return txn->Commit() == Status::kOk;
}

bool TpccWorkload::TxPayment(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng,
                             uint64_t w) {
  const uint32_t home = NodeOfWarehouse(w);
  const uint64_t d = rng->Range(1, config_.districts);
  uint64_t cw = w;
  uint64_t cd = d;
  if (rng->Percent(config_.cross_warehouse_payment_pct)) {
    cw = PickRemoteWarehouse(rng, w);
    cd = rng->Range(1, config_.districts);
  }
  const uint32_t cnode = NodeOfWarehouse(cw);
  uint64_t c = rng->NuRand(1023, 1, config_.customers_per_district);
  // Spec: 60% of payments identify the customer by last name. The name index
  // is local to the customer's machine (ordered stores are local-only), so
  // the by-name path applies to home-warehouse customers; remote customers
  // are paid by id (see DESIGN.md deviations).
  if (cnode == ctx->node_id && rng->Percent(60)) {
    const uint64_t name = rng->NuRand(255, 0, 999);
    std::vector<uint64_t> matches;
    cust_name_->btree(cnode)->Scan(ctx, CNameKey(cw, cd, name, 0),
                                   CNameKey(cw, cd, name, 0xfff),
                                   [&](uint64_t key, uint64_t) {
                                     matches.push_back(key & 0xfff);
                                     return true;
                                   });
    if (!matches.empty()) {
      c = matches[matches.size() / 2];  // spec: ceil(n/2)-th by first name
    }
  }
  const uint64_t amount = rng->Range(100, 500000);

  txn->Begin();
  WarehouseRow wrow;
  if (txn->Read(warehouse_, home, WKey(w), &wrow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  wrow.ytd += amount;
  if (txn->Write(warehouse_, home, WKey(w), &wrow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  DistrictRow drow;
  if (txn->Read(district_, home, DKey(w, d), &drow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  drow.ytd += amount;
  if (txn->Write(district_, home, DKey(w, d), &drow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  CustomerRow crow;
  if (txn->Read(customer_, cnode, CKey(cw, cd, c), &crow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  crow.balance -= static_cast<int64_t>(amount);
  crow.ytd_payment += amount;
  crow.payment_cnt++;
  if (txn->Write(customer_, cnode, CKey(cw, cd, c), &crow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  HistoryRow hrow{amount, w, d, c};
  const uint64_t hkey = (static_cast<uint64_t>(ctx->node_id) << 52) |
                        (static_cast<uint64_t>(ctx->worker_id) << 44) |
                        history_seq_.fetch_add(1, std::memory_order_relaxed);
  (void)txn->Insert(history_, home, hkey, &hrow);  // buffered until Commit
  return txn->Commit() == Status::kOk;
}

bool TpccWorkload::TxOrderStatus(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng,
                                 uint64_t w) {
  const uint32_t home = NodeOfWarehouse(w);
  const uint64_t d = rng->Range(1, config_.districts);
  const uint64_t c = rng->NuRand(1023, 1, config_.customers_per_district);

  txn->Begin(/*read_only=*/true);
  CustomerRow crow;
  if (txn->Read(customer_, home, CKey(w, d, c), &crow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  CustLastOrderRow lo;
  if (txn->Read(cust_last_order_, home, CKey(w, d, c), &lo) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  if (lo.o_id != 0) {
    OrderRow orow;
    if (txn->Read(order_, home, OKey(w, d, lo.o_id), &orow) == Status::kOk) {
      // Footprint-only scan; an abort surfaces at Commit via the read set.
      (void)txn->ScanLocal(order_line_, OLKey(w, d, lo.o_id, 0), OLKey(w, d, lo.o_id, 15),
                           [](uint64_t, const void*) { return true; });
    }
  }
  return txn->Commit() == Status::kOk;
}

bool TpccWorkload::TxDelivery(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng,
                              uint64_t w) {
  const uint32_t home = NodeOfWarehouse(w);
  DRTMR_CHECK(home == ctx->node_id);
  txn->Begin();
  for (uint64_t d = 1; d <= config_.districts; ++d) {
    uint64_t no_key = 0, no_off = 0;
    if (!new_order_->btree(home)->FirstGreaterEqual(ctx, OKey(w, d, 1), OKey(w, d, ~0ull >> 28),
                                                    &no_key, &no_off)) {
      continue;  // no pending order in this district
    }
    const uint64_t o_id = no_key & 0xfffffffffull;
    NewOrderRow norow;
    if (txn->Read(new_order_, home, no_key, &norow) != Status::kOk || norow.flag == 0) {
      continue;  // raced another delivery (committed; its removal lands after)
    }
    norow.flag = 0;  // tombstone write: serializes competing deliveries
    if (txn->Write(new_order_, home, no_key, &norow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
    (void)txn->Remove(new_order_, home, no_key);  // buffered until Commit

    OrderRow orow;
    if (txn->Read(order_, home, OKey(w, d, o_id), &orow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
    orow.carrier_id = static_cast<uint32_t>(rng->Range(1, 10));
    if (txn->Write(order_, home, OKey(w, d, o_id), &orow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
    uint64_t total = 0;
    for (uint32_t ol = 1; ol <= orow.ol_cnt; ++ol) {
      OrderLineRow olrow;
      if (txn->Read(order_line_, home, OLKey(w, d, o_id, ol), &olrow) != Status::kOk) {
        continue;
      }
      total += olrow.amount;
      olrow.delivery_d = ctx->clock.now_ns();
      if (txn->Write(order_line_, home, OLKey(w, d, o_id, ol), &olrow) != Status::kOk) {
        txn->UserAbort();
        return false;
      }
    }
    CustomerRow crow;
    if (txn->Read(customer_, home, CKey(w, d, orow.c_id), &crow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
    crow.balance += static_cast<int64_t>(total);
    crow.delivery_cnt++;
    if (txn->Write(customer_, home, CKey(w, d, orow.c_id), &crow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
  }
  return txn->Commit() == Status::kOk;
}

bool TpccWorkload::TxStockLevel(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng,
                                uint64_t w) {
  const uint32_t home = NodeOfWarehouse(w);
  const uint64_t d = rng->Range(1, config_.districts);
  const uint32_t threshold = static_cast<uint32_t>(rng->Range(10, 20));

  txn->Begin(/*read_only=*/true);
  DistrictRow drow;
  if (txn->Read(district_, home, DKey(w, d), &drow) != Status::kOk) {
    txn->UserAbort();
    return false;
  }
  const uint64_t hi_o = drow.next_o_id;
  const uint64_t lo_o = hi_o > 20 ? hi_o - 20 : 1;
  std::unordered_set<uint64_t> items;
  (void)txn->ScanLocal(order_line_, OLKey(w, d, lo_o, 0), OLKey(w, d, hi_o, 15),
                       [&](uint64_t, const void* value) {
                         OrderLineRow ol;
                         std::memcpy(&ol, value, sizeof(ol));
                         items.insert(ol.i_id);
                         return items.size() < 200;
                       });
  uint32_t low = 0;
  for (uint64_t i : items) {
    StockRow srow;
    if (txn->Read(stock_, home, SKey(w, i), &srow) != Status::kOk) {
      txn->UserAbort();
      return false;
    }
    if (srow.quantity < threshold) {
      low++;
    }
  }
  return txn->Commit() == Status::kOk;
}

uint64_t TpccWorkload::DistrictNextOrderId(uint32_t node, uint64_t w, uint64_t d) {
  const uint64_t off = district_->hash(node)->Lookup(nullptr, DKey(w, d));
  DRTMR_CHECK(off != 0);
  std::vector<std::byte> rec(district_->record_bytes());
  engine_->cluster()->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
  DistrictRow row;
  store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
  return row.next_o_id;
}

namespace {

template <typename Row>
bool ReadHashRow(cluster::Cluster* cluster, store::Table* table, uint32_t node, uint64_t key,
                 Row* out) {
  const uint64_t off = table->hash(node)->Lookup(nullptr, key);
  if (off == 0) {
    return false;
  }
  std::vector<std::byte> rec(table->record_bytes());
  cluster->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
  store::RecordLayout::GatherValue(rec.data(), out, sizeof(*out));
  return true;
}

void Flag(TpccWorkload::ConsistencyReport* rep, std::string msg) {
  rep->ok = false;
  if (rep->violations.size() < 20) {
    rep->violations.push_back(std::move(msg));
  }
}

std::string FmtWd(const char* what, uint64_t w, uint64_t d, uint64_t got, uint64_t want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (w=%llu d=%llu): got %llu, want %llu", what,
                static_cast<unsigned long long>(w), static_cast<unsigned long long>(d),
                static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
  return buf;
}

}  // namespace

TpccWorkload::ConsistencyReport TpccWorkload::CheckConsistency() {
  ConsistencyReport rep;
  cluster::Cluster* cluster = engine_->cluster();
  for (uint64_t w = 1; w <= total_warehouses_; ++w) {
    const uint32_t node = NodeOfWarehouse(w);
    WarehouseRow wrow;
    if (!ReadHashRow(cluster, warehouse_, node, WKey(w), &wrow)) {
      Flag(&rep, FmtWd("warehouse row missing", w, 0, 0, 1));
      continue;
    }
    uint64_t district_ytd_sum = 0;
    for (uint64_t d = 1; d <= config_.districts; ++d) {
      DistrictRow drow;
      if (!ReadHashRow(cluster, district_, node, DKey(w, d), &drow)) {
        Flag(&rep, FmtWd("district row missing", w, d, 0, 1));
        continue;
      }
      district_ytd_sum += drow.ytd;

      // ORDER rows are never deleted: exactly next_o_id - 1 per district,
      // with o_ids 1..next_o_id-1 (A2 plus a completeness check on inserts).
      uint64_t order_count = 0;
      uint64_t order_max = 0;
      order_->btree(node)->Scan(nullptr, OKey(w, d, 1), OKey(w, d, ~0ull >> 28),
                                [&](uint64_t key, uint64_t) {
                                  ++order_count;
                                  order_max = key & 0xfffffffffull;
                                  return true;
                                });
      const uint64_t issued = drow.next_o_id - 1;
      if (order_count != issued) {
        Flag(&rep, FmtWd("A2: ORDER row count vs issued orders", w, d, order_count, issued));
      }
      if (issued > 0 && order_max != issued) {
        Flag(&rep, FmtWd("A2: max(O_ID) vs D_NEXT_O_ID-1", w, d, order_max, issued));
      }

      // Pending NEW-ORDER rows form a contiguous suffix ending at the newest
      // order (deliveries consume the oldest first).
      uint64_t no_count = 0;
      uint64_t no_min = ~0ull;
      uint64_t no_max = 0;
      new_order_->btree(node)->Scan(nullptr, OKey(w, d, 1), OKey(w, d, ~0ull >> 28),
                                    [&](uint64_t key, uint64_t) {
                                      const uint64_t o = key & 0xfffffffffull;
                                      ++no_count;
                                      no_min = std::min(no_min, o);
                                      no_max = std::max(no_max, o);
                                      return true;
                                    });
      if (no_count > 0) {
        if (no_max != issued) {
          Flag(&rep, FmtWd("A2: max(NO_O_ID) vs D_NEXT_O_ID-1", w, d, no_max, issued));
        }
        if (no_max - no_min + 1 != no_count) {
          Flag(&rep, FmtWd("A3: NEW-ORDER contiguity", w, d, no_count, no_max - no_min + 1));
        }
      }
    }
    if (wrow.ytd != district_ytd_sum) {
      Flag(&rep, FmtWd("A1: W_YTD vs sum(D_YTD)", w, 0, wrow.ytd, district_ytd_sum));
    }
  }
  return rep;
}

std::string TpccWorkload::ConsistencyReport::Summary() const {
  std::string out = ok ? "tpcc consistent" : "TPCC INCONSISTENT";
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  return out;
}

}  // namespace drtmr::workload
