#include "src/workload/smallbank.h"

#include <thread>
#include <vector>

#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace drtmr::workload {

using txn::TxnApi;

SmallBankWorkload::SmallBankWorkload(txn::TxnEngine* engine, cluster::PartitionMap* pmap,
                                     const SmallBankConfig& config)
    : engine_(engine), pmap_(pmap), config_(config) {}

void SmallBankWorkload::CreateTables() {
  store::TableOptions opt;
  opt.kind = store::StoreKind::kHash;
  opt.value_size = sizeof(BankAccountRow);
  opt.hash_buckets = std::max<uint64_t>(1024, config_.accounts_per_node / 2);
  checking_ = engine_->catalog()->CreateTable(kCheckingTab, opt);
  savings_ = engine_->catalog()->CreateTable(kSavingsTab, opt);
}

void SmallBankWorkload::Load(rep::PrimaryBackupReplicator* replicator) {
  cluster::Cluster* cluster = engine_->cluster();
  const uint32_t replicas = replicator != nullptr ? replicator->config().replicas : 1;
  // One loader thread per *owning node*, loading all of that node's
  // partitions sequentially: a re-shaped partition map (bench/suite.cc's
  // elastic entry folds several partitions onto one node) must not put two
  // loader threads on the same ThreadContext/HTM slot.
  std::vector<std::vector<uint32_t>> parts_of_node(cluster->num_nodes());
  for (uint32_t part = 0; part < pmap_->num_partitions(); ++part) {
    parts_of_node[pmap_->node_of(part)].push_back(part);
  }
  std::vector<std::thread> loaders;
  for (uint32_t node = 0; node < cluster->num_nodes(); ++node) {
    if (parts_of_node[node].empty()) {
      continue;
    }
    loaders.emplace_back([&, node] {
      sim::ThreadContext* lctx = cluster->node(node)->context(0);
      auto put = [&](store::Table* table, uint64_t key, int64_t balance) {
        BankAccountRow row{balance, {}};
        uint64_t off = 0;
        DRTMR_CHECK(table->hash(node)->Insert(lctx, key, &row, &off) == Status::kOk);
        if (replicator != nullptr) {
          std::vector<std::byte> image(table->record_bytes());
          cluster->node(node)->bus()->Read(nullptr, off, image.data(), image.size());
          for (uint32_t r = 1; r < replicas; ++r) {
            replicator->SeedBackup(cluster->BackupOf(node, r), table->id(), node, key,
                                   image.data(), image.size());
          }
        }
      };
      for (const uint32_t part : parts_of_node[node]) {
        for (uint64_t i = 0; i < config_.accounts_per_node; ++i) {
          put(checking_, AccountKey(part, i), 10000);
          put(savings_, AccountKey(part, i), 10000);
        }
      }
    });
  }
  for (auto& t : loaders) {
    t.join();
  }
  initial_total_ =
      static_cast<int64_t>(pmap_->num_partitions() * config_.accounts_per_node) * 20000;
}

uint32_t SmallBankWorkload::PickLocalPartition(sim::ThreadContext* ctx, FastRand* rng) const {
  uint32_t owned[64];
  uint32_t n = 0;
  for (uint32_t p = 0; p < pmap_->num_partitions() && n < 64; ++p) {
    if (pmap_->node_of(p) == ctx->node_id) {
      owned[n++] = p;
    }
  }
  if (n == 0) {
    // A re-shaped placement (the elastic bench folds partitions onto a node
    // subset) can leave this worker's node without a local partition: fall
    // back to a uniform pick — all its traffic is remote until a migration
    // hands the node a shard.
    return static_cast<uint32_t>(rng->Uniform(pmap_->num_partitions()));
  }
  return owned[rng->Uniform(n)];
}

uint64_t SmallBankWorkload::PickAccount(sim::ThreadContext* ctx, FastRand* rng,
                                        bool allow_remote) const {
  uint32_t part;
  if (allow_remote && pmap_->num_partitions() > 1 && rng->Percent(config_.cross_machine_pct)) {
    part = static_cast<uint32_t>(rng->Uniform(pmap_->num_partitions()));
  } else {
    part = PickLocalPartition(ctx, rng);
  }
  const uint64_t idx = rng->Percent(config_.hot_pct)
                           ? rng->Uniform(std::min(config_.hot_accounts, config_.accounts_per_node))
                           : rng->Uniform(config_.accounts_per_node);
  return AccountKey(part, idx);
}

uint32_t SmallBankWorkload::RunOne(sim::ThreadContext* ctx, txn::TxnApi* txn, FastRand* rng) {
  const uint64_t roll = rng->Uniform(100);
  uint32_t type = kSendPayment;
  uint64_t acc = 0;
  for (uint32_t t = 0; t < kSmallBankTxnTypes; ++t) {
    acc += config_.mix[t];
    if (roll < acc) {
      type = t;
      break;
    }
  }
  const bool uses_a2 = type == kSendPayment || type == kAmalgamate;
  uint64_t a1 = 0;
  uint64_t a2 = 0;
  const auto pick = [&] {
    a1 = PickAccount(ctx, rng, /*allow_remote=*/false);
    a2 = PickAccount(ctx, rng, /*allow_remote=*/uses_a2);
    if (a2 == a1) {
      a2 = AccountKey(static_cast<uint32_t>(a1 >> 40),
                      (a1 & 0xffffffffffull) % config_.accounts_per_node);
      if (a2 == a1) {
        a2 = a1 == AccountKey(static_cast<uint32_t>(a1 >> 40), 0)
                 ? AccountKey(static_cast<uint32_t>(a1 >> 40), 1)
                 : AccountKey(static_cast<uint32_t>(a1 >> 40), 0);
      }
    }
  };
  pick();
  const int64_t v = static_cast<int64_t>(rng->Range(1, 100));

  // Charged, escalating retry backoff (DESIGN.md §6).
  util::Backoff backoff = util::Backoff::Exponential(400, 1600, /*max_shift=*/7);
  // Typed kMigrating/kStaleEpoch rejections get a bounded jittered backoff
  // and a *fresh account pick*: new requests steer away from a shard inside
  // its cutover drain window instead of hammering it (DESIGN.md §14). Never
  // drawn outside a migration window, so fault-free runs keep the historical
  // rng stream.
  util::Backoff route_backoff = util::Backoff::Exponential(400, 1600, /*max_shift=*/3);
  while (true) {
    bool done = false;
    Status commit_status = Status::kAborted;
    BankAccountRow c1{}, c2{}, s1{};
    // Routing resolves *after* Begin, against the transaction's begin epoch:
    // Route rejects a partition-map entry flipped by a newer epoch
    // (kStaleEpoch) instead of following it, and resolving any earlier would
    // let a transaction that began after a cutover's epoch stamp keep
    // writing the frozen old home — a lost update.
    txn->Begin(/*read_only=*/type == kBalance);
    uint32_t n1 = 0;
    uint32_t n2 = 0;
    const uint64_t be = engine_->fencing() ? txn->begin_epoch() : ~0ull;
    if (pmap_->Route(static_cast<uint32_t>(a1 >> 40), be,
                     /*for_write=*/type != kBalance, &n1) != Status::kOk ||
        (uses_a2 && pmap_->Route(static_cast<uint32_t>(a2 >> 40), be,
                                 /*for_write=*/true, &n2) != Status::kOk)) {
      txn->UserAbort();
      ctx->Charge(route_backoff.NextDelay(rng));
      pick();
      continue;
    }
    switch (type) {
      case kBalance: {
        if (txn->Read(checking_, n1, a1, &c1) != Status::kOk ||
            txn->Read(savings_, n1, a1, &s1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        commit_status = txn->Commit();
        done = commit_status == Status::kOk;
        break;
      }
      case kDepositChecking: {
        if (txn->Read(checking_, n1, a1, &c1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        c1.balance += v;
        if (txn->Write(checking_, n1, a1, &c1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        commit_status = txn->Commit();
        done = commit_status == Status::kOk;
        if (done) {
          external_delta_.fetch_add(v, std::memory_order_relaxed);
        }
        break;
      }
      case kTransferSavings: {
        if (txn->Read(savings_, n1, a1, &s1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        s1.balance += v;
        if (txn->Write(savings_, n1, a1, &s1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        commit_status = txn->Commit();
        done = commit_status == Status::kOk;
        if (done) {
          external_delta_.fetch_add(v, std::memory_order_relaxed);
        }
        break;
      }
      case kWithdrawChecking: {
        if (txn->Read(savings_, n1, a1, &s1) != Status::kOk ||
            txn->Read(checking_, n1, a1, &c1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        c1.balance -= v;  // cash leaves the bank
        if (txn->Write(checking_, n1, a1, &c1) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        commit_status = txn->Commit();
        done = commit_status == Status::kOk;
        if (done) {
          external_delta_.fetch_sub(v, std::memory_order_relaxed);
        }
        break;
      }
      case kSendPayment: {
        if (txn->Read(checking_, n1, a1, &c1) != Status::kOk ||
            txn->Read(checking_, n2, a2, &c2) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        if (c1.balance < v) {
          txn->UserAbort();
          done = true;  // business abort counts as an executed transaction
          break;
        }
        c1.balance -= v;
        c2.balance += v;
        if (txn->Write(checking_, n1, a1, &c1) != Status::kOk ||
            txn->Write(checking_, n2, a2, &c2) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        commit_status = txn->Commit();
        done = commit_status == Status::kOk;
        break;
      }
      case kAmalgamate: {
        if (txn->Read(savings_, n1, a1, &s1) != Status::kOk ||
            txn->Read(checking_, n1, a1, &c1) != Status::kOk ||
            txn->Read(checking_, n2, a2, &c2) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        c2.balance += s1.balance + c1.balance;
        s1.balance = 0;
        c1.balance = 0;
        if (txn->Write(savings_, n1, a1, &s1) != Status::kOk ||
            txn->Write(checking_, n1, a1, &c1) != Status::kOk ||
            txn->Write(checking_, n2, a2, &c2) != Status::kOk) {
          txn->UserAbort();
          break;
        }
        commit_status = txn->Commit();
        done = commit_status == Status::kOk;
        break;
      }
    }
    if (done) {
      return type;
    }
    if (commit_status == Status::kMigrating) {
      // The write set straddles a drain window; retrying the same account
      // would block until the cutover completes.
      ctx->Charge(route_backoff.NextDelay(rng));
      pick();
      continue;
    }
    ctx->Charge(backoff.NextDelay(rng));
  }
}

int64_t SmallBankWorkload::TotalBalance() {
  int64_t total = 0;
  for (uint32_t part = 0; part < pmap_->num_partitions(); ++part) {
    const uint32_t node = pmap_->node_of(part);
    for (uint64_t i = 0; i < config_.accounts_per_node; ++i) {
      for (store::Table* t : {checking_, savings_}) {
        const uint64_t off = t->hash(node)->Lookup(nullptr, AccountKey(part, i));
        DRTMR_CHECK(off != 0);
        std::vector<std::byte> rec(t->record_bytes());
        engine_->cluster()->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
        BankAccountRow row;
        store::RecordLayout::GatherValue(rec.data(), &row, sizeof(row));
        total += row.balance;
      }
    }
  }
  return total;
}

}  // namespace drtmr::workload
