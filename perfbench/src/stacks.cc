#include "perfbench/src/stacks.h"

#include <algorithm>

namespace perfbench {

namespace {

using namespace drtmr;

Shape SmallBankLocal() {
  Shape s;
  s.name = "smallbank_local";
  s.kind = Kind::kSmallBank;
  s.machines = 2;
  s.workers = 2;
  s.accounts_per_node = 20000;
  s.hot_accounts = 4000;
  s.cross_pct = 1;
  s.warmup_txns = 12500;
  s.round_txns = 12500;
  s.rounds_per_epoch = 8;
  return s;
}

Shape SmallBankRepDist() {
  Shape s = SmallBankLocal();
  s.name = "smallbank_rep_dist";
  s.machines = 3;
  s.workers = 1;
  s.replication = true;
  s.cross_pct = 20;
  s.warmup_txns = 8000;
  s.round_txns = 8000;
  s.rounds_per_epoch = 25;
  return s;
}

Shape TpccMix() {
  Shape s;
  s.name = "tpcc_mix";
  s.kind = Kind::kTpcc;
  s.machines = 2;
  s.workers = 1;  // one worker per warehouse (ROADMAP item 2: same-warehouse contention)
  s.customers_per_district = 3000;
  s.items = 10000;
  s.warmup_txns = 500;
  s.round_txns = 1500;
  s.rounds_per_epoch = 8;
  return s;
}

// Times one set-up step on the main thread (wall clock, plus a span).
template <typename Fn>
double TimeStep(SpanName name, WorkerTrace* trace, Fn&& fn) {
  WorkerTrace::Open open{};
  if (trace != nullptr) {
    open = trace->OpenCall(name, nullptr);
  }
  const uint64_t t0 = HostNowNs();
  fn();
  const uint64_t t1 = HostNowNs();
  if (trace != nullptr) {
    trace->CloseCall(open, nullptr);
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

}  // namespace

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {SmallBankLocal(), SmallBankRepDist(), TpccMix()};
  return shapes;
}

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : Shapes()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

Stack::Stack(const Shape& shape, SetupTimes* times, WorkerTrace* setup_trace) : shape_(shape) {
  times->cluster_s = TimeStep(SpanName::kSetupCluster, setup_trace, [&] {
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = shape.machines;
    ccfg.workers_per_node = shape.workers;
    ccfg.memory_bytes = shape.memory_mb << 20;
    // The §4.4 GLOB fused lock+validate commit path, as the bench suite runs it.
    ccfg.atomicity = sim::AtomicityLevel::kGlob;
    cluster_ = std::make_unique<cluster::Cluster>(ccfg);
    catalog_ = std::make_unique<store::Catalog>(cluster_.get());
    pmap_ = std::make_unique<cluster::PartitionMap>(shape.machines);
    coordinator_ = std::make_unique<cluster::Coordinator>();
    for (uint32_t i = 0; i < shape.machines; ++i) {
      coordinator_->Join(i, 0, ~0ull >> 2);
    }
    if (shape.replication) {
      rep::RepConfig rcfg;
      rcfg.replicas = std::min<uint32_t>(3, shape.machines);
      rcfg.group_commit_window = 8;
      replicator_ = std::make_unique<rep::PrimaryBackupReplicator>(cluster_.get(), rcfg);
    }
    txn::TxnConfig tcfg;
    tcfg.replication = shape.replication;
    tcfg.replicas = shape.replication ? 3 : 1;
    tcfg.fused_seq_lock = true;
    engine_ = std::make_unique<txn::TxnEngine>(cluster_.get(), catalog_.get(), tcfg,
                                               coordinator_.get(), replicator_.get());
  });

  times->load_s = TimeStep(SpanName::kSetupLoad, setup_trace, [&] {
    if (shape.kind == Kind::kSmallBank) {
      workload::SmallBankConfig sc;
      sc.accounts_per_node = shape.accounts_per_node;
      sc.hot_accounts = shape.hot_accounts;
      sc.cross_machine_pct = shape.cross_pct;
      bank_ = std::make_unique<workload::SmallBankWorkload>(engine_.get(), pmap_.get(), sc);
      bank_->CreateTables();
      bank_->Load(replicator_.get());
    } else {
      workload::TpccConfig tc;
      tc.warehouses_per_node = 1;
      tc.customers_per_district = shape.customers_per_district;
      tc.items = shape.items;
      tpcc_ = std::make_unique<workload::TpccWorkload>(engine_.get(), pmap_.get(), tc);
      tpcc_->CreateTables();
      tpcc_->Load(replicator_.get());
    }
  });

  times->services_s =
      TimeStep(SpanName::kSetupServices, setup_trace, [&] { engine_->StartServices(); });

  for (uint32_t n = 0; n < shape.machines; ++n) {
    for (uint32_t w = 0; w < shape.workers; ++w) {
      txns_.push_back(
          std::make_unique<txn::Transaction>(engine_.get(), cluster_->node(n)->context(w)));
    }
  }
}

Stack::~Stack() { engine_->StopServices(); }

uint32_t Stack::RunOne(sim::ThreadContext* ctx, txn::TxnApi* api, FastRand* rng) {
  return bank_ != nullptr ? bank_->RunOne(ctx, api, rng) : tpcc_->RunOne(ctx, api, rng);
}

bool Stack::Check(std::vector<std::string>* failures) {
  if (bank_ != nullptr) {
    const int64_t want = bank_->initial_total() + bank_->external_delta();
    const int64_t have = bank_->TotalBalance();
    if (have != want) {
      failures->push_back("smallbank conservation: total " + std::to_string(have) +
                          " != initial + external " + std::to_string(want));
      return false;
    }
    return true;
  }
  const workload::TpccWorkload::ConsistencyReport report = tpcc_->CheckConsistency();
  if (!report.ok) {
    failures->push_back("tpcc consistency: " + report.Summary());
  }
  return report.ok;
}

}  // namespace perfbench
