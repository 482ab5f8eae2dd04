// Workload shapes and the in-process cluster ("stack") each run builds from
// the library's public constructors. perfbench/README.md records why each
// shape exists.
#ifndef PERFBENCH_SRC_STACKS_H_
#define PERFBENCH_SRC_STACKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/cluster/coordinator.h"
#include "src/rep/primary_backup.h"
#include "src/txn/transaction.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

namespace perfbench {

enum class Kind { kSmallBank, kTpcc };

struct Shape {
  std::string name;
  Kind kind = Kind::kSmallBank;
  uint32_t machines = 2;
  uint32_t workers = 1;  // simulated worker threads per machine
  bool replication = false;
  size_t memory_mb = 64;
  // SmallBank.
  uint64_t accounts_per_node = 0;
  uint64_t hot_accounts = 0;
  uint32_t cross_pct = 1;  // distributed SendPayment / Amalgamate
  // TPC-C (one warehouse per machine; remote-warehouse shares are the
  // library defaults, 1% of new-order items and 15% of payments).
  uint32_t customers_per_district = 0;
  uint32_t items = 0;
  // Closed-loop sizing, per worker: an unrecorded warm-up round opens every
  // epoch (one freshly built stack), then rounds_per_epoch measured rounds.
  uint64_t warmup_txns = 0;
  uint64_t round_txns = 0;
  uint32_t rounds_per_epoch = 0;

  uint32_t total_workers() const { return machines * workers; }
  uint32_t txn_types() const {
    return kind == Kind::kSmallBank ? uint32_t{drtmr::workload::kSmallBankTxnTypes}
                                    : uint32_t{drtmr::workload::kTpccTxnTypes};
  }
};

// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Shape>& Shapes();
// nullptr for an unknown name.
const Shape* FindShape(const std::string& name);

// Wall seconds of each set-up step.
struct SetupTimes {
  double cluster_s = 0;   // cluster, catalog, partition map, coordinator, replicator, engine
  double load_s = 0;      // CreateTables + Load
  double services_s = 0;  // StartServices
  double total() const { return cluster_s + load_s + services_s; }
};

// One built, loaded cluster with its services running and one Transaction per
// (machine, worker) slot. Destruction stops the services.
class Stack {
 public:
  // `setup_trace` (nullable) receives one span per set-up step.
  Stack(const Shape& shape, SetupTimes* times, WorkerTrace* setup_trace);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Executes one workload transaction to commit through `api`; returns its type.
  uint32_t RunOne(drtmr::sim::ThreadContext* ctx, drtmr::txn::TxnApi* api,
                  drtmr::FastRand* rng);

  // Output check at quiescence. SmallBank: money is conserved. TPC-C: the
  // spec's consistency conditions hold. Appends one line per failure.
  bool Check(std::vector<std::string>* failures);

  drtmr::cluster::Cluster* cluster() { return cluster_.get(); }
  drtmr::txn::TxnEngine* engine() { return engine_.get(); }
  drtmr::rep::PrimaryBackupReplicator* replicator() { return replicator_.get(); }
  drtmr::txn::Transaction* txn(uint32_t machine, uint32_t worker) {
    return txns_[machine * shape_.workers + worker].get();
  }

 private:
  const Shape& shape_;
  std::unique_ptr<drtmr::cluster::Cluster> cluster_;
  std::unique_ptr<drtmr::store::Catalog> catalog_;
  std::unique_ptr<drtmr::cluster::PartitionMap> pmap_;
  std::unique_ptr<drtmr::cluster::Coordinator> coordinator_;
  std::unique_ptr<drtmr::rep::PrimaryBackupReplicator> replicator_;
  std::unique_ptr<drtmr::txn::TxnEngine> engine_;
  std::unique_ptr<drtmr::workload::SmallBankWorkload> bank_;
  std::unique_ptr<drtmr::workload::TpccWorkload> tpcc_;
  std::vector<std::unique_ptr<drtmr::txn::Transaction>> txns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STACKS_H_
