#include "src/chk/torture.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "src/chk/history.h"
#include "src/chk/protocol_analyzer.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/membership.h"
#include "src/cluster/node.h"
#include "src/cluster/partition_map.h"
#include "src/rep/migration.h"
#include "src/rep/primary_backup.h"
#include "src/rep/recovery.h"
#include "src/sim/htm.h"
#include "src/store/hash_store.h"
#include "src/store/record.h"
#include "src/store/table.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"
#include "src/util/rand.h"
#include "src/util/time_gate.h"

namespace drtmr::chk {
namespace {

struct Cell {
  int64_t value;
  uint64_t pad[6];
};

constexpr uint32_t kTableId = 1;
constexpr int64_t kInitialBalance = 1000;

// Victim workers park this far (virtual time) before the kill instant so the
// machine dies between transactions — fail-stop, never fail-torn. Generous
// relative to one transfer's virtual cost (a few microseconds).
constexpr uint64_t kKillMarginNs = 40'000;

// Window of the no-oracle layer's TimeGate. It must stay below the commit
// guard so a straggler's commit-entry clock cannot sit far enough behind the
// driver's to outrun an expired lease.
constexpr uint64_t kGateWindowNs = 8'000;
static_assert(kGateWindowNs < cluster::kCommitGuardNs,
              "a straggler could commit past its expired lease");

uint64_t KeyOf(uint32_t part, uint64_t i) {
  return (static_cast<uint64_t>(part) << 16) | (i + 1);
}

// Zipfian index sampler over [0, n): P(i) ∝ 1/(i+1)^theta by inverse CDF.
// Inactive (and cost-free at the pick site) when theta <= 0, so the default
// uniform shapes reproduce byte-identical histories for existing seeds. The
// pick site rotates the rank by the partition id so each node has a distinct
// hot key — otherwise every partition's traffic would collapse onto index 0
// and cross-node transfers would see no skew at the remote side.
class ZipfPicker {
 public:
  ZipfPicker(uint32_t n, double theta) {
    if (theta <= 0.0 || n <= 1) {
      return;
    }
    cdf_.resize(n);
    double acc = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) {
      c /= acc;
    }
  }

  bool active() const { return !cdf_.empty(); }

  uint32_t Pick(FastRand* rng) const {
    const double u =
        static_cast<double>(rng->Uniform(1u << 30)) / static_cast<double>(1u << 30);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

const char* TorturePlanKindName(TorturePlanKind kind) {
  switch (kind) {
    case TorturePlanKind::kClean:
      return "clean";
    case TorturePlanKind::kDelay:
      return "delay";
    case TorturePlanKind::kHtmAbort:
      return "htm-abort";
    case TorturePlanKind::kFreeze:
      return "freeze";
    case TorturePlanKind::kPartition:
      return "partition";
    case TorturePlanKind::kKill:
      return "kill";
    case TorturePlanKind::kNumKinds:
      break;
  }
  return "?";
}

sim::FaultPlan MakeTorturePlan(TorturePlanKind kind, uint64_t seed, uint32_t nodes) {
  // Pure function of (kind, seed, nodes): the sweep reproduces any failure
  // from the three numbers it prints.
  FastRand rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(kind) + 1);
  sim::FaultPlan plan(seed);
  const auto any = sim::FaultPlan::kAnyNode;
  switch (kind) {
    case TorturePlanKind::kClean:
    case TorturePlanKind::kNumKinds:
      break;
    case TorturePlanKind::kDelay: {
      // Background jitter on every path plus one heavily delayed pair; the
      // posted-verb variants slide completions, reordering batch arrival.
      plan.DelayVerbs(any, any, {0, 0}, 200 + rng.Uniform(2000),
                      /*ppm=*/300'000 + rng.Uniform(400'000));
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(nodes));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(nodes));
      const uint64_t from = 20'000 + rng.Uniform(100'000);
      plan.DelayVerbs(a, b, {from, from + 150'000}, 5'000 + rng.Uniform(10'000));
      break;
    }
    case TorturePlanKind::kHtmAbort: {
      // Conflict-coded aborts at the commit region drive the §6.1 fallback;
      // capacity-coded aborts at the local-read region drive its retry loop.
      plan.ForceHtmAbort(obs::HtmSite::kCommit,
                         static_cast<uint32_t>(sim::HtmTxn::AbortCode::kConflict),
                         /*ppm=*/150'000 + rng.Uniform(250'000));
      plan.ForceHtmAbort(obs::HtmSite::kLocalRead,
                         static_cast<uint32_t>(sim::HtmTxn::AbortCode::kCapacity),
                         /*ppm=*/50'000 + rng.Uniform(100'000));
      break;
    }
    case TorturePlanKind::kFreeze: {
      const uint32_t victim = static_cast<uint32_t>(rng.Uniform(nodes));
      const uint64_t from = 30'000 + rng.Uniform(100'000);
      const uint64_t dur = 40'000 + rng.Uniform(80'000);
      plan.Freeze(victim, {from, from + dur});
      // A second, later freeze of (usually) another node.
      const uint32_t victim2 = static_cast<uint32_t>(rng.Uniform(nodes));
      const uint64_t from2 = from + dur + rng.Uniform(100'000);
      plan.Freeze(victim2, {from2, from2 + 30'000 + rng.Uniform(50'000)});
      break;
    }
    case TorturePlanKind::kPartition: {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(nodes));
      const uint32_t b = (a + 1 + static_cast<uint32_t>(rng.Uniform(nodes - 1))) % nodes;
      const uint64_t from = 30'000 + rng.Uniform(80'000);
      plan.Partition(a, b, {from, from + 50'000 + rng.Uniform(100'000)});
      plan.DelayVerbs(any, any, {0, 0}, 500 + rng.Uniform(1'500),
                      /*ppm=*/100'000 + rng.Uniform(200'000));
      break;
    }
    case TorturePlanKind::kKill: {
      const uint32_t victim = static_cast<uint32_t>(rng.Uniform(nodes));
      plan.KillAt(victim, 120'000 + rng.Uniform(80'000));
      break;
    }
  }
  return plan;
}

std::string TortureResult::Summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAILED") << ": " << committed << " transfers, " << audits << " audits";
  if (killed) {
    os << ", killed+recovered (" << recovered_records << " records rehosted)";
  }
  if (epoch_changes > 0) {
    os << "\n  failover: " << suspicions << " suspicions, " << epoch_changes
       << " epoch changes, " << recoveries << " recoveries, " << rejoins << " rejoins";
  }
  if (migrations > 0) {
    os << "\n  migration: " << migrations << " started, " << migrations_committed
       << " committed, " << migrations_rolled_back << " rolled back";
  }
  os << "\n  checker: " << check.Summary();
  if (violations > 0) {
    os << "\n  analyzer: " << violations << " protocol violation(s)";
  }
  for (const std::string& e : errors) {
    os << "\n  oracle: " << e;
  }
  return os.str();
}

TortureResult RunTorture(const TortureOptions& opt) {
  const TortureShape& shape = opt.shape;
  const uint32_t nodes = shape.nodes;
  const uint32_t replicas = std::min(shape.replicas, nodes);
  const bool replication = replicas > 1;

  cluster::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = shape.workers + 1;  // extra slot runs the read-only auditor
  cfg.memory_bytes = 16 << 20;
  cfg.log_bytes = 4 << 20;
  // Enable the analyzer before the table load so every record registers its
  // shadow. seq parity only carries makeup-window meaning under replication
  // (without it, commits step the seq by 1 and parity alternates).
  ProtocolAnalyzer& analyzer = ProtocolAnalyzer::Global();
  if (opt.analyze) {
    analyzer.Reset();
    analyzer.set_seq_parity(replication);
    analyzer.Enable(true);
  }

  cluster::Cluster cluster(cfg);
  store::Catalog catalog(&cluster);
  store::TableOptions topt;
  topt.value_size = sizeof(Cell);
  topt.hash_buckets = 256;
  store::Table* table = catalog.CreateTable(kTableId, topt);

  cluster::Coordinator coordinator;
  // No-oracle mode nodes hold real leases that the membership layer has to
  // keep renewing; oracle mode keeps the effectively-infinite leases.
  cluster::MembershipConfig mcfg;
  mcfg.seed = opt.seed;
  for (uint32_t i = 0; i < nodes; ++i) {
    coordinator.Join(i, 0, opt.no_oracle ? mcfg.lease_ns : (~0ull >> 2));
  }
  std::unique_ptr<rep::PrimaryBackupReplicator> replicator;
  if (replication) {
    rep::RepConfig rcfg;
    rcfg.replicas = replicas;
    rcfg.group_commit_window = shape.group_commit_window;
    rcfg.test = opt.rep_test;
    replicator = std::make_unique<rep::PrimaryBackupReplicator>(&cluster, rcfg);
  }
  txn::TxnConfig tcfg;
  tcfg.replication = replication;
  tcfg.unsafe_skip_read_validation = opt.unsafe_skip_read_validation;
  txn::TxnEngine engine(&cluster, &catalog, tcfg, &coordinator, replicator.get());
  engine.StartServices();
  cluster::PartitionMap pmap(nodes);

  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint64_t i = 0; i < shape.keys_per_node; ++i) {
      Cell c{kInitialBalance, {}};
      const Status is = table->hash(n)->Insert(cluster.node(n)->context(0), KeyOf(n, i), &c,
                                               nullptr);
      DRTMR_CHECK(is == Status::kOk) << "torture table load failed";
      if (replicator != nullptr) {
        const uint64_t off = table->hash(n)->Lookup(nullptr, KeyOf(n, i));
        std::vector<std::byte> img(table->record_bytes());
        cluster.node(n)->bus()->Read(nullptr, off, img.data(), img.size());
        for (uint32_t r = 1; r < replicas; ++r) {
          replicator->SeedBackup(cluster.BackupOf(n, r), kTableId, n, KeyOf(n, i), img.data(),
                                 img.size());
        }
      }
    }
  }
  const int64_t total = static_cast<int64_t>(nodes) * shape.keys_per_node * kInitialBalance;

  const sim::FaultPlan local_plan =
      opt.plan_override != nullptr ? *opt.plan_override
                                   : MakeTorturePlan(opt.plan_kind, opt.seed, nodes);
  const sim::FaultPlan& plan = local_plan;
  cluster.SetFaultPlan(&plan);

  uint32_t victim = sim::FaultPlan::kAnyNode;
  for (uint32_t n = 0; n < nodes; ++n) {
    if (plan.KillTimeOf(n) != ~0ull) {
      victim = n;
    }
  }

  // --- no-oracle failover layer ---
  TimeGate gate(kGateWindowNs);
  std::vector<uint32_t> worker_gate(nodes * shape.workers, 0);
  std::vector<uint32_t> auditor_gate(nodes, 0);
  std::unique_ptr<rep::RecoveryManager> auto_rm;
  std::unique_ptr<cluster::MembershipService> membership;
  std::atomic<uint64_t> auto_rehosted{0};
  if (opt.no_oracle) {
    DRTMR_CHECK(replication);  // recovery needs backups: replicas >= 2
    for (uint32_t n = 0; n < nodes; ++n) {
      for (uint32_t w = 0; w < shape.workers; ++w) {
        worker_gate[n * shape.workers + w] =
            gate.AddClock(&cluster.node(n)->context(w)->clock);
      }
      auditor_gate[n] = gate.AddClock(&cluster.node(n)->context(shape.workers)->clock);
    }
    auto_rm = std::make_unique<rep::RecoveryManager>(&engine, replicator.get(), &coordinator);
    membership =
        std::make_unique<cluster::MembershipService>(&cluster, &coordinator, &pmap, mcfg);
    membership->set_recovery_fn([&](uint32_t dead, uint32_t host) {
      const rep::RecoveryReport rep = auto_rm->RecoverAfterFailure(
          cluster.node(host)->tool_context(), dead, host, /*pmap=*/nullptr);
      auto_rehosted.fetch_add(rep.records_rehosted);
    });
    membership->set_time_gate(&gate);
    engine.set_membership(membership.get());
    cluster.set_time_gate(&gate);
    membership->Start();
  }

  // --- live-migration layer (DESIGN.md §14) ---
  // Built before the worker threads exist so the write-admission block is
  // registered with the engine from the first commit.
  std::unique_ptr<rep::MigrationManager> migrator;
  if (opt.migrate) {
    DRTMR_CHECK(opt.no_oracle)
        << "migrate mode needs the epoch-fence substrate (no_oracle)";
    rep::MigrationSpec mspec;
    mspec.tables = {table};
    mspec.partition_of = [](uint64_t key) { return static_cast<uint32_t>(key >> 16); };
    mspec.seed = opt.seed;
    migrator = std::make_unique<rep::MigrationManager>(&engine, replicator.get(),
                                                       &coordinator, &pmap, std::move(mspec));
  }

  TortureResult result;
  result.killed = victim != sim::FaultPlan::kAnyNode;
  std::mutex err_mu;
  auto flag = [&](const std::string& msg) {
    std::lock_guard<std::mutex> g(err_mu);
    if (result.errors.size() < 20) {
      result.errors.push_back(msg);
    }
  };

  HistoryRecorder::Global().Reset();
  HistoryRecorder::Global().Enable(true);

  // One transfer with retry-until-commit; every loop re-checks the kill
  // boundary so a victim worker parks at a transaction boundary.
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> audits{0};
  std::atomic<uint32_t> running{nodes * shape.workers};
  const bool debug = std::getenv("DRTMR_TORTURE_DEBUG") != nullptr;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> dbg_stage;
  for (uint32_t i = 0; i < nodes * shape.workers; ++i) {
    dbg_stage.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  // Shared, read-only after construction; the post-kill probes stay uniform
  // on purpose (they verify coverage of the recovered partition, not
  // contention behaviour).
  const ZipfPicker zipf(shape.keys_per_node, shape.zipf_theta);
  std::vector<std::thread> workers;
  for (uint32_t n = 0; n < nodes; ++n) {
    const uint64_t kill_ns = plan.KillTimeOf(n);
    for (uint32_t w = 0; w < shape.workers; ++w) {
      workers.emplace_back([&, n, w, kill_ns] {
        sim::ThreadContext* ctx = cluster.node(n)->context(w);
        txn::Transaction txn(&engine, ctx);
        FastRand rng(opt.seed * 131 + n * 31 + w + 5);
        // Jittered escalation for routing rejections (kStaleEpoch/kMigrating):
        // the drain window is bounded, so callers back off rather than spin.
        // Draws from `rng` only on the rejection paths, so fault-free
        // histories stay byte-identical for existing seeds.
        util::Backoff route_backoff = util::Backoff::Exponential(400, 1600, /*max_shift=*/7);
        std::atomic<uint64_t>& stage = *dbg_stage[n * shape.workers + w];
        uint64_t done = 0;
        uint64_t attempts = 0;
        const uint64_t max_attempts = static_cast<uint64_t>(shape.txns_per_worker) * 50;
        while (done < shape.txns_per_worker && attempts < max_attempts) {
          if (kill_ns != ~0ull && ctx->clock.now_ns() + kKillMarginNs >= kill_ns) {
            break;  // our machine is about to fail-stop
          }
          ++attempts;
          stage.store(attempts * 10 + 1, std::memory_order_relaxed);
          const uint32_t fp = static_cast<uint32_t>(rng.Uniform(nodes));
          const uint32_t tp = static_cast<uint32_t>(rng.Uniform(nodes));
          const uint64_t from =
              KeyOf(fp, zipf.active() ? (zipf.Pick(&rng) + fp) % shape.keys_per_node
                                      : rng.Uniform(shape.keys_per_node));
          const uint64_t to =
              KeyOf(tp, zipf.active() ? (zipf.Pick(&rng) + tp) % shape.keys_per_node
                                      : rng.Uniform(shape.keys_per_node));
          if (from == to) {
            continue;
          }
          const int64_t amt = 1 + static_cast<int64_t>(rng.Uniform(9));
          txn.Begin();
          // Route once per attempt, after Begin, against this transaction's
          // begin epoch: an entry flipped under a newer epoch (recovery or a
          // migration cutover) rejects the stale router here instead of
          // wasting the commit path, and a partition inside its migration
          // write-drain window rejects writers outright. Legacy non-fenced
          // runs pass ~0 and accept every entry (begin_epoch stays 0 there
          // while scripted recovery raises entry epochs).
          const uint64_t be = engine.fencing() ? txn.begin_epoch() : ~0ull;
          uint32_t fn = 0, tn = 0;
          if (pmap.Route(fp, be, /*for_write=*/true, &fn) != Status::kOk ||
              pmap.Route(tp, be, /*for_write=*/true, &tn) != Status::kOk) {
            txn.UserAbort();
            ctx->Charge(route_backoff.NextDelay(&rng));
            continue;
          }
          route_backoff.Reset();
          Cell a{}, b{};
          stage.store(attempts * 10 + 2, std::memory_order_relaxed);
          if (txn.Read(table, fn, from, &a) != Status::kOk ||
              txn.Read(table, tn, to, &b) != Status::kOk) {
            txn.UserAbort();
            continue;
          }
          a.value -= amt;
          b.value += amt;
          stage.store(attempts * 10 + 3, std::memory_order_relaxed);
          if (txn.Write(table, fn, from, &a) != Status::kOk ||
              txn.Write(table, tn, to, &b) != Status::kOk) {
            txn.UserAbort();
            continue;
          }
          stage.store(attempts * 10 + 4, std::memory_order_relaxed);
          const Status cs = txn.Commit();
          if (cs == Status::kOk) {
            ++done;
          } else if (cs == Status::kMigrating) {
            // The write drain raced our admission check; wait it out.
            ctx->Charge(route_backoff.NextDelay(&rng));
          }
        }
        // A surviving worker flushes its group-commit window before leaving;
        // a worker parked for the kill does not (fail-stop takes it as-is —
        // exactly the mid-window state recovery must handle).
        const bool parked =
            kill_ns != ~0ull && ctx->clock.now_ns() + kKillMarginNs >= kill_ns;
        if (replicator != nullptr && !parked) {
          replicator->FlushLog(ctx);
        }
        committed.fetch_add(done);
        running.fetch_sub(1);
        if (membership != nullptr) {
          gate.Done(worker_gate[n * shape.workers + w]);
        }
      });
    }
  }
  // Live-migration control thread: once the workers have built up virtual
  // time, move a seed-derived partition to a seed-derived destination while
  // they keep committing; odd seeds then move it back. Faults are NOT
  // consulted — a kill or freeze landing mid-flight must be absorbed by the
  // migration's own commit-or-rollback machinery.
  std::thread migration_thread;
  if (migrator != nullptr) {
    migration_thread = std::thread([&] {
      FastRand mrng(opt.seed * 0x9e3779b97f4a7c15ull + 0x6d19);
      const uint32_t part = static_cast<uint32_t>(mrng.Uniform(nodes));
      const uint32_t dst =
          (part + 1 + static_cast<uint32_t>(mrng.Uniform(nodes - 1))) % nodes;
      const uint64_t launch_ns = 40'000 + mrng.Uniform(40'000);
      // Wait (in real time) for some worker clock to pass the launch instant;
      // the workers finishing first is fine — the migration then runs against
      // a quiet cluster and the sweeps audit the moved placement all the same.
      // drtmr-lint: allow(wallclock): bounds a wait on real worker threads; result unaffected
      const auto launch_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (running.load(std::memory_order_relaxed) > 0 &&
             // drtmr-lint: allow(wallclock): bounds a wait on real worker threads
             std::chrono::steady_clock::now() < launch_deadline) {
        uint64_t frontier = 0;
        for (uint32_t i = 0; i < nodes; ++i) {
          frontier = std::max(frontier, cluster.node(i)->context(0)->clock.now_ns());
        }
        if (frontier >= launch_ns) {
          break;
        }
        std::this_thread::yield();
      }
      const rep::MigrationReport r1 = migrator->MigratePartition(part, dst);
      if (r1.status == Status::kOk && (opt.seed & 1) != 0) {
        (void)migrator->MigratePartition(part, r1.source);
      }
    });
  }
  std::thread monitor;
  std::atomic<bool> monitor_stop{false};
  if (debug) {
    monitor = std::thread([&] {
      while (!monitor_stop.load()) {
        std::this_thread::sleep_for(std::chrono::seconds(2));
        std::ostringstream os;
        os << "[torture] running=" << running.load() << " committed=" << committed.load()
           << " stages:";
        for (uint32_t i = 0; i < nodes * shape.workers; ++i) {
          os << " " << dbg_stage[i]->load();
        }
        std::fprintf(stderr, "%s\n", os.str().c_str());
      }
    });
  }
  // Read-only auditors on each node's extra worker slot: any committed
  // snapshot must observe the conserved total.
  std::vector<std::thread> auditors;
  for (uint32_t n = 0; n < nodes; ++n) {
    const uint64_t kill_ns = plan.KillTimeOf(n);
    auditors.emplace_back([&, n, kill_ns] {
      sim::ThreadContext* ctx = cluster.node(n)->context(shape.workers);
      txn::Transaction ro(&engine, ctx);
      while (running.load(std::memory_order_relaxed) > 0) {
        if (kill_ns != ~0ull && ctx->clock.now_ns() + kKillMarginNs >= kill_ns) {
          break;
        }
        ro.Begin(true);
        int64_t sum = 0;
        bool readable = true;
        for (uint32_t p = 0; p < nodes && readable; ++p) {
          for (uint64_t i = 0; i < shape.keys_per_node && readable; ++i) {
            Cell c{};
            readable = ro.Read(table, pmap.node_of(p), KeyOf(p, i), &c) == Status::kOk;
            sum += c.value;
            // A full snapshot spans tens of microseconds of virtual time;
            // under the no-oracle gate, sync mid-snapshot so the auditor's
            // clock cannot outrun its own lease renewals (no-op without a
            // gate; blocking mid-transaction is safe — versions are
            // re-validated at commit).
            cluster.SyncGate(&ctx->clock);
          }
        }
        if (!readable) {
          ro.UserAbort();
          std::this_thread::yield();
          continue;
        }
        if (ro.Commit() == Status::kOk) {
          audits.fetch_add(1);
          if (sum != total) {
            flag("auditor snapshot sum " + std::to_string(sum) + " != " +
                 std::to_string(total));
          }
        }
      }
      if (membership != nullptr) {
        gate.Done(auditor_gate[n]);
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  for (auto& t : auditors) {
    t.join();
  }
  if (migration_thread.joinable()) {
    migration_thread.join();
  }
  if (migrator != nullptr) {
    result.migrations = migrator->migrations_started();
    result.migrations_committed = migrator->migrations_committed();
    result.migrations_rolled_back = migrator->migrations_rolled_back();
  }
  if (monitor.joinable()) {
    monitor_stop.store(true);
    monitor.join();
  }

  uint64_t post_committed = 0;
  if (opt.no_oracle) {
    // Nothing here tells the membership layer what the plan did: detection,
    // fencing, re-hosting and rejoin all already happened (or are happening)
    // on its own threads. Formalize the kill (the victim's workers parked
    // before the instant; the plan already made it unreachable), then wait in
    // real time — virtual time keeps advancing through the membership
    // threads — until the view settles: every live node a member, the victim
    // out, and every suspicion matched by a completed recovery.
    if (result.killed) {
      cluster.Kill(victim);
    }
    // drtmr-lint: allow(wallclock): settle-wait watchdog on real membership threads
    const auto wait_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool settled = false;
    if (debug) std::fprintf(stderr, "[torture] settle-wait begin\n");
    // drtmr-lint: allow(wallclock): settle-wait watchdog on real membership threads
    while (std::chrono::steady_clock::now() < wait_deadline) {
      const cluster::ClusterView v = coordinator.view();
      bool live_ok = true;
      for (uint32_t i = 0; i < nodes; ++i) {
        if (i != victim && !v.Contains(i)) {
          live_ok = false;
          break;
        }
      }
      if (live_ok && !(result.killed && v.Contains(victim)) &&
          membership->suspicions() == membership->recoveries()) {
        settled = true;
        break;
      }
      std::this_thread::yield();
    }
    result.suspicions = membership->suspicions();
    result.epoch_changes = membership->epoch_changes();
    result.rejoins = membership->rejoins();
    result.recoveries = membership->recoveries();
    result.recovered_records = auto_rehosted.load();
    if (debug) {
      std::fprintf(stderr, "[torture] settled=%d susp=%llu rec=%llu epoch=%llu\n",
                   settled ? 1 : 0, (unsigned long long)result.suspicions,
                   (unsigned long long)result.recoveries,
                   (unsigned long long)coordinator.epoch());
    }
    if (!settled) {
      flag("membership failed to settle: epoch " + std::to_string(coordinator.epoch()) +
           ", " + std::to_string(result.suspicions) + " suspicions, " +
           std::to_string(result.recoveries) + " recoveries, " +
           std::to_string(result.rejoins) + " rejoins");
    }
    if (result.killed) {
      if (result.suspicions == 0) {
        flag("kill plan ran but the failure detector never fired");
      }
      if (result.recoveries == 0) {
        flag("kill plan ran but no automatic recovery happened");
      }
      if (pmap.node_of(victim) == victim) {
        flag("victim partition was never re-hosted");
      } else {
        // Prove the pipeline end to end: with the membership layer still
        // running (leases must stay fresh for commit admission), brand-new
        // transactions against the auto-re-hosted partition must commit.
        const uint32_t host = pmap.node_of(victim);
        sim::ThreadContext* ctx = cluster.node(host)->context(0);
        txn::Transaction txn(&engine, ctx);
        FastRand rng(opt.seed ^ 0xdead5eedull);
        uint64_t attempts = 0;
        for (uint64_t i = 0; i < 20 && attempts < 400; ++i) {
          const uint64_t from = KeyOf(victim, rng.Uniform(shape.keys_per_node));
          uint32_t tp = static_cast<uint32_t>(rng.Uniform(nodes));
          uint64_t to = KeyOf(tp, rng.Uniform(shape.keys_per_node));
          if (to == from) {
            continue;
          }
          while (attempts < 400) {
            ++attempts;
            txn.Begin();
            Cell a{}, b{};
            if (txn.Read(table, pmap.node_of(victim), from, &a) != Status::kOk ||
                txn.Read(table, pmap.node_of(tp), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            a.value -= 3;
            b.value += 3;
            if (txn.Write(table, pmap.node_of(victim), from, &a) != Status::kOk ||
                txn.Write(table, pmap.node_of(tp), to, &b) != Status::kOk) {
              txn.UserAbort();
              continue;
            }
            if (txn.Commit() == Status::kOk) {
              ++post_committed;
              break;
            }
          }
        }
        if (post_committed == 0) {
          flag("no transaction committed against the auto-re-hosted partition");
        }
      }
    }
    if (debug) std::fprintf(stderr, "[torture] burst done post=%llu, stopping membership\n",
                            (unsigned long long)post_committed);
    membership->Stop();
    cluster.set_time_gate(nullptr);
    if (debug) std::fprintf(stderr, "[torture] membership stopped\n");
  }

  // Oracle-scripted fail-stop + recovery (legacy mode): commit a
  // configuration without the victim, re-host its partition on a survivor,
  // then prove the re-hosted partition serves transactions (all still
  // recorded and checked).
  if (result.killed && !opt.no_oracle) {
    const uint32_t host = (victim + 1) % nodes;
    cluster.Kill(victim);
    coordinator.Remove(victim);
    if (replicator != nullptr) {
      rep::RecoveryManager rm(&engine, replicator.get(), &coordinator);
      const rep::RecoveryReport report =
          rm.RecoverAfterFailure(cluster.node(host)->tool_context(), victim, host, &pmap);
      result.recovered_records = report.records_rehosted;
      if (report.records_rehosted < shape.keys_per_node) {
        flag("recovery rehosted " + std::to_string(report.records_rehosted) + " < " +
             std::to_string(shape.keys_per_node) + " records");
      }

      sim::ThreadContext* ctx = cluster.node(host)->context(0);
      txn::Transaction txn(&engine, ctx);
      FastRand rng(opt.seed ^ 0xdead5eedull);
      uint64_t attempts = 0;
      for (uint64_t i = 0; i < 20 && attempts < 400; ++i) {
        // Always touch the re-hosted partition on one side.
        const uint64_t from = KeyOf(victim, rng.Uniform(shape.keys_per_node));
        uint32_t tp = static_cast<uint32_t>(rng.Uniform(nodes));
        uint64_t to = KeyOf(tp, rng.Uniform(shape.keys_per_node));
        if (to == from) {
          continue;
        }
        while (attempts < 400) {
          ++attempts;
          txn.Begin();
          Cell a{}, b{};
          if (txn.Read(table, pmap.node_of(victim), from, &a) != Status::kOk ||
              txn.Read(table, pmap.node_of(tp), to, &b) != Status::kOk) {
            txn.UserAbort();
            continue;
          }
          a.value -= 3;
          b.value += 3;
          if (txn.Write(table, pmap.node_of(victim), from, &a) != Status::kOk ||
              txn.Write(table, pmap.node_of(tp), to, &b) != Status::kOk) {
            txn.UserAbort();
            continue;
          }
          if (txn.Commit() == Status::kOk) {
            ++post_committed;
            break;
          }
        }
      }
      if (post_committed == 0) {
        flag("no transaction committed against the re-hosted partition");
      }
      // One final audited snapshot through the transaction layer.
      txn::Transaction ro(&engine, ctx);
      for (uint32_t attempt = 0; attempt < 50; ++attempt) {
        ro.Begin(true);
        int64_t sum = 0;
        bool readable = true;
        for (uint32_t p = 0; p < nodes && readable; ++p) {
          for (uint64_t i = 0; i < shape.keys_per_node && readable; ++i) {
            Cell c{};
            readable = ro.Read(table, pmap.node_of(p), KeyOf(p, i), &c) == Status::kOk;
            sum += c.value;
          }
        }
        if (!readable) {
          ro.UserAbort();
          continue;
        }
        if (ro.Commit() == Status::kOk) {
          audits.fetch_add(1);
          if (sum != total) {
            flag("post-recovery snapshot sum " + std::to_string(sum) + " != " +
                 std::to_string(total));
          }
          break;
        }
      }
    } else {
      flag("kill plan on an unreplicated shape: nothing to recover from");
    }
  }

  HistoryRecorder::Global().Enable(false);
  result.committed = committed.load() + post_committed;
  result.audits = audits.load();

  // Drain every surviving node's log rings so the backup-convergence audit
  // below sees final state, not pump lag.
  if (replicator != nullptr) {
    for (uint32_t n = 0; n < nodes; ++n) {
      if (result.killed && n == victim) {
        continue;
      }
      replicator->DrainNode(cluster.node(n)->tool_context(), n);
    }
  }

  // Quiescent sweep: conservation, no leaked locks (a lock owned by the dead
  // machine may linger until touched — passive release), committable seqs.
  // The leak rule itself is ProtocolAnalyzer::QuiescentLockLeaked, shared
  // with the analyzer's shadow sweep below: a lock owned by a dead machine
  // may linger until touched (passive release), and a fenced zombie's unlock
  // CAS was rejected by the fabric, so locks held by any ever-suspected node
  // are expected debris, not a hygiene bug.
  const ProtocolAnalyzer::LockExempt lock_exempt = [&](uint32_t owner) {
    return (result.killed && owner == victim) ||
           (membership != nullptr && owner < nodes && membership->was_suspected(owner));
  };
  int64_t final_total = 0;
  for (uint32_t p = 0; p < nodes; ++p) {
    const uint32_t n = pmap.node_of(p);
    for (uint64_t i = 0; i < shape.keys_per_node; ++i) {
      const uint64_t off = table->hash(n)->Lookup(nullptr, KeyOf(p, i));
      if (off == store::HashStore::kNoRecord) {
        flag("partition " + std::to_string(p) + " key " + std::to_string(i) +
             " unreachable at quiescence");
        continue;
      }
      std::vector<std::byte> rec(table->record_bytes());
      cluster.node(n)->bus()->Read(nullptr, off, rec.data(), rec.size());
      Cell c{};
      store::RecordLayout::GatherValue(rec.data(), &c, sizeof(c));
      final_total += c.value;
      const uint64_t lock = store::RecordLayout::GetLock(rec.data());
      if (ProtocolAnalyzer::QuiescentLockLeaked(lock, lock_exempt)) {
        flag("leaked lock on partition " + std::to_string(p) + " key " + std::to_string(i));
      }
      if (replication && store::RecordLayout::GetSeq(rec.data()) % 2 != 0) {
        flag("odd (uncommitted) seq at quiescence on partition " + std::to_string(p) +
             " key " + std::to_string(i));
      }
      // Backup convergence (the watermark contract, DESIGN.md §13): after the
      // drain, a backup copy can never be AHEAD of its primary — only decided,
      // committed slots may be applied, and every committed seq is write-back
      // visible at quiescence. And a seq names a unique committed image, so an
      // equal-seq copy must carry the identical value. A speculative or
      // aborted image leaking past the watermark breaks one of the two.
      if (replicator != nullptr) {
        const uint64_t primary_seq = store::RecordLayout::GetSeq(rec.data());
        // A record's backup ring lives under its primary's name: the
        // seed-time ring under p, and — after a committed live migration or
        // an automatic re-host — a re-seeded ring under the current owner n.
        // Audit both; a ring frozen at drain time must never be ahead of the
        // primary either, and an equal seq still names a unique image.
        const uint32_t homes[2] = {p, n};
        for (uint32_t h = 0; h < (n == p ? 1u : 2u); ++h) {
          const uint32_t home = homes[h];
          for (uint32_t r = 1; r < shape.replicas; ++r) {
            const uint32_t b = cluster.BackupOf(home, r);
            if (b == n || (result.killed && b == victim)) {
              continue;
            }
            std::vector<std::byte> img;
            if (!replicator->backup_store(b)->Get(kTableId, home, KeyOf(p, i), &img)) {
              continue;
            }
            const uint64_t backup_seq = store::RecordLayout::GetSeq(img.data());
            if (backup_seq > primary_seq) {
              flag("backup " + std::to_string(b) + " (ring of " + std::to_string(home) +
                   ") ahead of primary on partition " + std::to_string(p) + " key " +
                   std::to_string(i) + " (seq " + std::to_string(backup_seq) + " > " +
                   std::to_string(primary_seq) + "): an undecided or aborted image was applied");
            } else if (backup_seq == primary_seq) {
              Cell bc{};
              store::RecordLayout::GatherValue(img.data(), &bc, sizeof(bc));
              if (bc.value != c.value) {
                flag("backup " + std::to_string(b) + " (ring of " + std::to_string(home) +
                     ") diverges at seq " + std::to_string(backup_seq) + " on partition " +
                     std::to_string(p) + " key " + std::to_string(i) + ": backup value " +
                     std::to_string(bc.value) + " != committed " + std::to_string(c.value));
              }
            }
          }
        }
      }
    }
  }
  if (final_total != total) {
    flag("final balance sum " + std::to_string(final_total) + " != " + std::to_string(total));
  }

  const std::vector<TxnRec> history = HistoryRecorder::Global().Collect();
  if (history.size() != result.committed + result.audits) {
    flag("history records " + std::to_string(history.size()) + " != commits " +
         std::to_string(result.committed + result.audits));
  }
  CheckOptions copts;
  copts.version_step = replication ? 2 : 1;
  // Committed transactions are always fully recorded (the committing worker
  // survives by construction: victims park before the kill instant and verb
  // failures after the local-apply point are absorbed by replication), so the
  // history is complete even in kill runs.
  copts.expect_complete = true;
  result.check = CheckSerializability(history, copts);

  if (opt.analyze) {
    // Shadow-side sweep with the same leak rule as the real-memory sweep
    // above, except the victim's whole bus is excluded (debris by design).
    if (result.killed && victim != sim::FaultPlan::kAnyNode) {
      analyzer.MarkBusDead(cluster.node(victim)->bus());
    }
    analyzer.SweepLocks(lock_exempt);
    analyzer.Enable(false);
    result.violations = analyzer.total_violations();
    if (result.violations != 0) {
      std::string classes;
      for (size_t i = 0; i < kNumViolationClasses; ++i) {
        const auto c = static_cast<ViolationClass>(i);
        if (analyzer.violations(c) != 0) {
          classes += std::string(classes.empty() ? "" : " ") + ViolationClassName(c) + "=" +
                     std::to_string(analyzer.violations(c));
        }
      }
      flag("protocol analyzer flagged " + std::to_string(result.violations) +
           " violation(s): " + classes);
    }
  }

  result.ok = result.check.ok && result.errors.empty();
  cluster.SetFaultPlan(nullptr);
  engine.StopServices();
  return result;
}

}  // namespace drtmr::chk
