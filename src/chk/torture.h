// Torture harness (DESIGN.md §9): one self-contained run of a replicated
// transfer workload on a simulated cluster under a deterministic fault plan,
// checked three ways at quiescence:
//   1. the serializability checker (chk/checker.h) over the recorded history;
//   2. a balance-conservation oracle — read-only auditor snapshots during the
//      run plus a direct sweep of every record at the end;
//   3. structural invariants — no leaked lock words, committed (even under
//      replication) sequence numbers, and, after a kill, a recovered
//      partition that serves new transactions.
//
// A run is parameterized by (shape, seed, plan kind); the fault plan is a
// pure function of (kind, seed, nodes), so any failure reproduces from the
// three numbers a test or the bench prints. bench/torture.cc sweeps seeds ×
// plans × shapes and shrinks a failing plan to a minimal rule set.
#ifndef DRTMR_SRC_CHK_TORTURE_H_
#define DRTMR_SRC_CHK_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chk/checker.h"
#include "src/rep/primary_backup.h"
#include "src/sim/fault.h"

namespace drtmr::chk {

// The canned fault-plan families the sweep draws from. Concrete rule
// parameters (victims, windows, probabilities) are derived from the seed.
enum class TorturePlanKind : uint32_t {
  kClean = 0,     // no faults: baseline sanity
  kDelay,         // random verb latency inflation (reorders posted batches)
  kHtmAbort,      // forced HTM aborts at commit/read sites (fallback paths)
  kFreeze,        // transient full isolation of one node (lossless stall)
  kPartition,     // transient pairwise partition (lossless stall)
  kKill,          // permanent fail-stop mid-run + recovery onto a survivor
  kNumKinds,
};

const char* TorturePlanKindName(TorturePlanKind kind);

// Deterministically builds the plan for (kind, seed) on an n-node cluster.
sim::FaultPlan MakeTorturePlan(TorturePlanKind kind, uint64_t seed, uint32_t nodes);

struct TortureShape {
  uint32_t nodes = 3;
  uint32_t workers = 2;    // transfer workers per node (one extra slot runs the auditor)
  uint32_t replicas = 3;   // clamped to nodes; 1 disables replication
  uint32_t keys_per_node = 8;
  uint32_t txns_per_worker = 120;  // committed-transfer target per worker
  // Zipfian skew over the per-node key index (0 = uniform, the default for
  // every existing seed/test). theta ≈ 0.9 reproduces YCSB-style hot-key
  // contention; the nightly soak runs large shapes with this set so the
  // conflict/fallback paths see sustained same-key pressure.
  double zipf_theta = 0.0;
  // Group-commit window (rep::RepConfig::group_commit_window): decisions per
  // worker lane between durability fences. > 1 exercises mid-window kills —
  // the recovery watermark contract must still show zero lost updates.
  uint32_t group_commit_window = 1;
};

struct TortureOptions {
  TortureShape shape;
  uint64_t seed = 1;
  TorturePlanKind plan_kind = TorturePlanKind::kClean;
  // Shrinking support: run this exact plan instead of MakeTorturePlan's.
  // Must stay alive for the duration of RunTorture.
  const sim::FaultPlan* plan_override = nullptr;
  // Teeth: disable commit-time read validation in the engine. The run is
  // expected to FAIL the checker — this proves the oracle has teeth.
  bool unsafe_skip_read_validation = false;
  // Teeth: replication slot-lifecycle overrides (RepConfig::TestOverrides),
  // passed straight to the replicator. Runs with one of these set are
  // expected to FAIL the quiescence oracles (typically via a kKill plan:
  // recovery reads the corrupted backup copies).
  rep::RepConfig::TestOverrides rep_test{};
  // Run under the protocol conformance analyzer (protocol_analyzer.h): shadow
  // lockset/seqlock/atomicity/epoch checking on every bus access, plus the
  // analyzer's quiescent lock sweep (the same leak rule as the harness's own
  // real-memory sweep). Any violation fails the run.
  bool analyze = false;
  // No-oracle failover: instead of the harness scripting Remove + recovery
  // after the run (oracle knowledge of the fault plan), a MembershipService
  // (src/cluster/membership.h) runs *during* the run — lease heartbeats
  // suspect the victim off virtual time, the driver fences the old epoch,
  // flips the partition map, and runs recovery automatically; transient
  // victims (freeze/partition) rejoin in a later epoch. The quiescence
  // oracles then check the result with no scripted help. Requires
  // replicas >= 2 (recovery needs backups).
  bool no_oracle = false;
  // Live migration (DESIGN.md §14): a control actor moves a seed-derived
  // partition to a seed-derived destination mid-run via rep::MigrationManager
  // while the workers keep committing, and on odd seeds moves it back.
  // Composes with any plan kind — a kill plan landing mid-flight is the
  // point: the migration must commit or roll back cleanly on its own, and
  // the quiescence oracles judge whatever placement results. Requires
  // no_oracle (the cutover runs on the epoch-fence substrate).
  bool migrate = false;
};

struct TortureResult {
  bool ok = false;           // check.ok && errors.empty()
  CheckResult check;         // serializability verdict over the history
  uint64_t committed = 0;    // transfers the workers got to commit
  uint64_t audits = 0;       // read-only conservation snapshots that committed
  bool killed = false;       // plan killed a node (recovery ran)
  uint64_t recovered_records = 0;
  // No-oracle mode: what the membership layer did on its own.
  uint64_t suspicions = 0;
  uint64_t epoch_changes = 0;
  uint64_t rejoins = 0;
  uint64_t recoveries = 0;
  uint64_t violations = 0;   // protocol-analyzer violations (analyze mode)
  // Migrate mode: what the migration control actor drove.
  uint64_t migrations = 0;
  uint64_t migrations_committed = 0;
  uint64_t migrations_rolled_back = 0;
  std::vector<std::string> errors;  // oracle/invariant failures (non-checker)
  std::string Summary() const;
};

TortureResult RunTorture(const TortureOptions& opt);

}  // namespace drtmr::chk

#endif  // DRTMR_SRC_CHK_TORTURE_H_
