#include "src/cluster/membership.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/sim/fabric.h"
#include "src/util/logging.h"

namespace drtmr::cluster {

namespace {

// Period of each node's heartbeat and of the reconfiguration driver's tick.
constexpr uint64_t kHeartbeatNs = 5'000;
constexpr uint64_t kDriverTickNs = 2'000;
// Transport-retry budget for one heartbeat probe (RdmaNic::ReadTimeout): a
// probe into a freeze/partition window gives up after this long instead of
// stalling until the window closes, so a healthy node probing a frozen peer
// loses a bounded slice of its own lease and moves on to the next member.
// heartbeat + (nodes - 1) * probe must stay below the lease, or a
// cluster-wide fault makes healthy nodes suspect themselves (checked at
// construction).
constexpr uint64_t kProbeTimeoutNs = 6'000;
// Survivors may steal a lease-expired owner's dangling locks only this long
// (virtual) after the expired deadline, bounding the race with a suspected
// owner's in-flight unlock.
constexpr uint64_t kStealGraceNs = 10'000;

}  // namespace

MembershipService::MembershipService(Cluster* cluster, Coordinator* coordinator,
                                     PartitionMap* pmap, const MembershipConfig& config)
    : cluster_(cluster),
      coordinator_(coordinator),
      pmap_(pmap),
      config_(config),
      degraded_(cluster->num_nodes()),
      ever_suspected_(cluster->num_nodes()),
      lease_deadline_(cluster->num_nodes()),
      pending_recovery_(cluster->num_nodes()) {
  const uint32_t n = cluster_->num_nodes();
  DRTMR_CHECK(kHeartbeatNs + (n - 1) * kProbeTimeoutNs < config_.lease_ns)
      << "a " << n << "-node heartbeat round outlasts the " << config_.lease_ns << " ns lease";
  hb_ctx_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Private contexts on label-only worker slots past the node's real ones.
    hb_ctx_.push_back(std::make_unique<sim::ThreadContext>(
        i, cluster_->node(i)->num_slots(),
        (config_.seed << 16) ^ (static_cast<uint64_t>(i) + 1)));
  }
  driver_ctx_ = std::make_unique<sim::ThreadContext>(
      0, cluster_->node(0)->num_slots() + 1, (config_.seed << 16) ^ 0xd1ull);
}

MembershipService::~MembershipService() { Stop(); }

uint64_t MembershipService::NodeEpoch(uint32_t node) {
  return cluster_->fabric()->bus(node)->ReadU64(nullptr, sim::Fabric::kEpochWordOff);
}

bool MembershipService::LeaseAndEpochValid(uint32_t node, uint64_t now_ns,
                                           uint64_t begin_epoch) {
  return now_ns + kCommitGuardNs <= lease_deadline_ns(node) && NodeEpoch(node) == begin_epoch;
}

Status MembershipService::InstallEpoch(uint64_t epoch,
                                       const std::vector<PartitionMap::Move>& moves,
                                       bool rehosting) {
  // 1. Re-route first: once the partition map points at the new home, new
  //    transactions go there, and any still routed at the old one abort on
  //    the epoch checks the stamp arms (flip-before-stamp closes the
  //    split-brain hole where a pre-flip read could pair with a post-re-host
  //    commit). A reconfiguration with a newer epoch that already flipped a
  //    partition wins the monotone CAS and its flip stands.
  DRTMR_CHECK(moves.empty() || pmap_ != nullptr);
  const bool flips_stood = moves.empty() || pmap_->Apply(moves, epoch, rehosting);

  // 2. Stamp the epoch into every member's registered memory, then raise
  //    the fabric's fence to it. The stamps doom HTM regions that read the
  //    word, so on members the commit entry checks and HTM epoch reads reject
  //    transactions that began in an older epoch. The fence fences a removed
  //    node (its word stays behind) at one instant, after the last stamp: a
  //    member is never refused because another member was stamped first.
  sim::Fabric* fabric = cluster_->fabric();
  for (uint32_t m : coordinator_->view().members) {
    fabric->StampEpoch(m, epoch);
    if (stamp_hook_) {
      stamp_hook_(m);
    }
  }
  fabric->RaiseFence(epoch);

  // 3. Drain commits that entered before the fence (their replication log
  //    appends have already landed, so a recovery that follows observes
  //    them). Later entrants fail their epoch checks, so this terminates
  //    unless a worker is wedged.
  const bool drained = cluster_->DrainCommits();
  if (!flips_stood) {
    return Status::kConflict;
  }
  return drained ? Status::kOk : Status::kTimeout;
}

uint32_t MembershipService::PickHost(const ClusterView& view, uint32_t dead) {
  uint32_t best = ~0u;      // smallest member > dead
  uint32_t smallest = ~0u;  // wraparound fallback
  for (uint32_t m : view.members) {
    if (m < smallest) {
      smallest = m;
    }
    if (m > dead && m < best) {
      best = m;
    }
  }
  return best != ~0u ? best : smallest;
}

void MembershipService::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  cluster_->fabric()->set_epoch_fencing(true);
  coordinator_->set_steal_grace(kStealGraceNs);
  const ClusterView v = coordinator_->view();
  last_epoch_ = v.epoch;
  last_members_ = v.members;
  for (uint32_t m : v.members) {
    lease_deadline_[m].store(coordinator_->LeaseDeadline(m), std::memory_order_release);
  }
  (void)InstallEpoch(v.epoch);
}

void MembershipService::Start(sim::TimeGate& gate) {
  DRTMR_CHECK(actors_.empty());
  Arm();
  stop_.store(false, std::memory_order_release);
  // Heartbeats only for current members: a node outside the initial
  // configuration must not self-admit. (Removed members keep their heartbeat
  // running — it is the rejoin path.)
  const sim::TimeGate::Hold hold(&gate);
  for (uint32_t m : last_members_) {
    sim::ThreadContext* ctx = hb_ctx_[m].get();
    actors_.push_back(gate.Spawn(ctx, [this, m, ctx] {
      while (!stop_.load(std::memory_order_acquire)) {
        HeartbeatOnce(m, ctx);
        sim::TimeGate::Sync(&ctx->clock);
      }
    }));
  }
  sim::ThreadContext* dctx = driver_ctx_.get();
  actors_.push_back(gate.Spawn(dctx, [this, dctx] {
    while (!stop_.load(std::memory_order_acquire)) {
      DriverOnce(dctx);
      sim::TimeGate::Sync(&dctx->clock);
    }
  }));
}

void MembershipService::Stop() {
  stop_.store(true, std::memory_order_release);
  actors_.clear();
}

void MembershipService::TickHeartbeat(uint32_t node) {
  HeartbeatOnce(node, hb_ctx_[node].get());
}

void MembershipService::TickDriver() { DriverOnce(driver_ctx_.get()); }

void MembershipService::HeartbeatOnce(uint32_t node, sim::ThreadContext* ctx) {
  ctx->Charge(kHeartbeatNs);
  const ClusterView v = coordinator_->view();

  // Connectivity probe: RDMA READ of a member's registered epoch word (READs
  // are fence-exempt, so a fenced node can still learn the current epoch).
  // Other members are tried in ascending order; only a singleton view falls
  // back to the loopback probe. Probes carry a bounded transport-retry budget
  // (ReadTimeout): a frozen/partitioned node burns through it on every
  // member, so its renewal below arrives too late and is refused — that *is*
  // the failure detector — while a healthy node probing a frozen peer loses
  // only the budget and reaches the next member with its lease intact.
  sim::RdmaNic* nic = cluster_->fabric()->nic(node);
  bool reached = false;
  uint64_t observed_epoch = 0;
  for (uint32_t m : v.members) {
    if (m == node) {
      continue;
    }
    uint64_t word = 0;
    if (nic->ReadTimeout(ctx, m, sim::Fabric::kEpochWordOff, &word, sizeof(word),
                         kProbeTimeoutNs) == Status::kOk) {
      reached = true;
      observed_epoch = word;
      break;
    }
  }
  if (!reached && (v.members.empty() || (v.members.size() == 1 && v.members[0] == node))) {
    // No *other* member to probe: a singleton view (this node is the lone
    // member) or an empty one (every lease expired at once — total collapse).
    // The loopback probe stands in for coordinator reachability; without it an
    // empty configuration would be absorbing, since no node could ever prove
    // connectivity against zero probe targets and rejoin.
    uint64_t word = 0;
    if (nic->ReadTimeout(ctx, node, sim::Fabric::kEpochWordOff, &word, sizeof(word),
                         kProbeTimeoutNs) == Status::kOk) {
      reached = true;
      observed_epoch = word;
    }
  }

  const uint64_t now = ctx->clock.now_ns();
  if (!reached) {
    // Cannot prove connectivity. Once the last granted lease runs out the
    // node must stop serving (FaRM's lease rule) even though nobody told it
    // it was removed.
    if (!degraded(node) && now > lease_deadline_ns(node)) {
      degraded_[node].store(true, std::memory_order_release);
    }
    return;
  }

  if (degraded(node)) {
    // Rejoin: allowed only after recovery of the old incarnation finished.
    if (!pending_recovery_[node].load(std::memory_order_acquire)) {
      cluster_->fabric()->StampEpoch(node, observed_epoch);
      coordinator_->Join(node, now, config_.lease_ns);
      lease_deadline_[node].store(now + config_.lease_ns, std::memory_order_release);
      degraded_[node].store(false, std::memory_order_release);
      rejoins_.fetch_add(1, std::memory_order_relaxed);
      obs::Count(obs::Counter::kMembershipRejoin);
    }
    return;
  }

  switch (coordinator_->Renew(node, now, config_.lease_ns)) {
    case RenewResult::kRenewed:
      lease_deadline_[node].store(now + config_.lease_ns, std::memory_order_release);
      break;
    case RenewResult::kExpired:
      // Fenced out: the coordinator refused the late renewal (and removed the
      // node). Stop committing; the rejoin path above takes over.
      degraded_[node].store(true, std::memory_order_release);
      break;
  }
}

void MembershipService::DriverOnce(sim::ThreadContext* ctx) {
  ctx->Charge(kDriverTickNs);
  coordinator_->Reconfigure(ctx->clock.now_ns(), nullptr);
  const ClusterView v = coordinator_->view();
  if (v.epoch != last_epoch_) {
    ProcessViewChange(v, ctx);
  }
}

void MembershipService::ProcessViewChange(const ClusterView& view, sim::ThreadContext* ctx) {
  epoch_changes_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kMembershipEpochChange);

  std::vector<uint32_t> removed;
  for (uint32_t m : last_members_) {
    if (!view.Contains(m)) {
      removed.push_back(m);
    }
  }
  for (uint32_t d : removed) {
    suspicions_.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::Counter::kMembershipSuspicion);
    ever_suspected_[d].store(true, std::memory_order_release);
    pending_recovery_[d].store(true, std::memory_order_release);
  }

  // 1-3. Install the epoch: re-host the removed nodes' partitions on their
  //      ring successors, stamp the members and raise the fence, drain.
  //      A lost flip means a newer reconfiguration (a racing migration
  //      cutover) already moved the partition; its placement stands. A
  //      drain past the wedge budget proceeds to recovery. The flips keep
  //      the partitions unroutable until step 4 has re-hosted their records:
  //      a successor may already hold stale copies of them (PartitionMap).
  std::vector<PartitionMap::Move> moves;
  if (pmap_ != nullptr && !view.members.empty()) {
    for (uint32_t d : removed) {
      const std::vector<PartitionMap::Move> off = pmap_->MovesOff(d, PickHost(view, d));
      moves.insert(moves.end(), off.begin(), off.end());
    }
  }
  (void)InstallEpoch(view.epoch, moves, /*rehosting=*/true);

  // 4. Recover: re-host the removed node's data from backups.
  for (uint32_t d : removed) {
    if (recovery_fn_ && !view.members.empty()) {
      recovery_fn_(d, PickHost(view, d));
      recoveries_.fetch_add(1, std::memory_order_relaxed);
    } else if (view.members.empty()) {
      // Total collapse: every lease expired in one sweep, so there is no
      // survivor to re-host d's data on — and nobody to serve it to, since
      // every issuer is fenced by the fence above. The partition map was
      // likewise left untouched (no moves), so d's data sits intact
      // with its fenced incarnation and comes back verbatim when the node
      // rejoins through the loopback-probe path. The suspicion is therefore
      // resolved vacuously; leaving it dangling would wedge the
      // suspicions==recoveries settle invariant forever.
      recoveries_.fetch_add(1, std::memory_order_relaxed);
    }
    pending_recovery_[d].store(false, std::memory_order_release);
  }
  if (!moves.empty()) {
    pmap_->FinishRehost(moves, view.epoch);
  }

  // 5. Fresh leases for the survivors: recovery ran in real time while the
  //    driver's virtual clock stood still, so heartbeats may have been
  //    gate-blocked the whole time — renew everyone so that pause cannot
  //    cascade into new suspicions.
  const uint64_t now = ctx->clock.now_ns();
  for (uint32_t m : view.members) {
    if (coordinator_->Renew(m, now, config_.lease_ns) == RenewResult::kRenewed) {
      lease_deadline_[m].store(now + config_.lease_ns, std::memory_order_release);
    }
  }

  last_epoch_ = view.epoch;
  last_members_ = view.members;
}

}  // namespace drtmr::cluster
