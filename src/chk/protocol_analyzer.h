// Protocol conformance analyzer (DESIGN.md §11): a runtime-toggled checker
// for the invariants DrTM+R's correctness rests on but the end-state oracles
// only probe indirectly. Hooked into every sim::MemoryBus access, every
// sim::Fabric verb, and HTM region commit, it maintains a *shadow* of each
// registered record's protocol words (lock, seqnum, per-line versions) and
// flags typed violations with the offending site:
//
//   1. unlocked write      — a data-line store outside an HTM region without
//                            holding that record's lock (or another sanctioned
//                            protection: fused seq-lock bit, odd-seq makeup
//                            window, recovery's privileged writer).
//   2. seqlock discipline  — a protection window closed (lock released,
//                            odd seq made even, fused bit cleared) while the
//                            per-line versions disagree with the seqnum, i.e.
//                            a mutation a one-sided READ could not detect; or
//                            a remote READ that accepted a torn/locked
//                            snapshot without retry.
//   3. strong atomicity    — a conflicting non-transactional access that did
//                            NOT doom the overlapping HTM region, or a fabric
//                            verb issued inside a region that did not abort it.
//   4. lock hygiene        — cross-thread release, double release, leaked
//                            locks at quiescence (shares one leak rule with
//                            the torture oracle's sweep).
//   5. epoch fencing       — a mutating verb admitted while the issuer's
//                            stamped epoch lags the fabric's fence epoch.
//
// Design notes. The analyzer never reads bus memory: shadow state is updated
// exclusively from hook-delivered bytes, so it is race-free under TSan by
// construction. Unlike classic Eraser, the protection relation is evaluated
// per access (mask non-empty), not as a lifetime lockset intersection — the
// protocol legitimately rotates protection mechanisms over a record's life
// (HTM region -> remote lock -> odd-seq window). Disabled (the default), the
// only cost at every hook site is one relaxed atomic load.
#ifndef DRTMR_SRC_CHK_PROTOCOL_ANALYZER_H_
#define DRTMR_SRC_CHK_PROTOCOL_ANALYZER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace drtmr::sim {
class MemoryBus;
struct HtmDesc;
class RedoLog;
struct ThreadContext;
}  // namespace drtmr::sim

namespace drtmr::chk {

enum class ViolationClass : uint32_t {
  kUnlockedWrite = 0,
  kSeqlockDiscipline,
  kStrongAtomicity,
  kLockHygiene,
  kEpochFencing,
  kCount,
};
inline constexpr size_t kNumViolationClasses = static_cast<size_t>(ViolationClass::kCount);

const char* ViolationClassName(ViolationClass c);

struct Violation {
  ViolationClass cls = ViolationClass::kCount;
  uint32_t actor_node = ~0u;    // ~0u: attribution unknown
  uint32_t actor_worker = ~0u;
  uint64_t offset = 0;          // offending offset on the target bus (0: n/a)
  std::string detail;
};

// Identity of the thread performing a bus access, for attribution. RDMA verbs
// reach the target bus with ctx == nullptr (they bypass the remote CPU), so
// the fabric — and the recovery patch path, whose driver context does not
// match the lock words it manipulates — pin the logical actor in TLS with
// ScopedActor; a plain local access falls back to its ThreadContext.
struct Actor {
  static constexpr uint32_t kUnknown = ~0u;
  uint32_t node = kUnknown;
  uint32_t worker = kUnknown;
  bool known() const { return node != kUnknown; }
};

class ScopedActor {
 public:
  // No-op (one relaxed load) while the analyzer is disabled.
  ScopedActor(uint32_t node, uint32_t worker);
  ~ScopedActor();
  ScopedActor(const ScopedActor&) = delete;
  ScopedActor& operator=(const ScopedActor&) = delete;

 private:
  Actor saved_;
  bool engaged_ = false;
};

// Marks the current thread as a sanctioned whole-image writer (store bootstrap
// and recovery re-hosting write fresh images over quiescent records without
// taking the record lock). Suppresses the unlocked-write rule only.
class ScopedPrivilegedWriter {
 public:
  ScopedPrivilegedWriter();
  ~ScopedPrivilegedWriter();
  ScopedPrivilegedWriter(const ScopedPrivilegedWriter&) = delete;
  ScopedPrivilegedWriter& operator=(const ScopedPrivilegedWriter&) = delete;
};

namespace detail {
// Fast-path toggle, mirroring obs::detail::g_enabled: hook sites pay one
// relaxed load when the analyzer is off.
inline std::atomic<bool> g_analyze{false};
}  // namespace detail

inline bool AnalyzerEnabled() { return detail::g_analyze.load(std::memory_order_relaxed); }

class ProtocolAnalyzer {
 public:
  static ProtocolAnalyzer& Global();

  // Toggling does not clear state; call Reset() between independent runs.
  void Enable(bool on);
  static bool Enabled() { return AnalyzerEnabled(); }
  void Reset();

  // Whether an odd seqnum marks a committed-but-unreplicated window that
  // legitimately protects in-place makeup writes (§5.1). True matches
  // replicated deployments; without replication the seqnum has no parity
  // meaning, but the protocol then never relies on odd-seq protection either,
  // so true is safe (merely looser) everywhere. Default: true.
  void set_seq_parity(bool on) { seq_parity_.store(on, std::memory_order_relaxed); }

  // ---- shadow registration (store layer) ----
  // Register after the record's image is fully written and the record is
  // about to become reachable; unregister before the allocator frees it.
  void RegisterRecord(const sim::MemoryBus* bus, uint64_t offset, size_t value_size,
                      const std::byte* image);
  void UnregisterRecord(const sim::MemoryBus* bus, uint64_t offset);
  // Excludes a killed machine's records from the quiescence sweep (its locks
  // and windows are expected debris, matching the torture oracle).
  void MarkBusDead(const sim::MemoryBus* bus);
  // Drops every shadow keyed by `bus` (called from ~MemoryBus: a later bus
  // may be allocated at the same address).
  void ForgetBus(const sim::MemoryBus* bus);
  // Announces an intentional dangling-lock steal/release of `stolen_word`
  // (§5.2 passive recovery) so the following CAS is not a hygiene violation
  // and the previous owner's late release is recognized as debris.
  void NoteDanglingSteal(const sim::MemoryBus* bus, uint64_t offset, uint64_t stolen_word);

  // ---- sim-layer hooks ----
  void OnPlainWrite(const sim::MemoryBus* bus, const sim::ThreadContext* ctx, uint64_t offset,
                    const void* src, size_t len);
  void OnCas(const sim::MemoryBus* bus, const sim::ThreadContext* ctx, uint64_t offset,
             uint64_t expected, uint64_t desired, uint64_t observed, bool swapped);
  void OnTxCommitApply(const sim::MemoryBus* bus, const sim::ThreadContext* ctx,
                       const sim::RedoLog& redo);
  // Called after a non-transactional access to `line` has doomed conflicting
  // regions: any still-active conflicting region is a strong-atomicity breach.
  // Runs under the bus stripe; touches only HtmDesc atomics. It walks every
  // descriptor rather than the bus's per-stripe conflict directory, so a
  // doom the directory missed shows up here.
  void CheckStrongAtomicity(sim::MemoryBus* bus, uint64_t line, bool is_write,
                            const sim::HtmDesc* self);
  // A fabric verb was issued inside an HTM region; `aborted` reports whether
  // the no-I/O rule fired. Not aborting is a strong-atomicity breach.
  void OnVerbInRegion(const sim::ThreadContext* ctx, bool aborted);
  // A mutating verb passed admission under `fence_epoch` (the fence the
  // fabric read, 0 with fencing off); flags it if the issuer's stamped epoch
  // (shadowed from the epoch-word CASes) lags that fence. Deliberately
  // separate from the fabric's own check (RdmaNic::Deliver) so an admission
  // path that lost its fence still trips the analyzer.
  void OnVerbAdmitted(const sim::MemoryBus* src_bus, uint32_t src_node, uint32_t dst_node,
                      uint64_t fence_epoch);

  // ---- engine-layer hooks (txn) ----
  // A remote/seqlock read was accepted as a snapshot. versions_ok is the
  // engine's own torn-read verdict; lock_checked says the protocol required
  // the record unlocked at acceptance.
  void OnSnapshotAccepted(const sim::MemoryBus* bus, uint64_t offset, uint64_t seq,
                          uint64_t lock_word, bool versions_ok, bool lock_checked);

  // ---- quiescence (lock hygiene) ----
  using LockExempt = std::function<bool(uint32_t owner_node)>;
  // THE leak rule, shared with the torture oracle's real-memory sweep: a held
  // lock leaks unless its owner is exempt (dead/ever-suspected — its release
  // was fenced or lost and is passively recovered on next touch, §5.2).
  static bool QuiescentLockLeaked(uint64_t lock_word, const LockExempt& exempt);
  // Sweeps every registered record's shadow on non-dead buses; records a
  // kLockHygiene violation per leak and returns the number found.
  uint64_t SweepLocks(const LockExempt& exempt);

  // ---- results ----
  uint64_t violations(ViolationClass c) const {
    return counts_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  uint64_t total_violations() const;
  std::vector<Violation> CollectViolations() const;
  bool WriteViolationsJson(const std::string& path) const;

 private:
  struct RecordShadow {
    std::mutex mu;
    uint64_t start = 0;
    size_t value_size = 0;
    size_t bytes = 0;
    uint32_t lines = 1;
    uint64_t lock = 0;               // shadow of the word at start + kLockOff
    uint64_t seq = 0;                // shadow of the word at start + kSeqOff
    std::vector<uint16_t> versions;  // line k >= 1 head words
    uint64_t pending_steal = 0;      // word an announced steal will replace
    uint64_t stolen_from = 0;        // last word forcibly stolen (debris key)
  };

  struct BusShadow {
    mutable std::shared_mutex map_mu;
    std::map<uint64_t, std::unique_ptr<RecordShadow>> records;  // by start offset
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> dead{false};
  };

  BusShadow* FindBus(const sim::MemoryBus* bus) const;
  BusShadow* GetOrCreateBus(const sim::MemoryBus* bus);
  // Caller must hold shard->map_mu (shared).
  static RecordShadow* FindRecord(BusShadow* shard, uint64_t offset);

  void Report(ViolationClass cls, const Actor& actor, uint64_t offset, std::string detail);
  // Pre-state protection mask for a plain store by `actor` (rec->mu held).
  bool WriteProtected(const RecordShadow* rec, const Actor& actor) const;
  // If no protection remains on rec, the line versions must match the seqnum
  // (a window just closed; any surviving mismatch is invisible to READers).
  void MaybeCloseCheck(RecordShadow* rec, const Actor& actor);
  // Folds `src` bytes at [offset, offset+len) into rec's shadow words.
  static void FoldBytes(RecordShadow* rec, uint64_t offset, const std::byte* src, size_t len);
  void ApplyStore(RecordShadow* rec, const Actor& actor, uint64_t offset, const std::byte* src,
                  size_t len, bool transactional);
  void HandleLockCas(RecordShadow* rec, const Actor& actor, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t observed, bool swapped);
  void HandleFusedCas(RecordShadow* rec, const Actor& actor, uint64_t offset, uint64_t expected,
                      uint64_t desired, bool swapped);

  std::atomic<bool> seq_parity_{true};

  mutable std::shared_mutex buses_mu_;
  std::unordered_map<const sim::MemoryBus*, std::unique_ptr<BusShadow>> buses_;

  static constexpr size_t kMaxStoredViolations = 4096;
  mutable std::mutex v_mu_;
  std::vector<Violation> violations_;
  std::atomic<uint64_t> counts_[kNumViolationClasses] = {};
};

}  // namespace drtmr::chk

#endif  // DRTMR_SRC_CHK_PROTOCOL_ANALYZER_H_
