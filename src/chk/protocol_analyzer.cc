#include "src/chk/protocol_analyzer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/sim/fabric.h"
#include "src/sim/memory_bus.h"
#include "src/sim/thread_context.h"
#include "src/store/record.h"

namespace drtmr::chk {
namespace {

using store::LockWord;
using store::RecordLayout;
using store::SeqWord;

thread_local Actor t_actor{};
thread_local uint32_t t_privileged = 0;

Actor CurrentActor(const sim::ThreadContext* ctx) {
  if (t_actor.known()) {
    return t_actor;
  }
  if (ctx != nullptr) {
    return Actor{ctx->node_id, ctx->worker_id};
  }
  return Actor{};
}

obs::Counter CounterFor(ViolationClass cls) {
  switch (cls) {
    case ViolationClass::kUnlockedWrite:
      return obs::Counter::kAnalyzerUnlockedWrite;
    case ViolationClass::kSeqlockDiscipline:
      return obs::Counter::kAnalyzerSeqlockViolation;
    case ViolationClass::kStrongAtomicity:
      return obs::Counter::kAnalyzerAtomicityViolation;
    case ViolationClass::kLockHygiene:
      return obs::Counter::kAnalyzerLockHygiene;
    case ViolationClass::kEpochFencing:
    case ViolationClass::kCount:
      break;
  }
  return obs::Counter::kAnalyzerEpochViolation;
}

std::string ActorString(const Actor& a) {
  if (!a.known()) {
    return "actor ?";
  }
  return "node " + std::to_string(a.node) + " worker " + std::to_string(a.worker);
}

}  // namespace

const char* ViolationClassName(ViolationClass c) {
  switch (c) {
    case ViolationClass::kUnlockedWrite:
      return "unlocked-write";
    case ViolationClass::kSeqlockDiscipline:
      return "seqlock-discipline";
    case ViolationClass::kStrongAtomicity:
      return "strong-atomicity";
    case ViolationClass::kLockHygiene:
      return "lock-hygiene";
    case ViolationClass::kEpochFencing:
      return "epoch-fencing";
    case ViolationClass::kCount:
      break;
  }
  return "unknown";
}

ScopedActor::ScopedActor(uint32_t node, uint32_t worker) {
  if (AnalyzerEnabled()) {
    saved_ = t_actor;
    t_actor = Actor{node, worker};
    engaged_ = true;
  }
}
ScopedActor::~ScopedActor() {
  if (engaged_) {
    t_actor = saved_;
  }
}

ScopedPrivilegedWriter::ScopedPrivilegedWriter() { ++t_privileged; }
ScopedPrivilegedWriter::~ScopedPrivilegedWriter() { --t_privileged; }

ProtocolAnalyzer& ProtocolAnalyzer::Global() {
  static ProtocolAnalyzer* g = new ProtocolAnalyzer();
  return *g;
}

void ProtocolAnalyzer::Enable(bool on) {
  detail::g_analyze.store(on, std::memory_order_release);
}

void ProtocolAnalyzer::Reset() {
  {
    std::unique_lock lk(buses_mu_);
    buses_.clear();
  }
  {
    std::lock_guard lk(v_mu_);
    violations_.clear();
  }
  for (auto& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
}

ProtocolAnalyzer::BusShadow* ProtocolAnalyzer::FindBus(const sim::MemoryBus* bus) const {
  std::shared_lock lk(buses_mu_);
  auto it = buses_.find(bus);
  return it == buses_.end() ? nullptr : it->second.get();
}

ProtocolAnalyzer::BusShadow* ProtocolAnalyzer::GetOrCreateBus(const sim::MemoryBus* bus) {
  if (BusShadow* bs = FindBus(bus)) {
    return bs;
  }
  std::unique_lock lk(buses_mu_);
  auto& slot = buses_[bus];
  if (slot == nullptr) {
    slot = std::make_unique<BusShadow>();
  }
  return slot.get();
}

ProtocolAnalyzer::RecordShadow* ProtocolAnalyzer::FindRecord(BusShadow* shard, uint64_t offset) {
  auto it = shard->records.upper_bound(offset);
  if (it == shard->records.begin()) {
    return nullptr;
  }
  --it;
  RecordShadow* rec = it->second.get();
  return offset < rec->start + rec->bytes ? rec : nullptr;
}

void ProtocolAnalyzer::Report(ViolationClass cls, const Actor& actor, uint64_t offset,
                              std::string detail) {
  counts_[static_cast<size_t>(cls)].fetch_add(1, std::memory_order_relaxed);
  obs::Count(CounterFor(cls));
  std::lock_guard lk(v_mu_);
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(
        Violation{cls, actor.node, actor.worker, offset, std::move(detail)});
  }
}

void ProtocolAnalyzer::RegisterRecord(const sim::MemoryBus* bus, uint64_t offset,
                                      size_t value_size, const std::byte* image) {
  BusShadow* bs = GetOrCreateBus(bus);
  auto rec = std::make_unique<RecordShadow>();
  rec->start = offset;
  rec->value_size = value_size;
  rec->bytes = RecordLayout::BytesFor(value_size);
  rec->lines = RecordLayout::LinesFor(value_size);
  rec->versions.assign(rec->lines > 0 ? rec->lines - 1 : 0, 0);
  if (image != nullptr) {
    rec->lock = RecordLayout::GetLock(image);
    rec->seq = RecordLayout::GetSeq(image);
    for (uint32_t line = 1; line < rec->lines; ++line) {
      std::memcpy(&rec->versions[line - 1], image + line * kCacheLineSize, sizeof(uint16_t));
    }
  }
  std::unique_lock lk(bs->map_mu);
  bs->records[offset] = std::move(rec);
}

void ProtocolAnalyzer::UnregisterRecord(const sim::MemoryBus* bus, uint64_t offset) {
  BusShadow* bs = FindBus(bus);
  if (bs == nullptr) {
    return;
  }
  std::unique_lock lk(bs->map_mu);
  bs->records.erase(offset);
}

void ProtocolAnalyzer::MarkBusDead(const sim::MemoryBus* bus) {
  GetOrCreateBus(bus)->dead.store(true, std::memory_order_release);
}

void ProtocolAnalyzer::ForgetBus(const sim::MemoryBus* bus) {
  std::unique_lock lk(buses_mu_);
  buses_.erase(bus);
}

void ProtocolAnalyzer::NoteDanglingSteal(const sim::MemoryBus* bus, uint64_t offset,
                                         uint64_t stolen_word) {
  BusShadow* bs = FindBus(bus);
  if (bs == nullptr) {
    return;
  }
  std::shared_lock lk(bs->map_mu);
  RecordShadow* rec = FindRecord(bs, offset);
  if (rec == nullptr) {
    return;
  }
  std::lock_guard rl(rec->mu);
  rec->pending_steal = stolen_word;
}

bool ProtocolAnalyzer::WriteProtected(const RecordShadow* rec, const Actor& actor) const {
  if (t_privileged > 0) {
    return true;
  }
  if (SeqWord::Locked(rec->seq)) {
    return true;  // fused seq-lock held (§4.4)
  }
  if (seq_parity_.load(std::memory_order_relaxed) && (SeqWord::Value(rec->seq) & 1ull) != 0) {
    return true;  // odd-seq makeup window (§5.1)
  }
  if (rec->lock != 0) {
    // The lock protects only its owner's stores; an unattributable actor is
    // given the benefit of the doubt.
    return !actor.known() || rec->lock == LockWord::Make(actor.node, actor.worker);
  }
  return false;
}

void ProtocolAnalyzer::MaybeCloseCheck(RecordShadow* rec, const Actor& actor) {
  if (rec->lines <= 1 || rec->lock != 0 || SeqWord::Locked(rec->seq)) {
    return;
  }
  if (seq_parity_.load(std::memory_order_relaxed) && (SeqWord::Value(rec->seq) & 1ull) != 0) {
    return;  // odd window still open; makeup will close it
  }
  const uint16_t expect = static_cast<uint16_t>(SeqWord::Value(rec->seq));
  for (uint32_t line = 1; line < rec->lines; ++line) {
    if (rec->versions[line - 1] != expect) {
      Report(ViolationClass::kSeqlockDiscipline, actor, rec->start,
             "protection window closed with stale line versions: record at offset " +
                 std::to_string(rec->start) + " line " + std::to_string(line) + " version " +
                 std::to_string(rec->versions[line - 1]) + " != seq low16 " +
                 std::to_string(expect) + " (" + ActorString(actor) + ")");
      return;
    }
  }
}

void ProtocolAnalyzer::FoldBytes(RecordShadow* rec, uint64_t offset, const std::byte* src,
                                 size_t len) {
  const uint64_t lo = std::max(offset, rec->start);
  const uint64_t hi = std::min(offset + len, rec->start + rec->bytes);
  auto covers = [&](uint64_t word_off, size_t word_len) {
    return lo <= rec->start + word_off && rec->start + word_off + word_len <= hi;
  };
  if (covers(RecordLayout::kLockOff, 8)) {
    std::memcpy(&rec->lock, src + (rec->start + RecordLayout::kLockOff - offset), 8);
  }
  if (covers(RecordLayout::kSeqOff, 8)) {
    std::memcpy(&rec->seq, src + (rec->start + RecordLayout::kSeqOff - offset), 8);
  }
  for (uint32_t line = 1; line < rec->lines; ++line) {
    const uint64_t voff = static_cast<uint64_t>(line) * kCacheLineSize;
    if (covers(voff, sizeof(uint16_t))) {
      std::memcpy(&rec->versions[line - 1], src + (rec->start + voff - offset),
                  sizeof(uint16_t));
    }
  }
}

void ProtocolAnalyzer::ApplyStore(RecordShadow* rec, const Actor& actor, uint64_t offset,
                                  const std::byte* src, size_t len, bool transactional) {
  std::lock_guard lk(rec->mu);
  const uint64_t hi = std::min(offset + len, rec->start + rec->bytes);
  // Stores past the metadata words (seq onward: key, payload, versions) are
  // the guarded range; lock/incarnation words have their own mechanisms.
  const bool guarded = hi > rec->start + RecordLayout::kSeqOff;
  if (!transactional && guarded && !WriteProtected(rec, actor)) {
    Report(ViolationClass::kUnlockedWrite, actor, offset,
           "plain store to record at offset " + std::to_string(rec->start) +
               " without lock, HTM region, or seqlock window (" + ActorString(actor) +
               ", store [" + std::to_string(offset) + "," + std::to_string(offset + len) + "))");
  }
  FoldBytes(rec, offset, src, len);
  MaybeCloseCheck(rec, actor);
}

void ProtocolAnalyzer::OnPlainWrite(const sim::MemoryBus* bus, const sim::ThreadContext* ctx,
                                    uint64_t offset, const void* src, size_t len) {
  BusShadow* bs = FindBus(bus);
  if (bs == nullptr) {
    return;
  }
  const Actor actor = CurrentActor(ctx);
  const auto* bytes = static_cast<const std::byte*>(src);
  std::shared_lock lk(bs->map_mu);
  // Records never straddle each other; walk every record the store overlaps.
  auto it = bs->records.upper_bound(offset);
  if (it != bs->records.begin()) {
    --it;
  }
  for (; it != bs->records.end() && it->second->start < offset + len; ++it) {
    RecordShadow* rec = it->second.get();
    if (offset < rec->start + rec->bytes) {
      ApplyStore(rec, actor, offset, bytes, len, /*transactional=*/false);
    }
  }
}

void ProtocolAnalyzer::HandleLockCas(RecordShadow* rec, const Actor& actor, uint64_t offset,
                                     uint64_t expected, uint64_t desired, uint64_t observed,
                                     bool swapped) {
  std::lock_guard lk(rec->mu);
  if (!swapped) {
    if (rec->pending_steal == expected && expected != 0) {
      // The announced steal raced with the owner's own release: benign.
      rec->pending_steal = 0;
    } else if (desired == LockWord::kUnlocked && expected != 0 && observed == 0 &&
               rec->stolen_from != expected) {
      Report(ViolationClass::kLockHygiene, actor, offset,
             "double release: unlock CAS found the lock already free (expected owner word " +
                 std::to_string(expected) + ", " + ActorString(actor) + ")");
    }
    return;
  }
  if (expected == LockWord::kUnlocked && desired != 0) {
    // Plain acquire.
    rec->lock = desired;
    return;
  }
  // Release (desired == 0) or steal-acquire (both non-zero): either way the
  // word `expected` is being taken away from its owner.
  if (rec->pending_steal == expected) {
    rec->stolen_from = expected;
    rec->pending_steal = 0;
  } else if (actor.known() && expected != LockWord::Make(actor.node, actor.worker)) {
    Report(ViolationClass::kLockHygiene, actor, offset,
           "cross-thread release: " + ActorString(actor) + " released lock word " +
               std::to_string(expected) + " it does not own (record offset " +
               std::to_string(rec->start) + ")");
  }
  rec->lock = desired;
  if (desired == LockWord::kUnlocked) {
    MaybeCloseCheck(rec, actor);
  }
}

void ProtocolAnalyzer::HandleFusedCas(RecordShadow* rec, const Actor& actor, uint64_t offset,
                                      uint64_t expected, uint64_t desired, bool swapped) {
  std::lock_guard lk(rec->mu);
  if (!swapped) {
    return;  // failed fused lock/validate; the protocol retries or aborts
  }
  const bool was_locked = SeqWord::Locked(expected);
  rec->seq = desired;
  if (was_locked && !SeqWord::Locked(desired)) {
    MaybeCloseCheck(rec, actor);  // fused unlock (§4.4)
  }
}

void ProtocolAnalyzer::OnCas(const sim::MemoryBus* bus, const sim::ThreadContext* ctx,
                             uint64_t offset, uint64_t expected, uint64_t desired,
                             uint64_t observed, bool swapped) {
  if (offset == sim::Fabric::kEpochWordOff) {
    // Membership stamps the configuration epoch with a bus CAS; shadow it for
    // the epoch-fencing admission check.
    if (swapped) {
      BusShadow* bs = GetOrCreateBus(bus);
      uint64_t cur = bs->epoch.load(std::memory_order_relaxed);
      while (cur < desired &&
             !bs->epoch.compare_exchange_weak(cur, desired, std::memory_order_relaxed)) {
      }
    }
    return;
  }
  BusShadow* bs = FindBus(bus);
  if (bs == nullptr) {
    return;
  }
  const Actor actor = CurrentActor(ctx);
  std::shared_lock lk(bs->map_mu);
  RecordShadow* rec = FindRecord(bs, offset);
  if (rec == nullptr) {
    return;
  }
  const uint64_t rel = offset - rec->start;
  if (rel == RecordLayout::kLockOff) {
    HandleLockCas(rec, actor, offset, expected, desired, observed, swapped);
  } else if (rel == RecordLayout::kSeqOff) {
    HandleFusedCas(rec, actor, offset, expected, desired, swapped);
  }
}

void ProtocolAnalyzer::OnTxCommitApply(const sim::MemoryBus* bus, const sim::ThreadContext* ctx,
                                       const sim::RedoLog& redo) {
  BusShadow* bs = FindBus(bus);
  if (bs == nullptr) {
    return;
  }
  const Actor actor = CurrentActor(ctx);
  std::shared_lock lk(bs->map_mu);
  for (const sim::RedoLog::Entry& e : redo.entries()) {
    auto it = bs->records.upper_bound(e.offset);
    if (it != bs->records.begin()) {
      --it;
    }
    for (; it != bs->records.end() && it->second->start < e.offset + e.len; ++it) {
      RecordShadow* rec = it->second.get();
      if (e.offset < rec->start + rec->bytes) {
        ApplyStore(rec, actor, e.offset, redo.data(e), e.len, /*transactional=*/true);
      }
    }
  }
}

void ProtocolAnalyzer::CheckStrongAtomicity(sim::MemoryBus* bus, uint64_t line, bool is_write,
                                            const sim::HtmDesc* self) {
  for (uint32_t i = 0; i < bus->num_slots(); ++i) {
    sim::HtmDesc* d = bus->desc(i);
    if (d == self || d->state.load(std::memory_order_acquire) != sim::HtmDesc::kActive) {
      continue;
    }
    if (d->writes.Contains(line) || (is_write && d->reads.Contains(line))) {
      Report(ViolationClass::kStrongAtomicity, Actor{}, line * kCacheLineSize,
             "non-transactional " + std::string(is_write ? "write" : "read") + " to line " +
                 std::to_string(line) + " left a conflicting HTM region active (slot " +
                 std::to_string(i) + ")");
    }
  }
}

void ProtocolAnalyzer::OnVerbInRegion(const sim::ThreadContext* ctx, bool aborted) {
  if (aborted) {
    return;  // the no-I/O rule fired, as required
  }
  Report(ViolationClass::kStrongAtomicity, CurrentActor(ctx), 0,
         "fabric verb issued inside an HTM region did not abort it (" +
             ActorString(CurrentActor(ctx)) + ")");
}

void ProtocolAnalyzer::OnVerbAdmitted(const sim::MemoryBus* src_bus, uint32_t src_node,
                                      uint32_t dst_node, uint64_t fence_epoch) {
  const BusShadow* sb = FindBus(src_bus);
  const uint64_t se = sb != nullptr ? sb->epoch.load(std::memory_order_relaxed) : 0;
  if (se < fence_epoch) {
    Report(ViolationClass::kEpochFencing, Actor{src_node, Actor::kUnknown}, 0,
           "mutating verb admitted from node " + std::to_string(src_node) + " (epoch " +
               std::to_string(se) + ") to node " + std::to_string(dst_node) +
               " under fence epoch " + std::to_string(fence_epoch) +
               ": issuer should have been fenced");
  }
}

void ProtocolAnalyzer::OnSnapshotAccepted(const sim::MemoryBus* bus, uint64_t offset,
                                          uint64_t seq, uint64_t lock_word, bool versions_ok,
                                          bool lock_checked) {
  if (!versions_ok) {
    Report(ViolationClass::kSeqlockDiscipline, t_actor, offset,
           "torn snapshot accepted without retry: record at offset " + std::to_string(offset) +
               " line versions disagree with seq " + std::to_string(seq));
    return;
  }
  if (lock_checked && LockWord::IsLocked(lock_word)) {
    Report(ViolationClass::kSeqlockDiscipline, t_actor, offset,
           "locked snapshot accepted without retry: record at offset " + std::to_string(offset) +
               " lock word " + std::to_string(lock_word));
  }
  (void)bus;
}

bool ProtocolAnalyzer::QuiescentLockLeaked(uint64_t lock_word, const LockExempt& exempt) {
  if (!LockWord::IsLocked(lock_word)) {
    return false;
  }
  return !(exempt && exempt(LockWord::OwnerNode(lock_word)));
}

uint64_t ProtocolAnalyzer::SweepLocks(const LockExempt& exempt) {
  uint64_t leaks = 0;
  std::shared_lock bl(buses_mu_);
  for (auto& [bus, bs] : buses_) {
    if (bs->dead.load(std::memory_order_acquire)) {
      continue;
    }
    std::shared_lock ml(bs->map_mu);
    for (auto& [start, rec] : bs->records) {
      std::lock_guard rl(rec->mu);
      if (QuiescentLockLeaked(rec->lock, exempt)) {
        ++leaks;
        Report(ViolationClass::kLockHygiene, Actor{}, start,
               "leaked lock at quiescence: record at offset " + std::to_string(start) +
                   " still holds lock word " + std::to_string(rec->lock) + " (owner node " +
                   std::to_string(LockWord::OwnerNode(rec->lock)) + ")");
      }
    }
  }
  return leaks;
}

uint64_t ProtocolAnalyzer::total_violations() const {
  uint64_t total = 0;
  for (const auto& c : counts_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Violation> ProtocolAnalyzer::CollectViolations() const {
  std::lock_guard lk(v_mu_);
  return violations_;
}

bool ProtocolAnalyzer::WriteViolationsJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("[\n", f);
  {
    std::lock_guard lk(v_mu_);
    for (size_t i = 0; i < violations_.size(); ++i) {
      const Violation& v = violations_[i];
      std::string detail;
      detail.reserve(v.detail.size());
      for (char c : v.detail) {
        if (c == '"' || c == '\\') {
          detail.push_back('\\');
        }
        detail.push_back(c);
      }
      std::fprintf(f,
                   "  {\"class\": \"%s\", \"actor_node\": %d, \"actor_worker\": %d, "
                   "\"offset\": %llu, \"detail\": \"%s\"}%s\n",
                   ViolationClassName(v.cls),
                   v.actor_node == Actor::kUnknown ? -1 : static_cast<int>(v.actor_node),
                   v.actor_worker == Actor::kUnknown ? -1 : static_cast<int>(v.actor_worker),
                   static_cast<unsigned long long>(v.offset), detail.c_str(),
                   i + 1 < violations_.size() ? "," : "");
    }
  }
  std::fputs("]\n", f);
  std::fclose(f);
  return true;
}

}  // namespace drtmr::chk
