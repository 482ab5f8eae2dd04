#include "src/sim/memory_bus.h"

#include <algorithm>
#include <cstring>

#include "src/chk/protocol_analyzer.h"
#include "src/util/logging.h"

namespace drtmr::sim {

LineSet::LineSet(uint32_t capacity) : capacity_(capacity), entries_(capacity) {}

bool LineSet::Add(uint64_t line) {
  if (Contains(line)) {
    return true;
  }
  const uint32_t sz = size_.load(std::memory_order_relaxed);
  if (sz >= capacity_) {
    return false;
  }
  entries_[sz].store(line, std::memory_order_relaxed);
  summary_.store(summary_.load(std::memory_order_relaxed) | SummaryBit(line),
                 std::memory_order_relaxed);
  size_.store(sz + 1, std::memory_order_release);
  return true;
}

bool LineSet::Contains(uint64_t line) const {
  if ((summary_.load(std::memory_order_relaxed) & SummaryBit(line)) == 0) {
    return false;
  }
  const uint32_t sz = size_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < sz; ++i) {
    if (entries_[i].load(std::memory_order_relaxed) == line) {
      return true;
    }
  }
  return false;
}

void LineSet::Clear() {
  size_.store(0, std::memory_order_relaxed);
  summary_.store(0, std::memory_order_relaxed);
}

MemoryBus::MemoryBus(size_t size, const CostModel* cost, uint32_t slots, uint32_t htm_read_cap,
                     uint32_t htm_write_cap)
    : size_(size),
      mem_(new std::byte[size]),
      cost_(cost),
      stripes_(new Stripe[kStripes]) {
  std::memset(mem_.get(), 0, size);
  descs_.reserve(slots);
  for (uint32_t i = 0; i < slots; ++i) {
    descs_.push_back(std::make_unique<HtmDesc>(htm_read_cap, htm_write_cap));
  }
}

MemoryBus::~MemoryBus() { chk::ProtocolAnalyzer::Global().ForgetBus(this); }

void MemoryBus::ChargeLines(ThreadContext* ctx, uint64_t nlines) {
  if (ctx != nullptr) {
    ctx->Charge(nlines * cost_->line_access_ns * cost_scale_pct_.load(std::memory_order_relaxed) /
                100);
  }
}

void MemoryBus::DoomConflicting(HtmDesc* self, uint64_t line, bool is_write) {
  for (auto& d : descs_) {
    HtmDesc* other = d.get();
    if (other == self || other->state.load(std::memory_order_acquire) != HtmDesc::kActive) {
      continue;
    }
    if (other->writes.Contains(line) || (is_write && other->reads.Contains(line))) {
      other->Doom(HtmDesc::kConflict);
    }
  }
}

void MemoryBus::Read(ThreadContext* ctx, uint64_t offset, void* dst, size_t len) {
  DRTMR_CHECK(offset + len <= size_) << offset << "+" << len;
  const uint64_t first = LineOf(offset);
  const uint64_t end = LineEnd(offset, len);
  auto* out = static_cast<std::byte*>(dst);
  for (uint64_t line = first; line < end; ++line) {
    const uint64_t lo = std::max<uint64_t>(offset, line * kCacheLineSize);
    const uint64_t hi = std::min<uint64_t>(offset + len, (line + 1) * kCacheLineSize);
    Spinlock& s = StripeFor(line);
    s.lock();
    std::memcpy(out + (lo - offset), mem_.get() + lo, hi - lo);
    DoomConflicting(nullptr, line, /*is_write=*/false);
    if (chk::AnalyzerEnabled()) {
      chk::ProtocolAnalyzer::Global().CheckStrongAtomicity(this, line, /*is_write=*/false,
                                                           nullptr);
    }
    s.unlock();
  }
  ChargeLines(ctx, end - first);
}

void MemoryBus::Write(ThreadContext* ctx, uint64_t offset, const void* src, size_t len) {
  DRTMR_CHECK(offset + len <= size_) << offset << "+" << len;
  if (chk::AnalyzerEnabled()) {
    // Pre-state evaluation: the conformance rules judge the store against the
    // record's protection *before* its bytes land (see DESIGN.md §11).
    chk::ProtocolAnalyzer::Global().OnPlainWrite(this, ctx, offset, src, len);
  }
  const uint64_t first = LineOf(offset);
  const uint64_t end = LineEnd(offset, len);
  const auto* in = static_cast<const std::byte*>(src);
  // Last line first: a record's line 0 carries its seq word, and a fused-lock
  // write-back (§4.4) releases the lock by overwriting that word. Landing it
  // last keeps every other committer out until the whole image is in place.
  for (uint64_t line = end; line-- > first;) {
    const uint64_t lo = std::max<uint64_t>(offset, line * kCacheLineSize);
    const uint64_t hi = std::min<uint64_t>(offset + len, (line + 1) * kCacheLineSize);
    Spinlock& s = StripeFor(line);
    s.lock();
    std::memcpy(mem_.get() + lo, in + (lo - offset), hi - lo);
    DoomConflicting(nullptr, line, /*is_write=*/true);
    if (chk::AnalyzerEnabled()) {
      chk::ProtocolAnalyzer::Global().CheckStrongAtomicity(this, line, /*is_write=*/true,
                                                           nullptr);
    }
    s.unlock();
  }
  ChargeLines(ctx, end - first);
}

uint64_t MemoryBus::ReadU64(ThreadContext* ctx, uint64_t offset) {
  uint64_t v = 0;
  Read(ctx, offset, &v, sizeof(v));
  return v;
}

void MemoryBus::WriteU64(ThreadContext* ctx, uint64_t offset, uint64_t value) {
  Write(ctx, offset, &value, sizeof(value));
}

bool MemoryBus::CasU64(ThreadContext* ctx, uint64_t offset, uint64_t expected, uint64_t desired,
                       uint64_t* observed) {
  DRTMR_CHECK(offset % 8 == 0 && offset + 8 <= size_) << offset;
  const uint64_t line = LineOf(offset);
  Spinlock& s = StripeFor(line);
  s.lock();
  uint64_t cur;
  std::memcpy(&cur, mem_.get() + offset, sizeof(cur));
  const bool swapped = (cur == expected);
  if (swapped) {
    std::memcpy(mem_.get() + offset, &desired, sizeof(desired));
  }
  // A successful CAS is a write for conflict purposes; a failed one is a read.
  DoomConflicting(nullptr, line, /*is_write=*/swapped);
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().CheckStrongAtomicity(this, line, swapped, nullptr);
  }
  s.unlock();
  if (observed != nullptr) {
    *observed = cur;
  }
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().OnCas(this, ctx, offset, expected, desired, cur, swapped);
  }
  ChargeLines(ctx, 1);
  return swapped;
}

uint64_t MemoryBus::FetchAddU64(ThreadContext* ctx, uint64_t offset, uint64_t delta) {
  DRTMR_CHECK(offset % 8 == 0 && offset + 8 <= size_) << offset;
  const uint64_t line = LineOf(offset);
  Spinlock& s = StripeFor(line);
  s.lock();
  uint64_t cur;
  std::memcpy(&cur, mem_.get() + offset, sizeof(cur));
  const uint64_t next = cur + delta;
  std::memcpy(mem_.get() + offset, &next, sizeof(next));
  DoomConflicting(nullptr, line, /*is_write=*/true);
  if (chk::AnalyzerEnabled()) {
    chk::ProtocolAnalyzer::Global().CheckStrongAtomicity(this, line, /*is_write=*/true, nullptr);
  }
  s.unlock();
  ChargeLines(ctx, 1);
  return cur;
}

bool MemoryBus::TxRead(ThreadContext* ctx, HtmDesc* self, uint64_t offset, void* dst, size_t len) {
  DRTMR_CHECK(offset + len <= size_) << offset << "+" << len;
  const uint64_t first = LineOf(offset);
  const uint64_t end = LineEnd(offset, len);
  auto* out = static_cast<std::byte*>(dst);
  for (uint64_t line = first; line < end; ++line) {
    const uint64_t lo = std::max<uint64_t>(offset, line * kCacheLineSize);
    const uint64_t hi = std::min<uint64_t>(offset + len, (line + 1) * kCacheLineSize);
    Spinlock& s = StripeFor(line);
    s.lock();
    if (self->state.load(std::memory_order_acquire) != HtmDesc::kActive) {
      s.unlock();
      return false;
    }
    std::memcpy(out + (lo - offset), mem_.get() + lo, hi - lo);
    // A transactional read conflicts with other transactions' speculative
    // writes; requester wins (the writer is doomed), matching RTM's
    // coherence-driven eager conflict resolution.
    DoomConflicting(self, line, /*is_write=*/false);
    if (!self->reads.Add(line)) {
      self->Doom(HtmDesc::kCapacity);
      s.unlock();
      return false;
    }
    s.unlock();
  }
  ChargeLines(ctx, end - first);
  return true;
}

bool MemoryBus::TxRegisterWrite(ThreadContext* ctx, HtmDesc* self, uint64_t offset, size_t len) {
  DRTMR_CHECK(offset + len <= size_) << offset << "+" << len;
  const uint64_t first = LineOf(offset);
  const uint64_t end = LineEnd(offset, len);
  for (uint64_t line = first; line < end; ++line) {
    Spinlock& s = StripeFor(line);
    s.lock();
    if (self->state.load(std::memory_order_acquire) != HtmDesc::kActive) {
      s.unlock();
      return false;
    }
    DoomConflicting(self, line, /*is_write=*/true);
    if (!self->writes.Add(line)) {
      self->Doom(HtmDesc::kCapacity);
      s.unlock();
      return false;
    }
    s.unlock();
  }
  ChargeLines(ctx, end - first);
  return true;
}

bool MemoryBus::TxCommitApply(ThreadContext* ctx, HtmDesc* self,
                              const std::vector<RedoEntry>& redo) {
  // Collect the distinct stripes covering every redo byte, lock them all in
  // sorted order (two concurrent commits therefore cannot deadlock), verify
  // the transaction is still alive, then apply. Holding every stripe for the
  // duration makes the commit atomic at line granularity, like real RTM.
  uint32_t stripe_ids[kStripes];
  uint32_t n_stripes = 0;
  bool seen[kStripes] = {};
  uint64_t nlines = 0;
  for (const auto& e : redo) {
    const uint64_t first = LineOf(e.offset);
    const uint64_t end = LineEnd(e.offset, e.data.size());
    nlines += end - first;
    for (uint64_t line = first; line < end; ++line) {
      const uint32_t sid = static_cast<uint32_t>(line & (kStripes - 1));
      if (!seen[sid]) {
        seen[sid] = true;
        stripe_ids[n_stripes++] = sid;
      }
    }
  }
  std::sort(stripe_ids, stripe_ids + n_stripes);
  for (uint32_t i = 0; i < n_stripes; ++i) {
    stripes_[stripe_ids[i]].lock();
  }
  const bool alive = self->state.load(std::memory_order_acquire) == HtmDesc::kActive;
  if (alive) {
    for (const auto& e : redo) {
      DRTMR_CHECK(e.offset + e.data.size() <= size_);
      std::memcpy(mem_.get() + e.offset, e.data.data(), e.data.size());
    }
    // Mark the descriptor free *before* releasing the stripes so a late
    // conflicting access cannot doom an already-committed transaction.
    self->state.store(HtmDesc::kFree, std::memory_order_release);
  }
  for (uint32_t i = n_stripes; i > 0; --i) {
    stripes_[stripe_ids[i - 1]].unlock();
  }
  ChargeLines(ctx, nlines);
  return alive;
}

}  // namespace drtmr::sim
