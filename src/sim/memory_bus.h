// MemoryBus simulates one machine's coherent physical memory as seen by the
// CPU, by HTM transactions, and by the RDMA NIC. It is the single point where
// DrTM+R's two load-bearing hardware properties are enforced:
//
//  * Strong atomicity of HTM (§2.1): any non-transactional access — a local
//    CPU access or an incoming one-sided RDMA verb — that conflicts with an
//    active HTM transaction's read/write set unconditionally dooms that
//    transaction. Conflicts are tracked at cache-line granularity, exactly
//    like Intel RTM, so false sharing aborts transactions too.
//
//  * Strong consistency of RDMA (§2.1): RDMA verbs are routed through this
//    bus and are therefore cache-coherent with CPU accesses. A WRITE is
//    atomic only *within* a cache line: multi-line writes are applied line by
//    line, last line first, under separate stripe locks, so a concurrent
//    reader can observe a torn record — the hazard Fig. 4 of the paper is
//    about.
//
// All accesses charge virtual time (see src/sim/cost_model.h).
#ifndef DRTMR_SRC_SIM_MEMORY_BUS_H_
#define DRTMR_SRC_SIM_MEMORY_BUS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/thread_context.h"
#include "src/util/cacheline.h"
#include "src/util/spinlock.h"

namespace drtmr::sim {

// Set of cache-line indices owned by one HTM transaction. Single writer (the
// transaction's thread), concurrent readers (the exact membership check of a
// conflicting access, reached only through the bus's conflict directory, and
// the analyzer's independent walk). A 64-bit hash summary gives O(1) negative
// membership tests, the common case; real RTM uses a similar imprecise filter
// for its read set.
class LineSet {
 public:
  explicit LineSet(uint32_t capacity);

  // Returns false when the set is full (HTM capacity abort).
  bool Add(uint64_t line);
  bool Contains(uint64_t line) const;
  void Clear();

  uint32_t size() const { return size_.load(std::memory_order_acquire); }
  uint64_t entry(uint32_t i) const { return entries_[i].load(std::memory_order_relaxed); }
  uint32_t capacity() const { return capacity_; }

 private:
  static uint64_t SummaryBit(uint64_t line) { return 1ull << ((line * 0x9e3779b97f4a7c15ull) >> 58); }

  std::atomic<uint64_t> summary_{0};
  std::atomic<uint32_t> size_{0};
  uint32_t capacity_;
  std::vector<std::atomic<uint64_t>> entries_;
};

// Registry descriptor for one (potential) HTM transaction slot. One slot per
// worker thread per node; the descriptor is reused across transactions.
struct HtmDesc {
  enum State : uint32_t { kFree = 0, kActive = 1, kDoomed = 2 };
  // Doom reasons, mirrored by HtmTxn::AbortCode.
  enum DoomCode : uint32_t { kNone = 0, kConflict = 1, kCapacity = 2, kExplicit = 3, kIo = 4 };

  HtmDesc(uint32_t slot_index, uint32_t read_cap, uint32_t write_cap)
      : slot(slot_index), reads(read_cap), writes(write_cap) {}

  const uint32_t slot;  // index on its bus: its bit in a stripe's holder mask
  std::atomic<uint32_t> state{kFree};
  std::atomic<uint32_t> doom_code{kNone};
  LineSet reads;
  LineSet writes;

  bool Doom(uint32_t code) {
    uint32_t expect = kActive;
    if (state.compare_exchange_strong(expect, kDoomed, std::memory_order_acq_rel)) {
      doom_code.store(code, std::memory_order_release);
      return true;
    }
    return false;
  }
};

// One region's buffered transactional writes awaiting commit: every write's
// bytes go, in order, into one buffer, and each write keeps a span of it. Each
// HtmTxn reuses one log across its regions, and the log keeps its capacity,
// so a warm region buffers its writes without allocating.
class RedoLog {
 public:
  struct Entry {
    uint64_t offset;  // bus address of the first byte
    uint32_t pos;     // first byte in the buffer
    uint32_t len;
  };

  void Append(uint64_t offset, const void* src, size_t len) {
    const auto* in = static_cast<const std::byte*>(src);
    entries_.push_back({offset, static_cast<uint32_t>(bytes_.size()), static_cast<uint32_t>(len)});
    bytes_.insert(bytes_.end(), in, in + len);
  }
  void Clear() {
    entries_.clear();
    bytes_.clear();
  }

  const std::vector<Entry>& entries() const { return entries_; }
  const std::byte* data(const Entry& e) const { return bytes_.data() + e.pos; }

 private:
  std::vector<Entry> entries_;
  std::vector<std::byte> bytes_;
};

class MemoryBus {
 public:
  // `size` bytes of registered memory; `slots` HTM descriptor slots (one per
  // thread that may run HTM transactions on this machine), at most kMaxSlots.
  MemoryBus(size_t size, const CostModel* cost, uint32_t slots, uint32_t htm_read_cap,
            uint32_t htm_write_cap);
  // Drops this bus's analyzer shadow (a later bus may reuse the address).
  ~MemoryBus();

  // One bit per slot in a stripe's holder mask.
  static constexpr uint32_t kMaxSlots = 64;

  size_t size() const { return size_; }
  std::byte* raw() { return mem_.get(); }

  HtmDesc* desc(uint32_t slot) { return descs_[slot].get(); }
  uint32_t num_slots() const { return static_cast<uint32_t>(descs_.size()); }

  // Scales all local-memory and HTM costs (x100); used to model cross-socket
  // coherence overhead when a node runs threads on both sockets.
  void set_cost_scale_pct(uint32_t pct) { cost_scale_pct_.store(pct, std::memory_order_relaxed); }
  uint32_t cost_scale_pct() const { return cost_scale_pct_.load(std::memory_order_relaxed); }

  // ---- Non-transactional coherent accesses (local CPU and RDMA NIC). ----
  void Read(ThreadContext* ctx, uint64_t offset, void* dst, size_t len);
  void Write(ThreadContext* ctx, uint64_t offset, const void* src, size_t len);
  uint64_t ReadU64(ThreadContext* ctx, uint64_t offset);
  void WriteU64(ThreadContext* ctx, uint64_t offset, uint64_t value);
  // Atomic compare-and-swap on an 8-byte-aligned word. Returns true on swap;
  // *observed receives the pre-existing value either way.
  bool CasU64(ThreadContext* ctx, uint64_t offset, uint64_t expected, uint64_t desired,
              uint64_t* observed);
  uint64_t FetchAddU64(ThreadContext* ctx, uint64_t offset, uint64_t delta);

  // ---- Transactional accesses (called by HtmTxn only). ----
  // Reads committed memory into dst, registers the lines in self's read set,
  // and dooms conflicting writers. Returns false if self got doomed (capacity
  // or an earlier conflict); the caller must abort.
  bool TxRead(ThreadContext* ctx, HtmDesc* self, uint64_t offset, void* dst, size_t len);
  // Registers the write lines and dooms conflicting transactions (eager
  // write-conflict detection, like RTM ownership acquisition).
  bool TxRegisterWrite(ThreadContext* ctx, HtmDesc* self, uint64_t offset, size_t len);
  // Atomically applies the redo log if self is still active. All affected
  // stripes are held for the duration, making the commit atomic with respect
  // to any per-line access, exactly like an RTM commit.
  bool TxCommitApply(ThreadContext* ctx, HtmDesc* self, const RedoLog& redo);

 private:
  static constexpr uint32_t kStripes = 1024;
  // One host cache line per stripe (64 KiB per bus): packed one-byte locks
  // would put 64 stripes on a line and make unrelated records false-share it.
  //
  // The line also holds the stripe's slice of the conflict directory: bit i
  // of `holders` is set once slot i's region has added a line of this stripe
  // to its read or write set. Real RTM tracks each core's sets in that core's
  // L1 and learns of a conflict by a coherence message to that core; the mask
  // is the message's address list, so an access examines only the flagged
  // descriptors instead of every one. `holders` is read and written only
  // under the stripe lock. Invariant: every kActive descriptor's bit is set
  // on the stripe of every line in its sets. Extra bits are allowed: a region
  // end clears nothing, and an access that walks the mask clears the bit of a
  // flagged descriptor it finds no longer active.
  struct alignas(kCacheLineSize) Stripe : Spinlock {
    uint64_t holders = 0;
  };

  Stripe& StripeFor(uint64_t line) { return stripes_[line & (kStripes - 1)]; }

  // Sets self's holder bit on `s` after self added a line of it to a set.
  // Caller holds `s`.
  static void AddHolder(Stripe& s, const HtmDesc* self) { s.holders |= uint64_t{1} << self->slot; }

  // Dooms every *other* active transaction in conflict with an access to
  // `line`: writers always conflict; readers conflict only with a write. Only
  // the descriptors flagged in the stripe's holder mask can hold the line;
  // each flagged active one gets the exact set check. Caller must hold `s`,
  // the stripe for `line`.
  void DoomConflicting(Stripe& s, const HtmDesc* self, uint64_t line, bool is_write);

  void ChargeLines(ThreadContext* ctx, uint64_t nlines);

  size_t size_;
  std::unique_ptr<std::byte[]> mem_;
  const CostModel* cost_;
  std::atomic<uint32_t> cost_scale_pct_{100};
  std::vector<std::unique_ptr<HtmDesc>> descs_;
  std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace drtmr::sim

#endif  // DRTMR_SRC_SIM_MEMORY_BUS_H_
