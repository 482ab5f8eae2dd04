// Conservative time-window synchronization for the virtual-time simulation.
//
// Worker threads advance private virtual clocks, but the host may have fewer
// physical cores than simulated threads: a lock holder can be descheduled for
// milliseconds of real time while waiters spin, charging virtual time for
// thousands of retries that could never happen on real hardware. The TimeGate
// bounds the skew: a thread whose clock is more than `window` ahead of the
// slowest active clock blocks (in real time) until the laggard catches up —
// the standard conservative time-window scheme from parallel discrete-event
// simulation. Every spin loop in the system charges virtual time, so active
// threads always advance and the gate cannot deadlock.
//
// The gate is also the only way to start a thread that runs on a simulated
// clock (an actor). Spawn registers the actor's clock before its thread runs,
// makes the gate the thread's current gate, and retires the clock when the
// actor's function returns, so a finished or parked actor never holds the
// others back. Sync is static: it syncs against the calling thread's gate and
// does nothing on a thread that no gate spawned.
#ifndef DRTMR_SRC_SIM_TIME_GATE_H_
#define DRTMR_SRC_SIM_TIME_GATE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "src/sim/thread_context.h"
#include "src/util/sim_clock.h"

namespace drtmr::sim {

class TimeGate {
 public:
  // The largest gated run spawns 96 workers (fig11/fig12/fig14).
  static constexpr uint32_t kMaxActors = 256;

  // A spawned actor's thread; joined when the handle is destroyed.
  using Actor = std::jthread;

  // While a Hold is alive, newly spawned actors register but do not start, so
  // actors spawned under one Hold see each other's clocks from their first
  // step, as if all were registered at once. Holds nest.
  class Hold {
   public:
    explicit Hold(TimeGate* gate) : gate_(gate) {
      gate_->holds_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~Hold() { gate_->holds_.fetch_sub(1, std::memory_order_release); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    TimeGate* gate_;
  };

  explicit TimeGate(uint64_t window_ns) : window_ns_(window_ns) {}
  TimeGate(const TimeGate&) = delete;
  TimeGate& operator=(const TimeGate&) = delete;

  // Runs `fn` on a new thread as an actor on `ctx`'s clock. Safe while other
  // actors run and Sync. The gate must outlive the returned handle.
  template <typename Fn>
  Actor Spawn(ThreadContext* ctx, Fn fn) {
    Entry* self = Register(ctx);
    return Actor([this, self, fn = std::move(fn)]() mutable {
      current_ = this;
      self_ = self;
      while (holds_.load(std::memory_order_acquire) > 0) {
        std::this_thread::yield();
      }
      fn();
      self->retired.store(true, std::memory_order_release);
    });
  }

  // Blocks while `mine` is more than window ahead of the slowest active clock
  // of the calling thread's gate. A wait of 2^22 consecutive yields logs one
  // line naming the waiter and the actor it waits on.
  static void Sync(const SimClock* mine);

 private:
  struct Entry {
    const ThreadContext* ctx = nullptr;
    std::atomic<bool> retired{false};
  };

  Entry* Register(const ThreadContext* ctx);
  void LogStall(const SimClock* mine, const Entry* lag) const;

  static thread_local const TimeGate* current_;
  static thread_local const Entry* self_;

  const uint64_t window_ns_;
  std::atomic<int> holds_{0};
  std::mutex register_mu_;  // serializes spawners; Sync reads `count_` only
  std::atomic<uint32_t> count_{0};
  std::array<Entry, kMaxActors> entries_;
};

}  // namespace drtmr::sim

#endif  // DRTMR_SRC_SIM_TIME_GATE_H_
