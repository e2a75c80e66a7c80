// Wall-clock execution context: the real-I/O counterpart of the simulator.
//
// RealContext runs the same callback graph the simulator runs, but `now()`
// is the monotonic clock (nanoseconds since construction, so time starts at
// zero like a simulation) and scheduled tasks fire from a reactor loop.
// Between due timers the loop drains the context's one CompletionDriver —
// the io_uring every UringBlockDevice opened on this context shares — so
// I/O completions and timer callbacks are delivered on one thread,
// preserving the single-threaded execution model every layer above the
// block-device seam was written against.
//
// The reactor has one blocking primitive. Each turn it reaps completions
// already posted (no syscall; staged submissions stay local so callbacks
// that submit coalesce into one batch), and only when nothing was ready
// blocks: with I/O in flight inside the driver's poll — for the ring, one
// io_uring_enter that submits the staged batch and waits for completions
// with the next timer's deadline as its timeout — and with no I/O in
// flight in a plain sleep until the next timer. ReactorStats counts
// wakeups and classifies them (completion / timer / spurious).
//
// Task bookkeeping mirrors the simulator's slab: slots are recycled through
// a free list, handles address (slot, generation), and cancelled heap
// records are purged lazily when they surface.
#pragma once

#include <chrono>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "exec/execution_context.hpp"

namespace sst::exec {

/// The reactor's source of asynchronous completions: the io_uring shared
/// by a context's UringBlockDevices, or a test fake. RealContext drains it
/// between timer callbacks.
class CompletionDriver {
 public:
  virtual ~CompletionDriver() = default;

  /// Deliver ready completions. poll(0) must not block; with `max_wait` >
  /// 0 and nothing ready it pushes staged submissions and blocks up to
  /// `max_wait` nanoseconds for completions (ideally both in one syscall).
  /// Returns the number of completion events handled.
  virtual std::size_t poll(SimTime max_wait) = 0;

  /// Operations submitted and not yet completed.
  [[nodiscard]] virtual std::size_t in_flight() const = 0;
};

/// Reactor wakeup accounting, exported as the reactor.* metrics group by
/// the real experiment runner.
struct ReactorStats {
  std::uint64_t wakeups = 0;           ///< blocking waits that returned
  std::uint64_t completion_wakeups = 0;///< returned with completions delivered
  std::uint64_t timer_wakeups = 0;     ///< returned at the armed deadline
  std::uint64_t spurious_wakeups = 0;  ///< returned early with nothing to do
  std::uint64_t idle_sleeps = 0;       ///< no-I/O sleeps until the next timer
  std::uint64_t completions = 0;       ///< completion events the reactor handled

  /// Field list for merge and export (common/stat_fields.hpp).
  template <class V, class... S>
  static void fields(V& v, S&... s) {
    v.sum("wakeups", s.wakeups...);
    v.sum("completion_wakeups", s.completion_wakeups...);
    v.sum("timer_wakeups", s.timer_wakeups...);
    v.sum("spurious_wakeups", s.spurious_wakeups...);
    v.sum("idle_sleeps", s.idle_sleeps...);
    v.sum("completions", s.completions...);
  }
};

class RealContext final : public ExecutionContext {
 public:
  RealContext();

  /// Monotonic nanoseconds since construction.
  [[nodiscard]] SimTime now() const override;

  /// Past deadlines are allowed (unlike the simulator): the task fires on
  /// the reactor's next turn.
  TaskHandle schedule_at(SimTime when, TaskFn fn) override;

  /// Install the context's completion source; nullptr uninstalls it. A
  /// context holds at most one driver, which must outlive its installation.
  void set_driver(CompletionDriver* driver) { driver_ = driver; }
  [[nodiscard]] CompletionDriver* driver() const { return driver_; }

  /// Run timers and the completion driver until the wall clock reaches
  /// `deadline` (nanoseconds since construction). Tasks due exactly at the
  /// deadline still run; like Simulator::run_until, consecutive calls see
  /// contiguous time.
  void run_until(SimTime deadline);

  /// Run until no timers are pending and the driver has no I/O in flight.
  void run();

  [[nodiscard]] std::size_t pending_tasks() const { return live_; }
  [[nodiscard]] std::uint64_t executed_tasks() const { return executed_; }
  [[nodiscard]] const ReactorStats& reactor_stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    TaskFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool alive = false;
  };

  /// Heap records are plain data; the callback stays in the slab. Ties on
  /// `when` break by scheduling order (seq), matching the simulator.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool task_pending(std::uint32_t slot,
                                  std::uint32_t generation) const override;
  void cancel_task(std::uint32_t slot, std::uint32_t generation) override;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Drop cancelled records off the top of the timer heap.
  void purge_dead_tops();
  /// Fire every timer due at or before the current wall clock. Returns the
  /// number fired.
  std::size_t fire_due();
  [[nodiscard]] std::size_t in_flight() const {
    return driver_ != nullptr ? driver_->in_flight() : 0;
  }
  /// Reap ready completions, and when there were none block up to
  /// `max_wait` ns for I/O or the deadline (whichever comes first).
  void wait_for_work(SimTime max_wait);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> queue_;
  CompletionDriver* driver_ = nullptr;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  ReactorStats stats_;
};

}  // namespace sst::exec
