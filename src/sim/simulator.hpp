// Discrete-event simulation core.
//
// The whole I/O hierarchy (disks, controllers, the host scheduler, workload
// generators) is simulated as callbacks scheduled on one Simulator. Events
// at equal timestamps fire in scheduling order (a monotone sequence number
// breaks ties), which keeps runs deterministic.
//
// The event store is a pooled slab: each scheduled event occupies a reusable
// slot holding its callback inline (no heap allocation for closures up to
// TaskFn::kInlineBytes). Pending events are indexed by a hierarchical timer
// wheel — kLevels levels of kSlots buckets, one 64-bit occupancy bitmap per
// level — whose buckets are intrusive doubly-linked lists threaded through
// the slab slots, so schedule, cancel (O(1) unlink) and dispatch perform no
// per-event heap allocation and no comparison-sort maintenance. Events
// beyond the wheel horizon (2^48 ns ≈ 3 days of sim time) overflow into a
// small binary min-heap. Same-timestamp events are collected into one batch
// per tick, ordered by sequence number, and dispatched back to back.
// Handles address events by (slot, generation), so a recycled slot
// invalidates stale handles without shared ownership.
//
// Simulator is the simulated implementation of exec::ExecutionContext
// (exec/execution_context.hpp): every layer above the block-device seam
// schedules against the abstract context, and this engine — or the
// wall-clock RealContext — supplies the time base. The class is `final` so
// call sites holding a concrete Simulator& (the engine's own hot loops,
// microbenchmarks, the sharded coordinator) still devirtualize now() and
// schedule_at.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "exec/execution_context.hpp"
#include "exec/task_fn.hpp"

namespace sst::sim {

/// Handle used to cancel a scheduled event. Cancellation of a wheel-resident
/// event unlinks it in O(1) and recycles its slot immediately; events parked
/// in the overflow heap or the current dispatch batch release their callback
/// immediately and leave a stale record that is skipped when reached.
/// EventHandle is the execution-context TaskHandle: small value type
/// addressing a slab slot by generation, safely inert after the event fires
/// or is cancelled. The handle must not outlive the Simulator itself.
using EventHandle = exec::TaskHandle;

class Simulator final : public exec::ExecutionContext {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedule `fn` to run at absolute time `when` (must be >= now()).
  EventHandle schedule_at(SimTime when, exec::TaskFn fn) override;

  /// Schedule `fn` to run `delay` nanoseconds from now.
  EventHandle schedule_after(SimTime delay, exec::TaskFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run until the event queue drains or `deadline` is reached, whichever
  /// comes first. Events scheduled exactly at the deadline still run.
  /// Returns the number of events executed. The clock ends at `deadline`
  /// even if the queue drains earlier, so consecutive run_until calls see
  /// contiguous time.
  std::uint64_t run_until(SimTime deadline);

  /// Run until the event queue drains completely.
  std::uint64_t run();

  /// Execute exactly one event if any is pending. Returns false when empty.
  bool step();

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  /// Scheduled-and-not-cancelled events still waiting to fire.
  [[nodiscard]] std::size_t pending_events() const { return live_count_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Events relocated from a higher wheel level toward level 0 as the clock
  /// advanced (each event cascades at most kLevels-1 times in its life).
  [[nodiscard]] std::uint64_t wheel_cascades() const { return cascades_; }
  /// Events scheduled beyond the wheel horizon into the overflow heap.
  [[nodiscard]] std::uint64_t overflow_events() const { return overflowed_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Wheel geometry: kLevels levels of 64 buckets; level L buckets are
  /// 64^L ns wide, so the wheel spans 2^(6*kLevels) ns before the overflow
  /// heap takes over.
  static constexpr std::uint32_t kSlotBits = 6;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kLevels = 8;
  static constexpr std::uint64_t kBucketMask = kSlots - 1;

  /// Where a slot currently lives; drives the cancel/unlink path.
  enum class Where : std::uint8_t { kFree, kWheel, kHeap, kBatch };

  /// One slab slot: the callback, the generation outstanding handles must
  /// match, the event's key, and the intrusive wheel-bucket linkage. Free
  /// slots chain through `next`.
  struct Slot {
    exec::TaskFn fn;
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
    std::uint32_t generation = 0;
    std::uint8_t level = 0;
    std::uint8_t bucket = 0;
    Where where = Where::kFree;
    bool alive = false;
  };

  /// Overflow-heap records are plain data; the callback stays in the slab.
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

  /// A batch member: one event of the tick being dispatched, ordered by seq.
  struct BatchEntry {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Link `index` into the wheel bucket or overflow heap for `when`.
  void enqueue_slot(std::uint32_t index, SimTime when);
  /// Remove a wheel-resident slot from its bucket list.
  void unlink(std::uint32_t index);

  /// Drop cancelled records off the top of the overflow heap.
  void purge_dead_heap_tops();
  /// Gather every event due at the earliest pending time into batch_,
  /// sorted by seq, and advance the clock and wheel cursor to it — all in
  /// one pass over the one bucket that holds the minimum (due events go
  /// straight into the batch; the rest cascade toward level 0). False when
  /// nothing is pending at or before `deadline`; the structure is left
  /// untouched in that case.
  bool collect_batch(SimTime deadline);
  /// Fire batch members from batch_pos_ on; stops after `limit` live events.
  std::uint64_t fire_batch(std::uint64_t limit);

  [[nodiscard]] bool event_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           slots_[slot].alive;
  }
  void cancel_event(std::uint32_t slot, std::uint32_t generation);

  /// exec::TaskHandle support: handles minted by schedule_at resolve here.
  [[nodiscard]] bool task_pending(std::uint32_t slot,
                                  std::uint32_t generation) const override {
    return event_pending(slot, generation);
  }
  void cancel_task(std::uint32_t slot, std::uint32_t generation) override {
    cancel_event(slot, generation);
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cascades_ = 0;
  std::uint64_t overflowed_ = 0;
  std::size_t live_count_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  /// Bucket list heads and per-level occupancy bitmaps (bit b = bucket b
  /// non-empty). heads_[L][b] indexes the first slot of the bucket's list.
  std::uint64_t occupancy_[kLevels] = {};
  std::uint32_t heads_[kLevels][kSlots];
  /// Wheel cursor: the time the bucket layout is relative to. Always the
  /// timestamp of the batch being dispatched (== now_ while events fire).
  SimTime cur_tick_ = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> overflow_;

  /// The current same-timestamp dispatch batch (sorted by seq) and the next
  /// member to fire. Reused across ticks; no steady-state allocation.
  std::vector<BatchEntry> batch_;
  std::size_t batch_pos_ = 0;
};

}  // namespace sst::sim
