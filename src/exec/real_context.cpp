#include "exec/real_context.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>

namespace sst::exec {

namespace {

/// Safety ceiling on any single blocking wait. Completion wakeups come
/// from the ring itself, so this never fires on the hot path; it bounds
/// the damage of a lost-wakeup bug to a 1 Hz retry instead of a hang. A
/// wait that ends here is a timer wakeup: the reactor armed this deadline.
constexpr SimTime kMaxBlock = sec(1);

}  // namespace

RealContext::RealContext() : epoch_(std::chrono::steady_clock::now()) {}

SimTime RealContext::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

std::uint32_t RealContext::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void RealContext::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.alive = false;
  ++slot.generation;  // invalidates outstanding handles and heap records
  slot.next_free = free_head_;
  free_head_ = index;
}

TaskHandle RealContext::schedule_at(SimTime when, TaskFn fn) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.alive = true;
  ++live_;
  const std::uint32_t generation = slot.generation;
  queue_.push(HeapEntry{when, next_seq_++, index, generation});
  return make_handle(index, generation);
}

bool RealContext::task_pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slots_.size() && slots_[slot].generation == generation &&
         slots_[slot].alive;
}

void RealContext::cancel_task(std::uint32_t slot, std::uint32_t generation) {
  if (!task_pending(slot, generation)) return;
  --live_;
  release_slot(slot);  // the heap record goes stale and is purged lazily
}

void RealContext::purge_dead_tops() {
  while (!queue_.empty() &&
         slots_[queue_.top().slot].generation != queue_.top().generation) {
    queue_.pop();
  }
}

std::size_t RealContext::fire_due() {
  std::size_t fired = 0;
  for (;;) {
    purge_dead_tops();
    if (queue_.empty() || queue_.top().when > now()) return fired;
    const HeapEntry top = queue_.top();
    queue_.pop();
    Slot& slot = slots_[top.slot];
    TaskFn fn = std::move(slot.fn);
    --live_;
    release_slot(top.slot);  // recycle before invoking: fn may schedule again
    ++executed_;
    fn();
    ++fired;
  }
}

void RealContext::wait_for_work(SimTime max_wait) {
  const SimTime wait = std::min(max_wait, kMaxBlock);
  if (in_flight() == 0) {
    // No I/O outstanding: completions cannot arrive (submissions only
    // happen from this thread), so a plain sleep until the next timer is
    // exact.
    if (wait == 0) return;
    ++stats_.wakeups;
    ++stats_.idle_sleeps;
    ++stats_.timer_wakeups;
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    return;
  }
  // Reap already-posted completions without a syscall. Staged submissions
  // deliberately stay local here: they ride the blocking wait below, so
  // completion callbacks that submit coalesce into one larger batch.
  std::size_t delivered = driver_->poll(0);
  if (delivered == 0 && wait > 0) {
    const SimTime target = now() + wait;
    delivered = driver_->poll(wait);
    ++stats_.wakeups;
    if (delivered > 0) {
      ++stats_.completion_wakeups;
    } else if (now() >= target) {
      ++stats_.timer_wakeups;
    } else {
      ++stats_.spurious_wakeups;
    }
  }
  stats_.completions += delivered;
}

void RealContext::run_until(SimTime deadline) {
  for (;;) {
    fire_due();
    const SimTime t = now();
    if (t >= deadline) return;
    purge_dead_tops();
    const SimTime next = queue_.empty() ? kSimTimeMax : queue_.top().when;
    const SimTime target = std::min(deadline, next);
    wait_for_work(target > t ? target - t : 0);
  }
}

void RealContext::run() {
  for (;;) {
    fire_due();
    if (live_ == 0 && in_flight() == 0) return;
    purge_dead_tops();
    const SimTime t = now();
    // Sleep exactly until the next timer; in-flight I/O wakes the reactor
    // from inside the driver's blocking poll, so no responsive floor is
    // needed. With I/O pending and no timers at all, the safety ceiling
    // bounds the block.
    SimTime wait = kMaxBlock;
    if (!queue_.empty()) {
      wait = queue_.top().when > t ? queue_.top().when - t : 0;
    }
    wait_for_work(wait);
  }
}

}  // namespace sst::exec
