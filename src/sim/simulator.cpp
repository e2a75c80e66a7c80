#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sst::sim {

namespace {

constexpr SimTime kMaxTime = UINT64_MAX;

/// Wheel level an event at `when` belongs to, relative to cursor `cur`:
/// the level of the highest bit in which the two differ. Equal times are
/// level 0; level >= kLevels means beyond the wheel horizon.
inline std::uint32_t level_of(SimTime when, SimTime cur, std::uint32_t slot_bits) {
  const std::uint64_t diff = when ^ cur;
  if (diff == 0) return 0;
  return (63u - static_cast<std::uint32_t>(std::countl_zero(diff))) / slot_bits;
}

}  // namespace

Simulator::Simulator() {
  for (auto& level : heads_) {
    std::fill(std::begin(level), std::end(level), kNoSlot);
  }
  // One-time capacity so a rare wide tick (many same-timestamp events) never
  // allocates on the dispatch path.
  batch_.reserve(kSlots * 4);
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.alive = false;
  slot.where = Where::kFree;
  ++slot.generation;  // invalidates every outstanding handle and queue record
  slot.next = free_head_;
  free_head_ = index;
}

void Simulator::enqueue_slot(std::uint32_t index, SimTime when) {
  Slot& slot = slots_[index];
  const std::uint32_t level = level_of(when, cur_tick_, kSlotBits);
  if (level >= kLevels) {
    slot.where = Where::kHeap;
    overflow_.push(HeapEntry{when, slot.seq, index, slot.generation});
    ++overflowed_;
    return;
  }
  const auto bucket =
      static_cast<std::uint32_t>((when >> (level * kSlotBits)) & kBucketMask);
  slot.level = static_cast<std::uint8_t>(level);
  slot.bucket = static_cast<std::uint8_t>(bucket);
  slot.where = Where::kWheel;
  slot.prev = kNoSlot;
  slot.next = heads_[level][bucket];
  if (slot.next != kNoSlot) slots_[slot.next].prev = index;
  heads_[level][bucket] = index;
  occupancy_[level] |= std::uint64_t{1} << bucket;
}

void Simulator::unlink(std::uint32_t index) {
  Slot& slot = slots_[index];
  assert(slot.where == Where::kWheel);
  if (slot.prev != kNoSlot) {
    slots_[slot.prev].next = slot.next;
  } else {
    heads_[slot.level][slot.bucket] = slot.next;
  }
  if (slot.next != kNoSlot) slots_[slot.next].prev = slot.prev;
  if (heads_[slot.level][slot.bucket] == kNoSlot) {
    occupancy_[slot.level] &= ~(std::uint64_t{1} << slot.bucket);
  }
}

EventHandle Simulator::schedule_at(SimTime when, exec::TaskFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.when = when;
  slot.seq = next_seq_++;
  slot.alive = true;
  ++live_count_;
  const std::uint32_t generation = slot.generation;
  enqueue_slot(index, when);
  return make_handle(index, generation);
}

void Simulator::cancel_event(std::uint32_t index, std::uint32_t generation) {
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (slot.generation != generation || !slot.alive) return;
  if (slot.where == Where::kWheel) unlink(index);
  // Heap/batch residents leave a stale record behind; the generation bump
  // from release_slot makes it skippable when reached.
  --live_count_;
  release_slot(index);
}

void Simulator::purge_dead_heap_tops() {
  while (!overflow_.empty() &&
         slots_[overflow_.top().slot].generation != overflow_.top().generation) {
    overflow_.pop();
  }
}

bool Simulator::collect_batch(SimTime deadline) {
  assert(batch_pos_ >= batch_.size() && "previous batch not fully consumed");
  if (live_count_ == 0) return false;
  purge_dead_heap_tops();

  // The earliest wheel event lives in the lowest occupied bucket of the
  // first non-empty level: all level-L events share the cursor's digits
  // above L, so buckets order them, and level-L events all lie beyond the
  // level-(L-1) window.
  std::uint32_t level = 0;
  while (level < kLevels && occupancy_[level] == 0) ++level;

  SimTime when = 0;
  bool have = false;
  // A level > 0 bucket spans many timestamps and its list is unordered, so
  // finding the minimum needs a walk anyway; detach the whole list up front
  // and redistribute it after the clock moves (due events go straight into
  // the batch, the rest re-enqueue at a lower level).
  std::uint32_t detached = kNoSlot;
  std::uint32_t det_level = 0;
  std::uint32_t det_bucket = 0;

  if (level < kLevels) {
    const auto bucket =
        static_cast<std::uint32_t>(std::countr_zero(occupancy_[level]));
    if (level == 0) {
      // A level-0 bucket maps to exactly one timestamp.
      when = (cur_tick_ & ~kBucketMask) | bucket;
    } else {
      det_level = level;
      det_bucket = bucket;
      detached = heads_[level][bucket];
      heads_[level][bucket] = kNoSlot;
      occupancy_[level] &= ~(std::uint64_t{1} << bucket);
      when = slots_[detached].when;
      for (std::uint32_t node = slots_[detached].next; node != kNoSlot;
           node = slots_[node].next) {
        when = std::min(when, slots_[node].when);
      }
    }
    have = true;
  }
  if (!overflow_.empty() && (!have || overflow_.top().when < when)) {
    when = overflow_.top().when;
    have = true;
  }
  if (!have || when > deadline) {
    if (detached != kNoSlot) {
      // Nothing moved inside the list; reattaching the head undoes the
      // detach exactly.
      heads_[det_level][det_bucket] = detached;
      occupancy_[det_level] |= std::uint64_t{1} << det_bucket;
    }
    return false;
  }

  assert(when >= cur_tick_ && when >= now_);
  cur_tick_ = when;
  now_ = when;
  batch_.clear();
  batch_pos_ = 0;

  while (detached != kNoSlot) {
    Slot& slot = slots_[detached];
    const std::uint32_t next = slot.next;
    if (slot.when == when) {
      slot.where = Where::kBatch;
      batch_.push_back(BatchEntry{slot.seq, detached, slot.generation});
    } else {
      enqueue_slot(detached, slot.when);
      ++cascades_;
    }
    detached = next;
  }
  // Drain the due level-0 bucket (the level == 0 path above; also events
  // scheduled at the current timestamp during the previous batch).
  const auto bucket0 = static_cast<std::uint32_t>(when & kBucketMask);
  if ((occupancy_[0] & (std::uint64_t{1} << bucket0)) != 0) {
    std::uint32_t node = heads_[0][bucket0];
    heads_[0][bucket0] = kNoSlot;
    occupancy_[0] &= ~(std::uint64_t{1} << bucket0);
    while (node != kNoSlot) {
      Slot& slot = slots_[node];
      assert(slot.when == when && slot.alive && slot.where == Where::kWheel);
      slot.where = Where::kBatch;
      batch_.push_back(BatchEntry{slot.seq, node, slot.generation});
      node = slot.next;
    }
  }
  while (!overflow_.empty() && overflow_.top().when == when) {
    const HeapEntry top = overflow_.top();
    overflow_.pop();
    Slot& slot = slots_[top.slot];
    if (slot.generation != top.generation) continue;  // cancelled: stale record
    assert(slot.when == when && slot.alive && slot.where == Where::kHeap);
    slot.where = Where::kBatch;
    batch_.push_back(BatchEntry{top.seq, top.slot, top.generation});
  }
  assert(!batch_.empty());
  // Same-timestamp events fire in scheduling order; bucket lists and the
  // heap run are unordered, so one small sort per tick restores it.
  if (batch_.size() > 1) {
    std::sort(batch_.begin(), batch_.end(),
              [](const BatchEntry& a, const BatchEntry& b) { return a.seq < b.seq; });
  }
  return true;
}

std::uint64_t Simulator::fire_batch(std::uint64_t limit) {
  std::uint64_t fired = 0;
  while (fired < limit && batch_pos_ < batch_.size()) {
    const BatchEntry entry = batch_[batch_pos_++];
    Slot& slot = slots_[entry.slot];
    if (slot.generation != entry.generation) continue;  // cancelled mid-batch
    assert(slot.alive && slot.where == Where::kBatch);
    exec::TaskFn fn = std::move(slot.fn);
    --live_count_;
    release_slot(entry.slot);  // recycle before invoking: fn may schedule again
    ++executed_;
    fn();  // may grow slots_; `slot` is not touched afterwards
    ++fired;
  }
  return fired;
}

bool Simulator::step() {
  for (;;) {
    if (fire_batch(1) == 1) return true;
    if (!collect_batch(kMaxTime)) return false;
  }
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t ran = 0;
  if (now_ <= deadline) {
    // Leftover batch members (from step()) are due at now_ <= deadline.
    ran += fire_batch(UINT64_MAX);
    while (collect_batch(deadline)) ran += fire_batch(UINT64_MAX);
  }
  if (now_ < deadline) now_ = deadline;
  return ran;
}

std::uint64_t Simulator::run() {
  std::uint64_t ran = fire_batch(UINT64_MAX);
  while (collect_batch(kMaxTime)) ran += fire_batch(UINT64_MAX);
  return ran;
}

}  // namespace sst::sim
