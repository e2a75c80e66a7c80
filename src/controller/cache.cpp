#include "controller/cache.hpp"

#include <algorithm>
#include <cassert>

namespace sst::ctrl {

namespace {

constexpr int kGenerationShift = 32;
constexpr ExtentCache::ExtentId kSlotMask = (ExtentCache::ExtentId{1} << kGenerationShift) - 1;

}  // namespace

ExtentCache::ExtentCache(Bytes capacity) : capacity_(capacity) {}

std::size_t ExtentCache::upper_bound(const DiskIndex& index, Lba lba) {
  const auto it = std::upper_bound(index.begin(), index.end(), lba,
                                   [](Lba key, const Entry& e) { return key < e.start; });
  return static_cast<std::size_t>(it - index.begin());
}

std::size_t ExtentCache::first_overlap(const DiskIndex& index, Lba lba) const {
  const std::size_t pos = upper_bound(index, lba);
  if (pos > 0) {
    const Extent& ext = slots_[index[pos - 1].slot];
    if (ext.start + ext.length > lba) return pos - 1;
  }
  return pos;
}

void ExtentCache::unlink(std::uint32_t slot) {
  Extent& ext = slots_[slot];
  (ext.prev == kNoSlot ? head_ : slots_[ext.prev].next) = ext.next;
  (ext.next == kNoSlot ? tail_ : slots_[ext.next].prev) = ext.prev;
}

void ExtentCache::link_tail(std::uint32_t slot) {
  Extent& ext = slots_[slot];
  ext.prev = tail_;
  ext.next = kNoSlot;
  (tail_ == kNoSlot ? head_ : slots_[tail_].next) = slot;
  tail_ = slot;
}

void ExtentCache::release(std::uint32_t slot) {
  Extent& ext = slots_[slot];
  used_ -= sectors_to_bytes(ext.length);
  unlink(slot);
  --count_;
  ++ext.generation;
  free_.push_back(slot);
}

void ExtentCache::touch(std::uint32_t slot, SimTime now) {
  assert(tail_ == kNoSlot || now >= slots_[tail_].last_access);
  slots_[slot].last_access = now;
  if (slot == tail_) return;
  unlink(slot);
  link_tail(slot);
}

bool ExtentCache::lookup(std::uint32_t disk, Lba lba, Lba sectors, SimTime now) {
  assert(sectors > 0);
  if (enabled() && disk < disks_.size()) {
    // Extents on a disk are disjoint, so only the one starting at or
    // before `lba` can contain the range.
    const DiskIndex& index = disks_[disk];
    const std::size_t pos = upper_bound(index, lba);
    if (pos > 0) {
      const std::uint32_t slot = index[pos - 1].slot;
      Extent& ext = slots_[slot];
      if (ext.filled && lba + sectors <= ext.start + ext.length) {
        touch(slot, now);
        ext.seq = ++seq_;
        ext.consumed = std::max(ext.consumed, lba + sectors - ext.start);
        ++stats_.hits;
        return true;
      }
    }
  }
  ++stats_.misses;
  return false;
}

void ExtentCache::account_waste(const Extent& extent) {
  if (extent.length > extent.consumed) {
    stats_.wasted_prefetch_bytes += sectors_to_bytes(extent.length - extent.consumed);
  }
  if (!extent.filled) ++stats_.inflight_evictions;
}

void ExtentCache::evict_lru() {
  // The head run shares the minimum last_access; the tie goes to the
  // extent inserted or lookup-hit most recently.
  std::uint32_t victim = head_;
  const SimTime oldest = slots_[victim].last_access;
  for (std::uint32_t s = slots_[victim].next; s != kNoSlot && slots_[s].last_access == oldest;
       s = slots_[s].next) {
    if (slots_[s].seq > slots_[victim].seq) victim = s;
  }
  const Extent& ext = slots_[victim];
  ++stats_.evictions;
  account_waste(ext);
  DiskIndex& index = disks_[ext.disk];
  index.erase(index.begin() + static_cast<std::ptrdiff_t>(upper_bound(index, ext.start) - 1));
  release(victim);
}

ExtentCache::ExtentId ExtentCache::reserve(std::uint32_t disk, Lba lba, Lba sectors,
                                           Lba request_sectors, SimTime now) {
  if (!enabled() || sectors == 0) return 0;
  const Lba keep = std::min(sectors, bytes_to_sectors(capacity_));
  if (disk >= disks_.size()) disks_.resize(disk + 1);
  // Replace any extent this one supersedes (same stream moving forward).
  {
    DiskIndex& index = disks_[disk];
    const std::size_t first = first_overlap(index, lba);
    std::size_t last = first;
    for (; last < index.size() && index[last].start < lba + keep; ++last) {
      account_waste(slots_[index[last].slot]);
      release(index[last].slot);
    }
    index.erase(index.begin() + static_cast<std::ptrdiff_t>(first),
                index.begin() + static_cast<std::ptrdiff_t>(last));
  }
  while (used_ + sectors_to_bytes(keep) > capacity_ && head_ != kNoSlot) {
    evict_lru();
  }

  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  Extent& ext = slots_[slot];
  ext.disk = disk;
  ext.start = lba;
  ext.length = keep;
  ext.consumed = std::min(request_sectors, keep);
  ext.filled = false;
  ext.seq = ++seq_;
  ext.last_access = now;
  link_tail(slot);
  ++count_;
  DiskIndex& index = disks_[disk];
  index.insert(index.begin() + static_cast<std::ptrdiff_t>(upper_bound(index, lba)),
               Entry{lba, slot});
  used_ += sectors_to_bytes(keep);
  if (sectors > request_sectors) {
    stats_.prefetched_bytes += sectors_to_bytes(sectors - request_sectors);
  }
  return (static_cast<ExtentId>(ext.generation) << kGenerationShift) | (slot + ExtentId{1});
}

bool ExtentCache::mark_filled(ExtentId id, SimTime now) {
  if (id == 0) return false;
  const ExtentId slot = (id & kSlotMask) - 1;
  if (slot >= slots_.size()) return false;
  Extent& ext = slots_[slot];
  if (ext.generation != id >> kGenerationShift) return false;  // evicted in flight
  ext.filled = true;
  touch(static_cast<std::uint32_t>(slot), now);
  return true;
}

void ExtentCache::install(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors,
                          SimTime now) {
  const ExtentId id = reserve(disk, lba, sectors, request_sectors, now);
  (void)mark_filled(id, now);
}

void ExtentCache::invalidate(std::uint32_t disk, Lba lba, Lba sectors) {
  if (disk >= disks_.size()) return;
  DiskIndex& index = disks_[disk];
  const std::size_t first = first_overlap(index, lba);
  std::size_t last = first;
  for (; last < index.size() && index[last].start < lba + sectors; ++last) {
    release(index[last].slot);
  }
  index.erase(index.begin() + static_cast<std::ptrdiff_t>(first),
              index.begin() + static_cast<std::ptrdiff_t>(last));
}

}  // namespace sst::ctrl
