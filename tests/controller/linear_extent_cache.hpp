// Test-only reference for ctrl::ExtentCache: the original list-backed
// implementation, kept verbatim in behaviour as a differential oracle.
// Every operation scans one std::list whose front is the extent most
// recently inserted or lookup-hit; eviction takes the minimum last_access,
// the first one found from the front on a tie. The production cache must
// agree with it on every return value and counter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>

#include "controller/cache.hpp"

namespace sst::ctrl::oracle {

class LinearExtentCache {
 public:
  using ExtentId = std::uint64_t;

  explicit LinearExtentCache(Bytes capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used_bytes() const { return used_; }
  [[nodiscard]] std::size_t extent_count() const { return extents_.size(); }
  [[nodiscard]] const CtrlCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CtrlCacheStats{}; }

  bool lookup(std::uint32_t disk, Lba lba, Lba sectors, SimTime now) {
    if (!enabled()) {
      ++stats_.misses;
      return false;
    }
    for (auto it = extents_.begin(); it != extents_.end(); ++it) {
      if (it->disk != disk || !it->filled) continue;
      if (lba >= it->start && lba + sectors <= it->start + it->length) {
        it->last_access = now;
        it->consumed = std::max(it->consumed, lba + sectors - it->start);
        extents_.splice(extents_.begin(), extents_, it);  // MRU to front
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  ExtentId reserve(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors, SimTime now) {
    if (!enabled() || sectors == 0) return 0;
    const Lba keep = std::min(sectors, bytes_to_sectors(capacity_));
    for (auto it = extents_.begin(); it != extents_.end();) {
      const bool overlap =
          it->disk == disk && lba < it->start + it->length && it->start < lba + keep;
      if (overlap) {
        account_waste(*it);
        used_ -= sectors_to_bytes(it->length);
        it = extents_.erase(it);
      } else {
        ++it;
      }
    }
    while (used_ + sectors_to_bytes(keep) > capacity_ && !extents_.empty()) {
      evict_lru();
    }
    Extent ext;
    ext.id = next_id_++;
    ext.disk = disk;
    ext.start = lba;
    ext.length = keep;
    ext.consumed = std::min(request_sectors, keep);
    ext.last_access = now;
    used_ += sectors_to_bytes(keep);
    extents_.push_front(ext);
    if (sectors > request_sectors) {
      stats_.prefetched_bytes += sectors_to_bytes(sectors - request_sectors);
    }
    return ext.id;
  }

  bool mark_filled(ExtentId id, SimTime now) {
    if (id == 0) return false;
    for (auto& ext : extents_) {
      if (ext.id == id) {
        ext.filled = true;
        ext.last_access = now;
        return true;
      }
    }
    return false;
  }

  void install(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors, SimTime now) {
    const ExtentId id = reserve(disk, lba, sectors, request_sectors, now);
    (void)mark_filled(id, now);
  }

  void invalidate(std::uint32_t disk, Lba lba, Lba sectors) {
    for (auto it = extents_.begin(); it != extents_.end();) {
      const bool overlap =
          it->disk == disk && lba < it->start + it->length && it->start < lba + sectors;
      if (overlap) {
        used_ -= sectors_to_bytes(it->length);
        it = extents_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  struct Extent {
    ExtentId id = 0;
    std::uint32_t disk = 0;
    Lba start = 0;
    Lba length = 0;
    Lba consumed = 0;
    bool filled = false;
    SimTime last_access = 0;
  };

  void account_waste(const Extent& extent) {
    if (extent.length > extent.consumed) {
      stats_.wasted_prefetch_bytes += sectors_to_bytes(extent.length - extent.consumed);
    }
    if (!extent.filled) ++stats_.inflight_evictions;
  }

  void evict_lru() {
    auto victim = extents_.begin();
    for (auto it = extents_.begin(); it != extents_.end(); ++it) {
      if (it->last_access < victim->last_access) victim = it;
    }
    ++stats_.evictions;
    account_waste(*victim);
    used_ -= sectors_to_bytes(victim->length);
    extents_.erase(victim);
  }

  std::list<Extent> extents_;
  Bytes capacity_ = 0;
  Bytes used_ = 0;
  ExtentId next_id_ = 1;
  CtrlCacheStats stats_;
};

}  // namespace sst::ctrl::oracle
