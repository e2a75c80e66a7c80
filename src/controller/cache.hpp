// Controller read cache: a byte-budgeted collection of variable-length
// extents (one per prefetch operation), evicted LRU. Unlike the disk's
// fixed segment array, controller firmware manages a heap of buffers, so
// extent sizes follow the configured prefetch.
//
// Buffer space is RESERVED WHEN THE PREFETCH IS ISSUED, not when the data
// arrives — a controller cannot read 4 MB off a disk without 4 MB to put
// it in. Under `streams x prefetch > cache` pressure, new reservations
// evict extents (filled or still in flight) before their data is consumed:
// that is precisely the Fig. 8 collapse, and the waste counters quantify
// it.
//
// The population is large (a 16 MiB cache of 8 KiB extents holds 2048),
// so nothing here scans it, and every structure is a flat array so that the
// cache stays small and dense in the host's caches:
//  - extents live in pooled slots, and an ExtentId encodes
//    (slot, generation), so mark_filled() decodes instead of searching;
//  - extents on one disk never overlap (reserve() drops what the new extent
//    overlaps, invalidate() only removes), so a per-disk vector of (start,
//    slot) sorted by start answers lookup() from the one extent at or
//    before the LBA, and reserve()/invalidate() visit only the overlapping
//    range;
//  - a touch list, linked by slot index, holds every extent in last_access
//    order: reserve(), a lookup hit and mark_filled() move the extent to
//    the tail (`now` never goes backwards for one controller), so the LRU
//    run is at the head.
// Once the population stops growing nothing allocates.
//
// Eviction takes the minimum last_access; on a tie, the extent most
// recently inserted or lookup-hit. mark_filled() refreshes last_access but
// does not count as such a touch, so each extent carries a sequence number
// that only insertion and lookup hits bump, and eviction picks the largest
// one within the head run of equal last_access. A differential test pins
// this against the original list-scanning cache
// (tests/controller/linear_extent_cache.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"

namespace sst::ctrl {

struct CtrlCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inflight_evictions = 0;  ///< reservations evicted unfilled
  Bytes prefetched_bytes = 0;
  Bytes wasted_prefetch_bytes = 0;
};

class ExtentCache {
 public:
  /// Token identifying a reservation; 0 is never issued.
  using ExtentId = std::uint64_t;

  explicit ExtentCache(Bytes capacity);

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used_bytes() const { return used_; }

  /// Full-containment lookup over FILLED extents; refreshes LRU and
  /// advances the consumed watermark on hit. `sectors` must be nonzero.
  [[nodiscard]] bool lookup(std::uint32_t disk, Lba lba, Lba sectors, SimTime now);

  /// Reserve buffer space for a read of [lba, lba+sectors) about to be
  /// issued to the disk; `request_sectors` is the demanded prefix. Evicts
  /// LRU extents (including unfilled reservations) until the new one fits;
  /// extents larger than the whole cache are truncated. Returns 0 when the
  /// cache is disabled. `disk` is a controller channel: the cache keeps one
  /// index per channel up to the largest one reserved.
  ExtentId reserve(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors,
                   SimTime now);

  /// The reserved read completed. Returns false when the reservation was
  /// evicted while in flight (the data has nowhere to live and is dropped).
  bool mark_filled(ExtentId id, SimTime now);

  /// reserve() + mark_filled() in one step — data already at hand.
  void install(std::uint32_t disk, Lba lba, Lba sectors, Lba request_sectors, SimTime now);

  /// Drop cached data overlapping a written extent.
  void invalidate(std::uint32_t disk, Lba lba, Lba sectors);

  [[nodiscard]] std::size_t extent_count() const { return count_; }
  [[nodiscard]] const CtrlCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CtrlCacheStats{}; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Extent {
    Lba start = 0;
    Lba length = 0;
    Lba consumed = 0;
    SimTime last_access = 0;
    std::uint64_t seq = 0;         ///< insertion / lookup-hit order (tie-break)
    std::uint32_t prev = kNoSlot;  ///< touch list neighbours, by slot
    std::uint32_t next = kNoSlot;
    std::uint32_t generation = 0;  ///< bumped on release: stale ids miss
    std::uint32_t disk = 0;
    bool filled = false;
  };
  struct Entry {
    Lba start = 0;
    std::uint32_t slot = 0;
  };
  /// One disk's extents, sorted by start.
  using DiskIndex = std::vector<Entry>;

  /// Position of the first entry in `index` that starts past `lba`.
  [[nodiscard]] static std::size_t upper_bound(const DiskIndex& index, Lba lba);
  /// Where a walk over the extents of `index` overlapping [lba, ...)
  /// starts: the extent at or before `lba` if it reaches past `lba`, else
  /// the next one (callers stop past their range).
  [[nodiscard]] std::size_t first_overlap(const DiskIndex& index, Lba lba) const;
  /// Unlink the extent in `slot` from the touch list and free its slot;
  /// the caller removes its index entry.
  void release(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void link_tail(std::uint32_t slot);
  void touch(std::uint32_t slot, SimTime now);
  void evict_lru();
  void account_waste(const Extent& extent);

  Bytes capacity_ = 0;
  Bytes used_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t count_ = 0;
  CtrlCacheStats stats_;
  /// Grows on demand, never shrinks; chunked, so growth never copies it.
  std::deque<Extent> slots_;
  std::vector<std::uint32_t> free_;  ///< released slot indices
  std::vector<DiskIndex> disks_;     ///< by controller channel
  std::uint32_t head_ = kNoSlot;     ///< least recently touched
  std::uint32_t tail_ = kNoSlot;
};

}  // namespace sst::ctrl
