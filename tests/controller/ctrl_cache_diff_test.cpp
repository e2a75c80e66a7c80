// Differential test: the indexed ExtentCache against the original
// list-scanning cache (LinearExtentCache) on randomized operation traces.
// Traces mix every public operation over several disks, with `now` often
// repeating so that eviction ties are common; after every operation both
// caches must agree on the return value, every counter, the bytes in use
// and the extent count.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "controller/cache.hpp"
#include "linear_extent_cache.hpp"

namespace sst::ctrl {
namespace {

using oracle::LinearExtentCache;

void expect_same_state(const ExtentCache& fast, const LinearExtentCache& ref) {
  const CtrlCacheStats& a = fast.stats();
  const CtrlCacheStats& b = ref.stats();
  ASSERT_EQ(a.hits, b.hits);
  ASSERT_EQ(a.misses, b.misses);
  ASSERT_EQ(a.evictions, b.evictions);
  ASSERT_EQ(a.inflight_evictions, b.inflight_evictions);
  ASSERT_EQ(a.prefetched_bytes, b.prefetched_bytes);
  ASSERT_EQ(a.wasted_prefetch_bytes, b.wasted_prefetch_bytes);
  ASSERT_EQ(fast.used_bytes(), ref.used_bytes());
  ASSERT_EQ(fast.extent_count(), ref.extent_count());
}

/// One randomized trace of `ops` operations; `seed` also picks the cache
/// size and the number of disks.
void run_trace(std::uint64_t seed, int ops) {
  Rng rng(seed);
  constexpr Bytes kCapacities[] = {0, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB};
  const Bytes capacity = kCapacities[rng.next_below(std::size(kCapacities))];
  const auto disks = static_cast<std::uint32_t>(rng.next_in(1, 3));
  constexpr Lba kSpan = 1024;  // small LBA space: overlaps are frequent

  ExtentCache fast(capacity);
  LinearExtentCache ref(capacity);
  // (reference id, indexed id) per reservation, stale ones included.
  std::vector<std::pair<ExtentCache::ExtentId, ExtentCache::ExtentId>> ids;
  struct Placed {
    std::uint32_t disk;
    Lba lba;
    Lba sectors;
  };
  std::vector<Placed> placed;
  SimTime now = 0;

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
    if (rng.next_bool(0.4)) now += rng.next_in(1, 3);
    const auto disk = static_cast<std::uint32_t>(rng.next_below(disks));
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 35) {
      // Lookup: half of them aim inside a recently placed extent.
      std::uint32_t d = disk;
      Lba lba = rng.next_below(kSpan);
      if (!placed.empty() && rng.next_bool(0.5)) {
        const Placed& p = placed[rng.next_below(placed.size())];
        d = p.disk;
        lba = p.lba + rng.next_below(p.sectors);
      }
      const Lba sectors = rng.next_in(1, 16);
      ASSERT_EQ(fast.lookup(d, lba, sectors, now), ref.lookup(d, lba, sectors, now));
    } else if (kind < 60) {
      const Lba lba = rng.next_below(kSpan);
      const Lba sectors = rng.next_bool(0.05) ? 0 : rng.next_in(1, 48);
      const Lba request = rng.next_below(sectors + 8);
      const auto ref_id = ref.reserve(disk, lba, sectors, request, now);
      const auto fast_id = fast.reserve(disk, lba, sectors, request, now);
      ASSERT_EQ(fast_id == 0, ref_id == 0);
      if (ref_id != 0) {
        ids.emplace_back(ref_id, fast_id);
        placed.push_back({disk, lba, sectors});
      }
    } else if (kind < 80) {
      if (ids.empty() || rng.next_bool(0.05)) {
        ASSERT_EQ(fast.mark_filled(0, now), ref.mark_filled(0, now));
      } else {
        const auto [ref_id, fast_id] = ids[rng.next_below(ids.size())];
        ASSERT_EQ(fast.mark_filled(fast_id, now), ref.mark_filled(ref_id, now));
      }
    } else if (kind < 90) {
      const Lba lba = rng.next_below(kSpan);
      const Lba sectors = rng.next_in(1, 48);
      const Lba request = rng.next_below(sectors + 8);
      fast.install(disk, lba, sectors, request, now);
      ref.install(disk, lba, sectors, request, now);
      placed.push_back({disk, lba, sectors});
    } else if (kind < 99) {
      const Lba lba = rng.next_below(kSpan);
      const Lba sectors = rng.next_below(32);
      fast.invalidate(disk, lba, sectors);
      ref.invalidate(disk, lba, sectors);
    } else {
      fast.reset_stats();
      ref.reset_stats();
    }
    if (placed.size() > 64) placed.erase(placed.begin());
    if (ids.size() > 256) ids.erase(ids.begin());
    ASSERT_NO_FATAL_FAILURE(expect_same_state(fast, ref));
  }
}

TEST(ExtentCacheDifferential, AgreesWithLinearCacheOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    ASSERT_NO_FATAL_FAILURE(run_trace(seed, 2000));
  }
}

/// Two extents share the minimum last_access: A because mark_filled()
/// refreshed it, B because it was inserted at that time. The victim is B,
/// the one inserted more recently, whichever came first at that time:
/// with A's fill first, A sits at the head of the touch list (evicting the
/// head is wrong); with B's insert first, A was touched last (treating
/// mark_filled() as an insert is wrong).
template <typename Cache>
void check_mark_filled_tie(bool fill_before_insert) {
  Cache c(512 * KiB);  // room for two 512-sector extents
  const auto a = c.reserve(0, 0, 512, 8, usec(1));
  if (fill_before_insert) {
    ASSERT_TRUE(c.mark_filled(a, usec(2)));
  }
  const auto b = c.reserve(0, 10000, 512, 8, usec(2));
  ASSERT_NE(b, 0u);
  if (!fill_before_insert) {
    ASSERT_TRUE(c.mark_filled(a, usec(2)));
  }
  (void)c.reserve(0, 20000, 512, 8, usec(3));  // evicts one of A and B
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().inflight_evictions, 1u);  // B, still unfilled
  EXPECT_FALSE(c.mark_filled(b, usec(4)));
  EXPECT_TRUE(c.lookup(0, 0, 8, usec(5)));
}

TEST(ExtentCacheDifferential, TieEvictsMostRecentInsertNotMarkFilled) {
  for (const bool fill_first : {true, false}) {
    SCOPED_TRACE(fill_first ? "fill before insert" : "insert before fill");
    check_mark_filled_tie<LinearExtentCache>(fill_first);
    check_mark_filled_tie<ExtentCache>(fill_first);
  }
}

}  // namespace
}  // namespace sst::ctrl
