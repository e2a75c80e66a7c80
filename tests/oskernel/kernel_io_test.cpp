#include "oskernel/kernel_io.hpp"

#include <gtest/gtest.h>

#include "../support/mem_block_device.hpp"
#include "sim/simulator.hpp"

namespace sst::oskernel {
namespace {

struct Harness {
  sim::Simulator sim;
  blockdev::MemBlockDevice dev;
  KernelIo kernel;

  explicit Harness(KernelIoParams p = small_params())
      : dev(sim, 64 * MiB, 1, usec(500), 100e6), kernel(sim, dev, p) {}

  static KernelIoParams small_params() {
    KernelIoParams p;
    p.page_cache_bytes = 1 * MiB;  // 256 pages: eviction is reachable
    p.scheduler = IoSchedKind::kNoop;
    return p;
  }

  int read(std::uint32_t pid, ByteOffset off, Bytes len) {
    int done = 0;
    kernel.read(pid, off, len, [&done]() { ++done; });
    sim.run();
    return done;
  }
};

TEST(KernelIo, ColdReadMissesThenCompletes) {
  Harness h;
  EXPECT_EQ(h.read(0, 0, 4 * KiB), 1);
  EXPECT_EQ(h.kernel.stats().page_misses, 1u);
  EXPECT_GE(h.kernel.stats().ios_dispatched, 1u);
}

TEST(KernelIo, WarmReadHits) {
  Harness h;
  h.read(0, 0, 4 * KiB);
  const auto ios = h.kernel.stats().ios_dispatched;
  EXPECT_EQ(h.read(0, 0, 4 * KiB), 1);
  EXPECT_GE(h.kernel.stats().page_hits, 1u);
  EXPECT_EQ(h.kernel.stats().ios_dispatched, ios);
}

TEST(KernelIo, MultiPageRequestCompletesOnce) {
  Harness h;
  EXPECT_EQ(h.read(0, 0, 64 * KiB), 1);
  EXPECT_GE(h.kernel.stats().page_misses, 16u);
}

TEST(KernelIo, SequentialReadsTriggerReadahead) {
  Harness h;
  h.read(0, 0, 4 * KiB);
  h.read(0, 4 * KiB, 4 * KiB);
  h.read(0, 8 * KiB, 4 * KiB);
  EXPECT_GT(h.kernel.stats().bytes_readahead, 0u);
  // Later sequential reads are cache hits thanks to the pipeline.
  const auto misses = h.kernel.stats().page_misses;
  h.read(0, 12 * KiB, 4 * KiB);
  EXPECT_EQ(h.kernel.stats().page_misses, misses);
}

TEST(KernelIo, RandomReadsResetWindow) {
  Harness h;
  h.read(0, 0, 4 * KiB);
  h.read(0, 10 * MiB, 4 * KiB);
  h.read(0, 20 * MiB, 4 * KiB);
  // Random access: read-ahead never grew past the initial window.
  EXPECT_LE(h.kernel.stats().bytes_readahead, 3 * 16 * KiB);
}

TEST(KernelIo, ReadAheadDisabledByZeroMax) {
  KernelIoParams p = Harness::small_params();
  p.max_readahead = 0;
  Harness h(p);
  h.read(0, 0, 4 * KiB);
  h.read(0, 4 * KiB, 4 * KiB);
  h.read(0, 8 * KiB, 4 * KiB);
  EXPECT_EQ(h.kernel.stats().bytes_readahead, 0u);
}

TEST(KernelIo, EvictionBoundsResidentPages) {
  Harness h;  // 256-page cache
  for (int i = 0; i < 600; ++i) {
    h.read(0, static_cast<ByteOffset>(i) * 100 * KiB, 4 * KiB);
  }
  EXPECT_LE(h.kernel.resident_pages(), 256u + 64u);  // capacity + inflight slack
  EXPECT_GT(h.kernel.stats().pages_evicted, 0u);
}

TEST(KernelIo, EvictedPageReReadCausesIo) {
  Harness h;
  h.read(0, 0, 4 * KiB);
  // Blow the cache.
  for (int i = 1; i <= 300; ++i) {
    h.read(0, static_cast<ByteOffset>(i) * 200 * KiB, 4 * KiB);
  }
  const auto ios = h.kernel.stats().ios_dispatched;
  h.read(0, 0, 4 * KiB);
  EXPECT_GT(h.kernel.stats().ios_dispatched, ios);
}

TEST(KernelIo, ConcurrentReadersOfSamePagesShareIo) {
  Harness h;
  int done = 0;
  // Two reads of the same cold page issued back-to-back: one I/O.
  h.kernel.read(0, 0, 4 * KiB, [&done]() { ++done; });
  h.kernel.read(1, 0, 4 * KiB, [&done]() { ++done; });
  h.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.kernel.stats().page_misses, 1u);
  EXPECT_EQ(h.kernel.stats().page_waits, 1u);
}

TEST(KernelIo, PerPidReadaheadStateIndependent) {
  Harness h;
  // pid 0 sequential, pid 1 random: only pid 0's window grows.
  for (int i = 0; i < 6; ++i) {
    h.read(0, static_cast<ByteOffset>(i) * 4 * KiB, 4 * KiB);
  }
  const auto ra_after_seq = h.kernel.stats().bytes_readahead;
  h.read(1, 30 * MiB, 4 * KiB);
  // One random read adds at most one initial window.
  EXPECT_LE(h.kernel.stats().bytes_readahead, ra_after_seq + 16 * KiB);
}

TEST(KernelIo, StatsReadsCounted) {
  Harness h;
  h.read(0, 0, 4 * KiB);
  h.read(0, 4 * KiB, 8 * KiB);
  EXPECT_EQ(h.kernel.stats().reads, 2u);
}

TEST(KernelIo, AnticipatorySchedulerIntegration) {
  KernelIoParams p = Harness::small_params();
  p.scheduler = IoSchedKind::kAnticipatory;
  Harness h(p);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(h.read(0, static_cast<ByteOffset>(i) * 4 * KiB, 4 * KiB), 1) << i;
  }
}

TEST(KernelIo, CfqSchedulerIntegration) {
  KernelIoParams p = Harness::small_params();
  p.scheduler = IoSchedKind::kCfq;
  Harness h(p);
  int done = 0;
  for (std::uint32_t pid = 0; pid < 4; ++pid) {
    h.kernel.read(pid, static_cast<ByteOffset>(pid) * 8 * MiB, 4 * KiB,
                  [&done]() { ++done; });
  }
  h.sim.run();
  EXPECT_EQ(done, 4);
}

}  // namespace
}  // namespace sst::oskernel
