#include "core/server.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/mem_block_device.hpp"
#include "sim/simulator.hpp"

namespace sst::core {
namespace {

constexpr std::uint64_t kSeed = 7;

SchedulerParams server_params() {
  SchedulerParams p;
  p.read_ahead = 64 * KiB;
  p.memory_budget = 2 * MiB;
  p.materialize_buffers = true;
  p.classifier.block_bytes = 16 * KiB;
  p.classifier.detect_threshold = 3;
  return p;
}

struct Harness {
  sim::Simulator sim;
  blockdev::MemBlockDevice dev0{sim, 16 * MiB, kSeed, usec(200), 200e6};
  blockdev::MemBlockDevice dev1{sim, 16 * MiB, kSeed + 1, usec(200), 200e6};
  StorageServer server;

  Harness() : server(sim, {&dev0, &dev1}, server_params()) {}

  void run_ms(std::uint64_t ms) { sim.run_until(sim.now() + msec(ms)); }

  int read(std::uint32_t device, ByteOffset off, Bytes len, std::byte* data = nullptr) {
    int done = 0;
    ClientRequest req;
    req.device = device;
    req.offset = off;
    req.length = len;
    req.data = data;
    req.on_complete = [&done](SimTime, IoStatus) { ++done; };
    server.submit(std::move(req));
    run_ms(30);
    return done;
  }
};

TEST(Server, NonSequentialReadsGoDirect) {
  Harness h;
  EXPECT_EQ(h.read(0, 0, 16 * KiB), 1);
  EXPECT_EQ(h.read(0, 4 * MiB, 16 * KiB), 1);
  EXPECT_EQ(h.server.stats().direct_reads, 2u);
  EXPECT_EQ(h.server.scheduler().stream_count(), 0u);
}

TEST(Server, SequentialRunCreatesStream) {
  Harness h;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(h.read(0, static_cast<ByteOffset>(i) * 16 * KiB, 16 * KiB), 1);
  }
  EXPECT_EQ(h.server.scheduler().stream_count(), 1u);
  EXPECT_EQ(h.server.classifier().stats().streams_detected, 1u);
  // Subsequent requests are routed to the stream and served from prefetch.
  EXPECT_EQ(h.read(0, 3 * 16 * KiB, 16 * KiB), 1);
  EXPECT_GE(h.server.stats().sequential_requests, 1u);
}

TEST(Server, WritesAlwaysDirect) {
  Harness h;
  int done = 0;
  ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 16 * KiB;
  req.op = IoOp::kWrite;
  std::vector<std::byte> data(16 * KiB, std::byte{0x5A});
  req.data = data.data();
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  h.server.submit(std::move(req));
  h.run_ms(30);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(h.server.stats().direct_writes, 1u);
  EXPECT_EQ(h.dev0.raw(0)[0], std::byte{0x5A});
}

TEST(Server, StreamsPerDeviceIndependent) {
  Harness h;
  for (int i = 0; i < 3; ++i) {
    h.read(0, static_cast<ByteOffset>(i) * 16 * KiB, 16 * KiB);
    h.read(1, static_cast<ByteOffset>(i) * 16 * KiB, 16 * KiB);
  }
  EXPECT_EQ(h.server.scheduler().stream_count(), 2u);
}

TEST(Server, EndToEndDataIntegrityAfterDetection) {
  Harness h;
  std::vector<std::byte> buf(16 * KiB);
  for (int i = 0; i < 20; ++i) {
    const ByteOffset off = static_cast<ByteOffset>(i) * 16 * KiB;
    std::fill(buf.begin(), buf.end(), std::byte{0});
    ASSERT_EQ(h.read(0, off, buf.size(), buf.data()), 1) << i;
    EXPECT_TRUE(blockdev::check_pattern(kSeed, off, buf.data(), buf.size())) << i;
  }
  // The bulk of the run was served through the stream path.
  EXPECT_GT(h.server.stats().sequential_requests, 10u);
}

TEST(Server, RequestCountsAddUp) {
  Harness h;
  for (int i = 0; i < 10; ++i) {
    h.read(0, static_cast<ByteOffset>(i) * 16 * KiB, 16 * KiB);
  }
  const auto& s = h.server.stats();
  EXPECT_EQ(s.requests, 10u);
  EXPECT_EQ(s.requests, s.sequential_requests + s.direct_reads + s.direct_writes);
}

TEST(Server, InterleavedStreamsAllDetected) {
  Harness h;
  // Two spatially distant streams on one device, interleaved arrivals.
  for (int i = 0; i < 4; ++i) {
    h.read(0, static_cast<ByteOffset>(i) * 16 * KiB, 16 * KiB);
    h.read(0, 8 * MiB + static_cast<ByteOffset>(i) * 16 * KiB, 16 * KiB);
  }
  EXPECT_EQ(h.server.scheduler().stream_count(), 2u);
}

TEST(Server, RandomTrafficNeverDetects) {
  Harness h;
  // Offsets far apart (beyond any region span).
  const ByteOffset offsets[] = {0,       5 * MiB, 1 * MiB, 9 * MiB,
                                3 * MiB, 7 * MiB, 2 * MiB, 11 * MiB};
  for (const auto off : offsets) h.read(0, off, 16 * KiB);
  EXPECT_EQ(h.server.scheduler().stream_count(), 0u);
  EXPECT_EQ(h.server.stats().direct_reads, 8u);
}

}  // namespace
}  // namespace sst::core
