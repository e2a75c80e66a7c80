// Failure-injection and fuzz testing: the scheduler must stay correct when
// the device misbehaves (pathological latencies racing the GC) and under
// randomized request mixes.
#include <gtest/gtest.h>

#include <map>

#include "../support/delayed_device.hpp"
#include "../support/mem_block_device.hpp"
#include "common/random.hpp"
#include "core/server.hpp"
#include "sim/simulator.hpp"

namespace sst {
namespace {

core::SchedulerParams tight_params() {
  core::SchedulerParams p;
  p.read_ahead = 64 * KiB;
  p.memory_budget = 512 * KiB;
  p.materialize_buffers = true;
  p.buffer_timeout = msec(200);   // aggressive: GC races the workload
  p.pending_timeout = msec(600);  // starved parked requests escalate fast
  p.stream_timeout = msec(800);
  p.gc_period = msec(50);
  p.classifier.block_bytes = 16 * KiB;
  return p;
}

TEST(Robustness, DelayedCompletionsStillServeEverything) {
  sim::Simulator sim;
  blockdev::MemBlockDevice mem(sim, 16 * MiB, 1, usec(200), 200e6);
  // Every 5th request takes an extra 400 ms — far beyond every timeout.
  blockdev::DelayedDevice dev(sim, mem, msec(400), /*every_nth=*/5);
  core::StorageServer server(sim, {&dev}, tight_params());

  int done = 0;
  for (int i = 0; i < 40; ++i) {
    core::ClientRequest req;
    req.device = 0;
    req.offset = static_cast<ByteOffset>(i) * 16 * KiB;
    req.length = 16 * KiB;
    req.on_complete = [&done](SimTime, IoStatus) { ++done; };
    server.submit(std::move(req));
    sim.run_until(sim.now() + msec(30));
  }
  sim.run_until(sim.now() + sec(3));
  EXPECT_EQ(done, 40);
  EXPECT_GT(dev.delayed_count(), 0u);
}

TEST(Robustness, GcRacingInflightReadsIsSafe) {
  // The GC must never reclaim an in-flight buffer; with 400 ms device
  // stalls and a 200 ms buffer timeout, any such bug would crash or lose
  // completions here.
  sim::Simulator sim;
  blockdev::MemBlockDevice mem(sim, 16 * MiB, 1, usec(200), 200e6);
  blockdev::DelayedDevice dev(sim, mem, msec(400), /*every_nth=*/2);
  core::StorageServer server(sim, {&dev}, tight_params());

  int done = 0;
  for (int i = 0; i < 24; ++i) {
    core::ClientRequest req;
    req.device = 0;
    req.offset = static_cast<ByteOffset>(i) * 16 * KiB;
    req.length = 16 * KiB;
    req.on_complete = [&done](SimTime, IoStatus) { ++done; };
    server.submit(std::move(req));
    sim.run_until(sim.now() + msec(120));  // several GC periods per request
  }
  sim.run_until(sim.now() + sec(3));
  EXPECT_EQ(done, 24);
}

TEST(Robustness, FuzzRandomizedMixThroughServer) {
  // Randomized mix of sequential runs, jumps, duplicates, and strides.
  // Invariants: every request completes exactly once, data is correct,
  // nothing leaks (streams bounded by GC), pool stays within budget.
  for (std::uint64_t seed : {1ULL, 42ULL, 31337ULL}) {
    sim::Simulator sim;
    blockdev::MemBlockDevice dev(sim, 64 * MiB, seed, usec(150), 300e6);
    core::StorageServer server(sim, {&dev}, tight_params());
    Rng rng(seed);

    std::map<std::uint64_t, int> completions;
    std::vector<std::vector<std::byte>> buffers;
    buffers.reserve(400);
    ByteOffset cursor = 0;
    std::uint64_t id = 0;
    for (int i = 0; i < 400; ++i) {
      const auto roll = rng.next_below(100);
      if (roll < 70) {
        cursor += 16 * KiB;  // sequential continuation
      } else if (roll < 80) {
        cursor += 16 * KiB + rng.next_below(4) * 16 * KiB;  // small stride
      } else if (roll < 95) {
        cursor = rng.next_below((64 * MiB - 64 * KiB) / KiB) * KiB;  // jump
      }  // else: repeat the same offset (duplicate read)
      cursor = std::min<ByteOffset>(cursor, 64 * MiB - 64 * KiB);
      const Bytes length = (1 + rng.next_below(4)) * 16 * KiB;

      buffers.emplace_back(length);
      core::ClientRequest req;
      req.id = id;
      req.device = 0;
      req.offset = cursor;
      req.length = length;
      req.data = buffers.back().data();
      const std::uint64_t this_id = id++;
      const ByteOffset this_off = cursor;
      req.on_complete = [&, this_id, this_off, length, seed, i](SimTime, IoStatus) {
        ++completions[this_id];
        EXPECT_TRUE(blockdev::check_pattern(seed, this_off, buffers[static_cast<std::size_t>(i)].data(),
                                            length))
            << "seed " << seed << " req " << this_id;
      };
      server.submit(std::move(req));
      if (rng.next_below(4) == 0) {
        sim.run_until(sim.now() + msec(rng.next_in(1, 40)));
      }
    }
    sim.run_until(sim.now() + sec(5));
    ASSERT_EQ(completions.size(), 400u) << "seed " << seed;
    for (const auto& [rid, count] : completions) {
      ASSERT_EQ(count, 1) << "seed " << seed << " request " << rid;
    }
    EXPECT_LE(server.scheduler().pool().stats().peak_committed, 512 * KiB);
    // GC keeps the stream table bounded even under jumpy traffic.
    EXPECT_LT(server.scheduler().stream_count(), 200u);
  }
}

TEST(Robustness, BurstThenSilenceReclaimsEverything) {
  sim::Simulator sim;
  blockdev::MemBlockDevice dev(sim, 64 * MiB, 1, usec(150), 300e6);
  core::StorageServer server(sim, {&dev}, tight_params());
  int done = 0;
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < 6; ++i) {
      core::ClientRequest req;
      req.device = 0;
      req.offset = static_cast<ByteOffset>(s) * 8 * MiB +
                   static_cast<ByteOffset>(i) * 16 * KiB;
      req.length = 16 * KiB;
      req.on_complete = [&done](SimTime, IoStatus) { ++done; };
      server.submit(std::move(req));
    }
  }
  sim.run_until(sim.now() + sec(5));  // long silence >> stream_timeout
  EXPECT_EQ(done, 48);
  EXPECT_EQ(server.scheduler().stream_count(), 0u);   // all GC'd
  EXPECT_EQ(server.scheduler().pool().committed(), 0u);
  EXPECT_EQ(server.classifier().region_count(), 0u);
}

}  // namespace
}  // namespace sst
