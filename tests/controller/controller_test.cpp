#include "controller/controller.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace sst::ctrl {
namespace {

disk::DiskParams small_disk() {
  disk::DiskParams p;
  p.geometry.capacity = 2 * GiB;
  return p;
}

struct Harness {
  sim::Simulator sim;
  Controller ctrl;

  explicit Harness(ControllerParams params = ControllerParams{}) : ctrl(sim, params, 0) {
    ctrl.attach_disk(small_disk());
  }

  SimTime read(std::uint32_t disk, Lba lba, Lba sectors) {
    SimTime done = 0;
    ControllerCommand cmd;
    cmd.disk_index = disk;
    cmd.lba = lba;
    cmd.sectors = sectors;
    cmd.op = IoOp::kRead;
    cmd.on_complete = [this, &done]() { done = sim.now(); };
    ctrl.submit(std::move(cmd));
    sim.run();
    return done;
  }

  SimTime write(std::uint32_t disk, Lba lba, Lba sectors) {
    SimTime done = 0;
    ControllerCommand cmd;
    cmd.disk_index = disk;
    cmd.lba = lba;
    cmd.sectors = sectors;
    cmd.op = IoOp::kWrite;
    cmd.on_complete = [this, &done]() { done = sim.now(); };
    ctrl.submit(std::move(cmd));
    sim.run();
    return done;
  }
};

TEST(Controller, AttachAssignsChannels) {
  sim::Simulator sim;
  Controller c(sim, ControllerParams{}, 3);
  EXPECT_EQ(c.attach_disk(small_disk()), 0u);
  EXPECT_EQ(c.attach_disk(small_disk()), 1u);
  EXPECT_EQ(c.disk_count(), 2u);
  // Disk ids embed controller and channel.
  EXPECT_EQ(c.disk(0).id(), (3u << 8) | 0u);
  EXPECT_EQ(c.disk(1).id(), (3u << 8) | 1u);
}

TEST(Controller, ReadCompletesAndCounts) {
  Harness h;
  const SimTime done = h.read(0, 1000, 128);
  EXPECT_GT(done, 0u);
  EXPECT_EQ(h.ctrl.stats().commands, 1u);
  EXPECT_EQ(h.ctrl.stats().bytes_to_host, 64 * KiB);
}

TEST(Controller, NoPrefetchByDefault) {
  Harness h;
  h.read(0, 1000, 128);
  // The disk saw exactly the request (its own firmware fill aside, the
  // controller added nothing): controller cache stats show a miss with no
  // prefetched bytes.
  EXPECT_EQ(h.ctrl.cache_stats().prefetched_bytes, 0u);
}

TEST(Controller, PrefetchExtendsDiskRead) {
  ControllerParams p;
  p.cache_size = 16 * MiB;
  p.prefetch = 256 * KiB;
  Harness h(p);
  h.read(0, 1000, 128);
  EXPECT_EQ(h.ctrl.cache_stats().prefetched_bytes, 256 * KiB);
  // Sequential continuation now hits the controller cache: no extra disk
  // command.
  const auto disk_cmds = h.ctrl.disk(0).stats().commands;
  h.read(0, 1128, 128);
  EXPECT_EQ(h.ctrl.disk(0).stats().commands, disk_cmds);
  EXPECT_GE(h.ctrl.cache_stats().hits, 1u);
}

TEST(Controller, CacheHitFasterThanMiss) {
  ControllerParams p;
  p.prefetch = 1 * MiB;
  Harness h(p);
  h.read(0, 0, 128);
  const SimTime t0 = h.sim.now();
  h.read(0, 128, 128);  // inside the prefetched extent
  EXPECT_LT(h.sim.now() - t0, msec(1));
}

TEST(Controller, BusSerializesTransfers) {
  Harness h;
  // Two large hits: preload the cache, then issue both reads back-to-back.
  ControllerParams p;
  p.prefetch = 4 * MiB;
  Harness h2(p);
  h2.read(0, 0, 128);  // prefetches 4 MB
  SimTime done1 = 0, done2 = 0;
  ControllerCommand c1, c2;
  c1.disk_index = c2.disk_index = 0;
  c1.lba = 256;
  c2.lba = 1024;
  c1.sectors = c2.sectors = 2048;  // 1 MB each, both cached
  c1.op = c2.op = IoOp::kRead;
  c1.on_complete = [&h2, &done1]() { done1 = h2.sim.now(); };
  c2.on_complete = [&h2, &done2]() { done2 = h2.sim.now(); };
  const SimTime start = h2.sim.now();
  h2.ctrl.submit(std::move(c1));
  h2.ctrl.submit(std::move(c2));
  h2.sim.run();
  // 1 MB at 450 MB/s is ~2.33 ms; the second must wait for the first.
  EXPECT_GT(done1, start);
  EXPECT_GE(done2, done1 + msec(2));
}

TEST(Controller, WriteGoesToDiskAndInvalidates) {
  ControllerParams p;
  p.prefetch = 256 * KiB;
  Harness h(p);
  h.read(0, 0, 128);  // extent cached
  EXPECT_TRUE(h.ctrl.cache_stats().prefetched_bytes > 0);
  h.write(0, 128, 64);
  EXPECT_EQ(h.ctrl.disk(0).stats().writes, 1u);
  // The overlapping extent is gone: next read misses at the controller.
  const auto misses = h.ctrl.cache_stats().misses;
  h.read(0, 128, 64);
  EXPECT_EQ(h.ctrl.cache_stats().misses, misses + 1);
}

TEST(Controller, MultiDiskIndependentService) {
  sim::Simulator sim;
  Controller ctrl(sim, ControllerParams{}, 0);
  ctrl.attach_disk(small_disk());
  ctrl.attach_disk(small_disk());
  int completions = 0;
  for (std::uint32_t d = 0; d < 2; ++d) {
    ControllerCommand cmd;
    cmd.disk_index = d;
    cmd.lba = 1000;
    cmd.sectors = 128;
    cmd.op = IoOp::kRead;
    cmd.on_complete = [&completions]() { ++completions; };
    ctrl.submit(std::move(cmd));
  }
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(ctrl.disk(0).stats().reads, 1u);
  EXPECT_EQ(ctrl.disk(1).stats().reads, 1u);
}

TEST(Controller, PrefetchClampedAtDiskEnd) {
  ControllerParams p;
  p.prefetch = 8 * MiB;
  Harness h(p);
  const Lba end = h.ctrl.disk(0).geometry().total_sectors();
  const SimTime done = h.read(0, end - 128, 128);  // near the end
  EXPECT_GT(done, 0u);  // must not assert/overflow
}

TEST(Controller, ResetStatsCascades) {
  Harness h;
  h.read(0, 0, 128);
  h.ctrl.reset_stats();
  EXPECT_EQ(h.ctrl.stats().commands, 0u);
  EXPECT_EQ(h.ctrl.disk(0).stats().reads, 0u);
}

}  // namespace
}  // namespace sst::ctrl
