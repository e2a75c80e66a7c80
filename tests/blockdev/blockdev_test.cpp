#include "blockdev/block_device.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/mem_block_device.hpp"
#include "blockdev/sim_block_device.hpp"
#include "controller/controller.hpp"
#include "sim/simulator.hpp"

namespace sst::blockdev {
namespace {

TEST(Pattern, Deterministic) {
  EXPECT_EQ(pattern_byte(1, 100), pattern_byte(1, 100));
}

TEST(Pattern, VariesWithSeedAndOffset) {
  int diff_seed = 0, diff_off = 0;
  for (ByteOffset o = 0; o < 256; ++o) {
    if (pattern_byte(1, o) != pattern_byte(2, o)) ++diff_seed;
    if (pattern_byte(1, o) != pattern_byte(1, o + 1)) ++diff_off;
  }
  EXPECT_GT(diff_seed, 200);
  EXPECT_GT(diff_off, 200);
}

TEST(Pattern, FillAndCheckRoundTrip) {
  std::vector<std::byte> buf(4096);
  fill_pattern(7, 1234, buf.data(), buf.size());
  EXPECT_TRUE(check_pattern(7, 1234, buf.data(), buf.size()));
}

TEST(Pattern, CheckDetectsCorruption) {
  std::vector<std::byte> buf(512);
  fill_pattern(7, 0, buf.data(), buf.size());
  buf[100] = static_cast<std::byte>(~static_cast<unsigned>(buf[100]));
  ByteOffset mismatch = 0;
  EXPECT_FALSE(check_pattern(7, 0, buf.data(), buf.size(), &mismatch));
  EXPECT_EQ(mismatch, 100u);
}

TEST(Pattern, CheckDetectsOffsetShift) {
  // The classic buffer-management bug: right data, wrong position.
  std::vector<std::byte> buf(512);
  fill_pattern(7, 512, buf.data(), buf.size());
  EXPECT_FALSE(check_pattern(7, 0, buf.data(), buf.size()));
}

struct MemHarness {
  sim::Simulator sim;
  MemBlockDevice dev{sim, 1 * MiB, /*seed=*/42};
};

TEST(MemDevice, InitializedWithPattern) {
  MemHarness h;
  std::vector<std::byte> buf(4096);
  BlockRequest req;
  req.offset = 8192;
  req.length = buf.size();
  req.data = buf.data();
  bool done = false;
  req.on_complete = [&done](SimTime, IoStatus) { done = true; };
  h.dev.submit(std::move(req));
  h.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(check_pattern(42, 8192, buf.data(), buf.size()));
}

TEST(MemDevice, WriteReadRoundTrip) {
  MemHarness h;
  std::vector<std::byte> wbuf(512, std::byte{0xAB});
  BlockRequest w;
  w.offset = 1024;
  w.length = 512;
  w.op = IoOp::kWrite;
  w.data = wbuf.data();
  h.dev.submit(std::move(w));
  h.sim.run();

  std::vector<std::byte> rbuf(512);
  BlockRequest r;
  r.offset = 1024;
  r.length = 512;
  r.data = rbuf.data();
  h.dev.submit(std::move(r));
  h.sim.run();
  EXPECT_EQ(rbuf, wbuf);
}

TEST(MemDevice, CompletionIsAsynchronousAndOrdered) {
  MemHarness h;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    BlockRequest req;
    req.offset = static_cast<ByteOffset>(i) * 4096;
    req.length = 4096;
    req.on_complete = [&order, i](SimTime, IoStatus) { order.push_back(i); };
    h.dev.submit(std::move(req));
    order.push_back(-1 - i);  // submission marker
  }
  h.sim.run();
  // All submissions precede all completions; completions serialize FIFO.
  EXPECT_EQ(order, (std::vector<int>{-1, -2, -3, 0, 1, 2}));
}

TEST(MemDevice, LatencyModel) {
  sim::Simulator sim;
  MemBlockDevice dev(sim, 1 * MiB, 0, /*fixed_latency=*/usec(100), /*rate=*/100e6);
  SimTime done = 0;
  BlockRequest req;
  req.offset = 0;
  req.length = 102'400;  // 200 sectors: 1.024 ms at 100 MB/s
  req.on_complete = [&done](SimTime t, IoStatus) { done = t; };
  dev.submit(std::move(req));
  sim.run();
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(usec(1124)),
              static_cast<double>(usec(10)));
}

TEST(SimDevice, ReadFillsPattern) {
  sim::Simulator sim;
  ctrl::Controller ctrl(sim, ctrl::ControllerParams{}, 0);
  disk::DiskParams dp;
  dp.geometry.capacity = 2 * GiB;
  const auto ch = ctrl.attach_disk(dp);
  SimBlockDevice dev(ctrl, ch, /*seed=*/7);
  EXPECT_EQ(dev.capacity(), ctrl.disk(0).geometry().capacity_bytes());

  std::vector<std::byte> buf(64 * KiB);
  BlockRequest req;
  req.offset = 512 * KiB;
  req.length = buf.size();
  req.data = buf.data();
  bool done = false;
  req.on_complete = [&done](SimTime, IoStatus) { done = true; };
  dev.submit(std::move(req));
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(check_pattern(7, 512 * KiB, buf.data(), buf.size()));
}

TEST(SimDevice, NameIdentifiesPath) {
  sim::Simulator sim;
  ctrl::Controller ctrl(sim, ctrl::ControllerParams{}, 2);
  disk::DiskParams dp;
  dp.geometry.capacity = 2 * GiB;
  const auto ch = ctrl.attach_disk(dp);
  SimBlockDevice dev(ctrl, ch, 0);
  EXPECT_EQ(dev.name(), "sim:ctrl2:disk0");
}

TEST(SimDevice, TimingOnlyWhenNoBuffer) {
  sim::Simulator sim;
  ctrl::Controller ctrl(sim, ctrl::ControllerParams{}, 0);
  disk::DiskParams dp;
  dp.geometry.capacity = 2 * GiB;
  SimBlockDevice dev(ctrl, ctrl.attach_disk(dp), 0);
  bool done = false;
  BlockRequest req;
  req.offset = 0;
  req.length = 64 * KiB;
  req.on_complete = [&done](SimTime, IoStatus) { done = true; };
  dev.submit(std::move(req));
  sim.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace sst::blockdev
