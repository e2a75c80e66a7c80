#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "../support/mem_block_device.hpp"
#include "raid/mirrored_volume.hpp"
#include "raid/striped_volume.hpp"
#include "sim/simulator.hpp"

namespace sst::raid {
namespace {

constexpr Bytes kMember = 4 * MiB;

struct StripeHarness {
  sim::Simulator sim;
  blockdev::MemBlockDevice d0{sim, kMember, 10};
  blockdev::MemBlockDevice d1{sim, kMember, 11};
  blockdev::MemBlockDevice d2{sim, kMember, 12};
  StripedVolume vol{{&d0, &d1, &d2}, 64 * KiB};
};

TEST(Striped, CapacityIsSumOfWholeStripes) {
  StripeHarness h;
  EXPECT_EQ(h.vol.capacity(), 3 * kMember);
  EXPECT_EQ(h.vol.member_count(), 3u);
  EXPECT_EQ(h.vol.stripe_unit(), 64 * KiB);
}

TEST(Striped, LocateRoundRobinsStripeUnits) {
  StripeHarness h;
  EXPECT_EQ(h.vol.locate(0), (std::pair<std::size_t, ByteOffset>{0, 0}));
  EXPECT_EQ(h.vol.locate(64 * KiB), (std::pair<std::size_t, ByteOffset>{1, 0}));
  EXPECT_EQ(h.vol.locate(128 * KiB), (std::pair<std::size_t, ByteOffset>{2, 0}));
  EXPECT_EQ(h.vol.locate(192 * KiB), (std::pair<std::size_t, ByteOffset>{0, 64 * KiB}));
  EXPECT_EQ(h.vol.locate(70 * KiB), (std::pair<std::size_t, ByteOffset>{1, 6 * KiB}));
}

TEST(Striped, SmallRequestGoesToOneMember) {
  StripeHarness h;
  int done = 0;
  blockdev::BlockRequest req;
  req.offset = 64 * KiB;  // entirely on member 1
  req.length = 16 * KiB;
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  h.vol.submit(std::move(req));
  h.sim.run();
  EXPECT_EQ(done, 1);
}

TEST(Striped, LargeRequestFansOutAndCompletesOnce) {
  StripeHarness h;
  int done = 0;
  blockdev::BlockRequest req;
  req.offset = 32 * KiB;
  req.length = 256 * KiB;  // spans 5 stripe units across all members
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  h.vol.submit(std::move(req));
  h.sim.run();
  EXPECT_EQ(done, 1);
}

TEST(Striped, WriteReadRoundTripAcrossMembers) {
  StripeHarness h;
  std::vector<std::byte> out(256 * KiB);
  blockdev::fill_pattern(/*seed=*/777, 0, out.data(), out.size());
  blockdev::BlockRequest w;
  w.offset = 32 * KiB;
  w.length = out.size();
  w.op = IoOp::kWrite;
  w.data = out.data();
  h.vol.submit(std::move(w));
  h.sim.run();

  std::vector<std::byte> in(out.size());
  blockdev::BlockRequest r;
  r.offset = 32 * KiB;
  r.length = in.size();
  r.data = in.data();
  h.vol.submit(std::move(r));
  h.sim.run();
  EXPECT_EQ(in, out);
}

TEST(Striped, UnevenMembersUseSmallest) {
  sim::Simulator sim;
  blockdev::MemBlockDevice big(sim, 8 * MiB, 1);
  blockdev::MemBlockDevice small(sim, 2 * MiB + 3 * KiB, 2);
  StripedVolume vol({&big, &small}, 64 * KiB);
  // 2 MiB of whole stripes per member (the 3 KiB tail is unusable).
  EXPECT_EQ(vol.capacity(), 2 * (2 * MiB / (64 * KiB)) * 64 * KiB);
}

struct MirrorHarness {
  sim::Simulator sim;
  blockdev::MemBlockDevice d0{sim, kMember, 20};
  blockdev::MemBlockDevice d1{sim, kMember, 20};  // same seed: true mirrors
};

TEST(Mirrored, RoundRobinAlternatesReplicas) {
  MirrorHarness h;
  MirroredVolume vol({&h.d0, &h.d1}, ReadPolicy::kRoundRobin);
  EXPECT_EQ(vol.route_read(0), 0u);
  EXPECT_EQ(vol.route_read(0), 1u);
  EXPECT_EQ(vol.route_read(0), 0u);
}

TEST(Mirrored, RegionAffineIsStable) {
  MirrorHarness h;
  MirroredVolume vol({&h.d0, &h.d1}, ReadPolicy::kRegionAffine);
  const auto first = vol.route_read(10 * KiB);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(vol.route_read(10 * KiB + static_cast<ByteOffset>(i) * 64 * KiB), first);
  }
}

TEST(Mirrored, RegionAffineSpreadsRegions) {
  MirrorHarness h;
  MirroredVolume vol({&h.d0, &h.d1}, ReadPolicy::kRegionAffine);
  std::set<std::size_t> replicas;
  for (int r = 0; r < 16; ++r) {
    replicas.insert(vol.route_read(static_cast<ByteOffset>(r) * 64 * MiB % kMember));
  }
  // Regions wrap inside the tiny member here, but the scramble still uses
  // both replicas across distinct regions of a realistic volume; at
  // minimum the mapping is a valid replica index.
  for (const auto r : replicas) EXPECT_LT(r, 2u);
}

TEST(Mirrored, WriteReplicatesToAllMembers) {
  MirrorHarness h;
  MirroredVolume vol({&h.d0, &h.d1}, ReadPolicy::kRoundRobin);
  std::vector<std::byte> data(16 * KiB, std::byte{0x3C});
  int done = 0;
  blockdev::BlockRequest w;
  w.offset = 128 * KiB;
  w.length = data.size();
  w.op = IoOp::kWrite;
  w.data = data.data();
  w.on_complete = [&done](SimTime, IoStatus) { ++done; };
  vol.submit(std::move(w));
  h.sim.run();
  EXPECT_EQ(done, 1);  // single completion at the slowest replica
  EXPECT_EQ(h.d0.raw(128 * KiB)[0], std::byte{0x3C});
  EXPECT_EQ(h.d1.raw(128 * KiB)[0], std::byte{0x3C});
}

TEST(Mirrored, ReadAfterWriteConsistentFromEitherReplica) {
  MirrorHarness h;
  MirroredVolume vol({&h.d0, &h.d1}, ReadPolicy::kRoundRobin);
  std::vector<std::byte> data(8 * KiB, std::byte{0x77});
  blockdev::BlockRequest w;
  w.offset = 0;
  w.length = data.size();
  w.op = IoOp::kWrite;
  w.data = data.data();
  vol.submit(std::move(w));
  h.sim.run();
  // Two reads hit both replicas (round-robin); both must see the write.
  for (int i = 0; i < 2; ++i) {
    std::vector<std::byte> in(8 * KiB);
    blockdev::BlockRequest r;
    r.offset = 0;
    r.length = in.size();
    r.data = in.data();
    vol.submit(std::move(r));
    h.sim.run();
    EXPECT_EQ(in, data) << "replica " << i;
  }
}

TEST(Mirrored, CapacityIsSmallestMember) {
  sim::Simulator sim;
  blockdev::MemBlockDevice big(sim, 8 * MiB, 1);
  blockdev::MemBlockDevice small(sim, 2 * MiB, 1);
  MirroredVolume vol({&big, &small}, ReadPolicy::kRoundRobin);
  EXPECT_EQ(vol.capacity(), 2 * MiB);
}

TEST(Names, DescribeGeometry) {
  MirrorHarness h;
  StripedVolume sv({&h.d0, &h.d1}, 128 * KiB);
  EXPECT_EQ(sv.name(), "raid0[2x128K]");
  MirroredVolume mv({&h.d0, &h.d1}, ReadPolicy::kRoundRobin);
  EXPECT_EQ(mv.name(), "raid1[2]");
}

}  // namespace
}  // namespace sst::raid
