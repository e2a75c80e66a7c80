// Parameterized BlockDevice conformance suite.
//
// Every device implementation — RAM-backed, simulated controller/disk,
// the delay/fault/retry wrappers, and (when built) the io_uring real-I/O
// backend — must honour the same contract: sector-aligned bounds-checked
// requests, deterministic pattern-byte content for reads, completion
// callbacks that fire exactly once with a status and a non-decreasing
// timestamp, and data integrity regardless of completion order.
//
// Each harness owns its execution context plus whatever machinery the
// device needs (controller, injector, backing file) and exposes the
// device through a uniform interface. The uring harness formats a
// temporary pattern file the same way scripts/mkpattern.py does.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../support/delayed_device.hpp"
#include "../support/mem_block_device.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/sim_block_device.hpp"
#include "controller/controller.hpp"
#include "core/reliable_device.hpp"
#include "fault/faulty_device.hpp"
#include "fault/injector.hpp"
#include "sim/simulator.hpp"

#if defined(SST_WITH_URING)
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "../support/uring_probe.hpp"
#include "blockdev/uring_block_device.hpp"
#include "exec/real_context.hpp"
#endif

namespace sst::blockdev {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr Bytes kMinCapacity = 1 * MiB;  ///< smallest harness capacity

/// One device-under-test plus the machinery that drives it. `run_all()`
/// advances the harness's execution context until every submitted request
/// has completed (virtual time for sim harnesses, the completion reactor
/// for the real backend).
class DeviceHarness {
 public:
  virtual ~DeviceHarness() = default;
  virtual BlockDevice& device() = 0;
  virtual exec::ExecutionContext& ctx() = 0;
  virtual void run_all() = 0;
  /// False for timing-only devices (SimBlockDevice): writes complete but
  /// are not stored, so write-read round-trips are skipped.
  [[nodiscard]] virtual bool persists_writes() const = 0;
};

struct MemHarness final : DeviceHarness {
  sim::Simulator sim;
  MemBlockDevice dev{sim, kMinCapacity, kSeed};
  BlockDevice& device() override { return dev; }
  exec::ExecutionContext& ctx() override { return sim; }
  void run_all() override { sim.run(); }
  [[nodiscard]] bool persists_writes() const override { return true; }
};

struct SimDiskHarness final : DeviceHarness {
  sim::Simulator sim;
  ctrl::Controller ctrl{sim, ctrl::ControllerParams{}, 0};
  std::unique_ptr<SimBlockDevice> dev;
  SimDiskHarness() {
    disk::DiskParams dp;
    dp.geometry.capacity = 2 * GiB;
    const auto ch = ctrl.attach_disk(dp);
    dev = std::make_unique<SimBlockDevice>(ctrl, ch, kSeed);
  }
  BlockDevice& device() override { return *dev; }
  exec::ExecutionContext& ctx() override { return sim; }
  void run_all() override { sim.run(); }
  [[nodiscard]] bool persists_writes() const override { return false; }
};

/// Delays every 3rd request by 5 ms, so back-to-back submissions complete
/// out of submission order — the reordering stressor for the suite.
struct DelayedHarness final : DeviceHarness {
  sim::Simulator sim;
  MemBlockDevice inner{sim, kMinCapacity, kSeed};
  DelayedDevice dev{sim, inner, msec(5), /*every_nth=*/3};
  BlockDevice& device() override { return dev; }
  exec::ExecutionContext& ctx() override { return sim; }
  void run_all() override { sim.run(); }
  [[nodiscard]] bool persists_writes() const override { return true; }
};

/// Fault wrapper with all rates zero: the conformance contract must hold
/// through the pass-through path (completions still funnel through the
/// injector bookkeeping).
struct FaultyHarness final : DeviceHarness {
  sim::Simulator sim;
  MemBlockDevice inner{sim, kMinCapacity, kSeed};
  fault::FaultInjector injector{fault::FaultParams{}};
  fault::FaultyDevice dev{sim, inner, injector, /*device_index=*/0};
  BlockDevice& device() override { return dev; }
  exec::ExecutionContext& ctx() override { return sim; }
  void run_all() override { sim.run(); }
  [[nodiscard]] bool persists_writes() const override { return true; }
};

struct ReliableHarness final : DeviceHarness {
  sim::Simulator sim;
  MemBlockDevice inner{sim, kMinCapacity, kSeed};
  core::ReliableDevice dev{sim, inner, core::RetryParams{}, /*device_index=*/0};
  BlockDevice& device() override { return dev; }
  exec::ExecutionContext& ctx() override { return sim; }
  void run_all() override { sim.run(); }
  [[nodiscard]] bool persists_writes() const override { return true; }
};

#if defined(SST_WITH_URING)
/// Real-I/O harness: a 4 MiB pattern-formatted temp file behind
/// UringBlockDevice. run_all() spins the RealContext reactor until the
/// ring drains. With `shared` the file is two 2 MiB slices, each holding
/// the pattern from offset 0, and the contract runs against the second of
/// two devices on one RealContext — a device that attached to the ring the
/// first one set up.
struct UringHarness final : DeviceHarness {
  static constexpr Bytes kFile = 4 * MiB;
  std::string path;
  exec::RealContext rctx;
  std::unique_ptr<UringBlockDevice> first;  ///< ring owner when `shared`
  std::unique_ptr<UringBlockDevice> dev;

  explicit UringHarness(bool shared = false) {
    char tmpl[] = "/tmp/sst_conformance_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    if (fd < 0) throw std::runtime_error("mkstemp failed");
    ::close(fd);
    path = tmpl;
    const Bytes slice = shared ? kFile / 2 : kFile;
    std::vector<std::byte> chunk(1 * MiB);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (Bytes off = 0; off < kFile; off += chunk.size()) {
      fill_pattern(kSeed, off % slice, chunk.data(), chunk.size());
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size()));
    }
    out.close();
    UringParams params;
    params.path = path;
    params.queue_depth = 32;
    params.seed = kSeed;
    if (shared) {
      params.capacity = slice;
      first = open(params);
      params.base_offset = slice;
    }
    dev = open(params);
  }

  std::unique_ptr<UringBlockDevice> open(const UringParams& params) {
    auto result = UringBlockDevice::open(rctx, params);
    if (!result.ok()) {
      throw std::runtime_error("uring open failed: " + result.error().message);
    }
    return std::move(result).value();
  }

  ~UringHarness() override {
    dev.reset();  // drains + detaches before the context goes away
    first.reset();
    if (!path.empty()) ::unlink(path.c_str());
  }

  BlockDevice& device() override { return *dev; }
  exec::ExecutionContext& ctx() override { return rctx; }
  void run_all() override { rctx.run(); }
  [[nodiscard]] bool persists_writes() const override { return true; }
};
#endif  // SST_WITH_URING

struct HarnessSpec {
  const char* name;
  std::function<std::unique_ptr<DeviceHarness>()> make;
  /// Real io_uring harness: skipped when the kernel refuses io_uring.
  bool uring = false;
  friend std::ostream& operator<<(std::ostream& os, const HarnessSpec& s) {
    return os << s.name;
  }
};

class BlockDeviceConformance : public testing::TestWithParam<HarnessSpec> {
 protected:
  void SetUp() override {
#if defined(SST_WITH_URING)
    if (GetParam().uring && testing_support::kernel_refuses_io_uring()) {
      GTEST_SKIP() << "kernel refuses io_uring_setup";
    }
#endif
    harness_ = GetParam().make();
  }
  DeviceHarness& h() { return *harness_; }

  /// Submit one request and run to completion; returns (count, status, time).
  struct Outcome {
    int completions = 0;
    IoStatus status = IoStatus::kOk;
    SimTime done = 0;
  };
  Outcome roundtrip(ByteOffset offset, Bytes length, IoOp op, std::byte* data) {
    Outcome out;
    BlockRequest req;
    req.offset = offset;
    req.length = length;
    req.op = op;
    req.id = 1;
    req.data = data;
    req.on_complete = [&out](SimTime t, IoStatus s) {
      ++out.completions;
      out.status = s;
      out.done = t;
    };
    h().device().submit(std::move(req));
    h().run_all();
    return out;
  }

 private:
  std::unique_ptr<DeviceHarness> harness_;
};

TEST_P(BlockDeviceConformance, ReportsNonZeroCapacityAndName) {
  EXPECT_GE(h().device().capacity(), kMinCapacity);
  EXPECT_EQ(h().device().capacity() % kSectorSize, 0u);
  EXPECT_FALSE(h().device().name().empty());
}

TEST_P(BlockDeviceConformance, ReadFillsSeededPattern) {
  constexpr ByteOffset kOffset = 256 * KiB;
  std::vector<std::byte> buf(64 * KiB, std::byte{0xEE});
  const Outcome out = roundtrip(kOffset, buf.size(), IoOp::kRead, buf.data());
  ASSERT_EQ(out.completions, 1);
  EXPECT_TRUE(io_ok(out.status));
  ByteOffset mismatch = 0;
  EXPECT_TRUE(check_pattern(kSeed, kOffset, buf.data(), buf.size(), &mismatch))
      << "first mismatch at device offset " << kOffset + mismatch;
}

TEST_P(BlockDeviceConformance, WriteThenReadBackRoundTrips) {
  if (!h().persists_writes()) {
    GTEST_SKIP() << "timing-only device: writes complete but are not stored";
  }
  constexpr ByteOffset kOffset = 64 * KiB;
  // Content from a different seed, so a read that regenerates the device
  // pattern instead of returning stored bytes fails loudly.
  std::vector<std::byte> wbuf(8 * KiB);
  fill_pattern(/*seed=*/991, kOffset, wbuf.data(), wbuf.size());
  const Outcome wr = roundtrip(kOffset, wbuf.size(), IoOp::kWrite, wbuf.data());
  ASSERT_EQ(wr.completions, 1);
  ASSERT_TRUE(io_ok(wr.status));

  std::vector<std::byte> rbuf(wbuf.size(), std::byte{0});
  const Outcome rd = roundtrip(kOffset, rbuf.size(), IoOp::kRead, rbuf.data());
  ASSERT_EQ(rd.completions, 1);
  EXPECT_TRUE(io_ok(rd.status));
  EXPECT_EQ(std::memcmp(rbuf.data(), wbuf.data(), wbuf.size()), 0);
}

TEST_P(BlockDeviceConformance, CompletionsFireOnceWithOkStatusAndValidTime) {
  constexpr int kRequests = 8;
  struct Record {
    int completions = 0;
    IoStatus status = IoStatus::kOk;
    SimTime submit = 0;
    SimTime done = 0;
    SimTime now_at_fire = 0;
  };
  std::vector<Record> records(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Record& rec = records[i];
    rec.submit = h().ctx().now();
    BlockRequest req;
    req.offset = static_cast<ByteOffset>(i) * 16 * KiB;
    req.length = 4 * KiB;
    req.op = IoOp::kRead;
    req.id = static_cast<RequestId>(i + 1);
    req.on_complete = [this, &rec](SimTime t, IoStatus s) {
      ++rec.completions;
      rec.status = s;
      rec.done = t;
      rec.now_at_fire = h().ctx().now();
    };
    h().device().submit(std::move(req));
  }
  h().run_all();
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(records[i].completions, 1);
    EXPECT_TRUE(io_ok(records[i].status));
    EXPECT_GE(records[i].done, records[i].submit);
    // The delivered time is the context's now() when the callback fires.
    // The wall clock moves on between the device's read and the handler's.
    if (GetParam().uring) {
      EXPECT_LE(records[i].done, records[i].now_at_fire);
    } else {
      EXPECT_EQ(records[i].done, records[i].now_at_fire);
    }
  }
}

TEST_P(BlockDeviceConformance, DataIntegrityHoldsUnderCompletionReordering) {
  // 16 scattered single-page reads with distinct destination buffers. The
  // delayed harness actively reorders completions; the others may reorder
  // (uring) or not — either way every buffer must end up holding the
  // pattern for its own offset, never a neighbour's.
  constexpr int kRequests = 16;
  constexpr Bytes kLen = 4 * KiB;
  std::vector<std::vector<std::byte>> bufs(kRequests);
  std::vector<ByteOffset> offsets(kRequests);
  std::vector<int> completion_order;
  completion_order.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    offsets[i] = static_cast<ByteOffset>((i * 37) % 240) * 4 * KiB;
    bufs[i].assign(kLen, std::byte{0xEE});
    BlockRequest req;
    req.offset = offsets[i];
    req.length = kLen;
    req.op = IoOp::kRead;
    req.id = static_cast<RequestId>(i + 1);
    req.data = bufs[i].data();
    req.on_complete = [&completion_order, i](SimTime, IoStatus) {
      completion_order.push_back(i);
    };
    h().device().submit(std::move(req));
  }
  h().run_all();
  ASSERT_EQ(completion_order.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i) + " at offset " +
                 std::to_string(offsets[i]));
    EXPECT_TRUE(check_pattern(kSeed, offsets[i], bufs[i].data(), kLen));
  }
}

TEST_P(BlockDeviceConformance, LastSectorIsReachable) {
  const ByteOffset offset = h().device().capacity() - kSectorSize;
  std::vector<std::byte> buf(kSectorSize, std::byte{0xEE});
  const Outcome out = roundtrip(offset, buf.size(), IoOp::kRead, buf.data());
  ASSERT_EQ(out.completions, 1);
  EXPECT_TRUE(io_ok(out.status));
  EXPECT_TRUE(check_pattern(kSeed, offset, buf.data(), buf.size()));
}

TEST_P(BlockDeviceConformance, DataLessRequestsCompleteForTimingOnlyCallers) {
  const Outcome out = roundtrip(0, 4 * KiB, IoOp::kRead, nullptr);
  ASSERT_EQ(out.completions, 1);
  EXPECT_TRUE(io_ok(out.status));
}

#if defined(SST_WITH_URING)
// The real device never completes inside submit(): a data-less read (a
// timing-only caller such as a raw client or the server's direct path)
// borrows a ring-owned scratch buffer, travels through the ring and
// counts like any other request. An inline completion would let a closed
// loop of such reads recurse until the reactor thread's stack overflows.
TEST_P(BlockDeviceConformance, DataLessReadCompletesOnlyFromTheRing) {
  auto* uring = dynamic_cast<UringHarness*>(&h());
  if (uring == nullptr) GTEST_SKIP() << "ring-specific contract";
  int completions = 0;
  BlockRequest req;
  req.offset = 8 * KiB;
  req.length = 4 * KiB;
  req.id = 1;
  req.on_complete = [&completions](SimTime, IoStatus status) {
    EXPECT_TRUE(io_ok(status));
    ++completions;
  };
  uring->dev->submit(std::move(req));
  EXPECT_EQ(completions, 0) << "completed inside submit()";
  EXPECT_EQ(uring->dev->in_flight(), 1u);
  h().run_all();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(uring->dev->stats().submitted, 1u);
  EXPECT_EQ(uring->dev->stats().completed, 1u);
  EXPECT_EQ(uring->dev->stats().errors, 0u);
}
#endif  // SST_WITH_URING

std::vector<HarnessSpec> conformance_specs() {
  std::vector<HarnessSpec> specs = {
      {"mem", [] { return std::unique_ptr<DeviceHarness>(new MemHarness); }},
      {"sim", [] { return std::unique_ptr<DeviceHarness>(new SimDiskHarness); }},
      {"delayed", [] { return std::unique_ptr<DeviceHarness>(new DelayedHarness); }},
      {"faulty_zero_rate",
       [] { return std::unique_ptr<DeviceHarness>(new FaultyHarness); }},
      {"reliable", [] { return std::unique_ptr<DeviceHarness>(new ReliableHarness); }},
  };
#if defined(SST_WITH_URING)
  specs.push_back(
      {"uring", [] { return std::unique_ptr<DeviceHarness>(new UringHarness); }, true});
  specs.push_back({"uring_shared",
                   [] {
                     return std::unique_ptr<DeviceHarness>(
                         new UringHarness(/*shared=*/true));
                   },
                   true});
#endif
  return specs;
}

INSTANTIATE_TEST_SUITE_P(AllDevices, BlockDeviceConformance,
                         testing::ValuesIn(conformance_specs()),
                         [](const testing::TestParamInfo<HarnessSpec>& info) {
                           return std::string(info.param.name);
                         });

// Alignment/bounds violations are programming errors and assert in debug
// builds. Death tests only make sense when asserts are live.
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
using BlockDeviceContractDeathTest = testing::Test;

TEST(BlockDeviceContractDeathTest, UnalignedOffsetAsserts) {
  MemHarness h;
  BlockRequest req;
  req.offset = 100;  // not sector aligned
  req.length = kSectorSize;
  EXPECT_DEATH(h.dev.submit(std::move(req)), "offset");
}

TEST(BlockDeviceContractDeathTest, UnalignedLengthAsserts) {
  MemHarness h;
  BlockRequest req;
  req.offset = 0;
  req.length = 100;  // not sector aligned
  EXPECT_DEATH(h.dev.submit(std::move(req)), "length");
}

TEST(BlockDeviceContractDeathTest, OutOfBoundsAsserts) {
  MemHarness h;
  BlockRequest req;
  req.offset = h.dev.capacity();
  req.length = kSectorSize;
  EXPECT_DEATH(h.dev.submit(std::move(req)), "capacity");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace sst::blockdev
