// Several UringBlockDevices on one RealContext share the context's one
// io_uring. These tests drive two devices over two slices of a
// pattern-formatted file and check what the reactor must guarantee with
// both busy: no completion is lost, no wakeup is spurious, timers fire on
// time, each device's depth cap holds, and more requests than the
// submission queue holds still all complete. Built only with
// -DSST_WITH_URING=ON; every test skips when the kernel refuses io_uring.
#include <gtest/gtest.h>

#if defined(SST_WITH_URING)
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../support/uring_probe.hpp"
#include "blockdev/uring_block_device.hpp"
#include "exec/real_context.hpp"

namespace sst::blockdev {
namespace {

constexpr std::uint64_t kSeed = 9;
constexpr Bytes kSlice = 2 * MiB;  ///< each device's slice of the file
constexpr Bytes kLen = 4 * KiB;

/// Closed-loop reader: keeps `depth` reads in flight on one device, each
/// into its own buffer at a scattered offset, and checks every completed
/// buffer against the pattern, until `budget` reads were issued or `stop`.
class Reader {
 public:
  Reader(UringBlockDevice& dev, std::size_t depth, std::uint64_t budget)
      : dev_(dev), budget_(budget), bufs_(depth, std::vector<std::byte>(kLen)) {}

  void start() {
    for (std::size_t slot = 0; slot < bufs_.size(); ++slot) issue(slot);
  }

  std::uint64_t completed = 0;
  std::uint64_t bad = 0;  ///< error completions or pattern mismatches
  bool stop = false;

 private:
  void issue(std::size_t slot) {
    if (stop || issued_ == budget_) return;
    const ByteOffset offset = issued_ * 7 % (kSlice / kLen) * kLen;
    ++issued_;
    BlockRequest req;
    req.offset = offset;
    req.length = kLen;
    req.data = bufs_[slot].data();
    req.on_complete = [this, slot, offset](SimTime, IoStatus status) {
      ++completed;
      if (!io_ok(status) || !check_pattern(kSeed, offset, bufs_[slot].data(), kLen)) ++bad;
      issue(slot);
    };
    dev_.submit(std::move(req));
  }

  UringBlockDevice& dev_;
  std::uint64_t budget_;
  std::uint64_t issued_ = 0;
  std::vector<std::vector<std::byte>> bufs_;
};

class UringSharedRing : public testing::Test {
 protected:
  /// Two slices, each holding the pattern from offset 0.
  static void SetUpTestSuite() {
    char tmpl[] = "/tmp/sst_shared_ring_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    if (fd < 0) return;
    ::close(fd);
    path_ = tmpl;
    std::vector<std::byte> chunk(kSlice);
    fill_pattern(kSeed, 0, chunk.data(), chunk.size());
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    for (int slice = 0; slice < 2; ++slice) {
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size()));
    }
  }

  static void TearDownTestSuite() {
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  void SetUp() override {
    if (testing_support::kernel_refuses_io_uring()) {
      GTEST_SKIP() << "kernel refuses io_uring_setup";
    }
    ASSERT_FALSE(path_.empty()) << "could not create the backing file";
  }

  [[nodiscard]] static UringParams params(int slice, std::uint32_t depth) {
    UringParams p;
    p.path = path_;
    p.base_offset = static_cast<ByteOffset>(slice) * kSlice;
    p.capacity = kSlice;
    p.queue_depth = depth;
    p.seed = kSeed;
    p.label = "uring" + std::to_string(slice);
    return p;
  }

  std::unique_ptr<UringBlockDevice> open(int slice, std::uint32_t depth) {
    auto result = UringBlockDevice::open(ctx_, params(slice, depth));
    if (!result.ok()) {
      ADD_FAILURE() << "open failed: " << result.error().message;
      return nullptr;
    }
    return std::move(result).value();
  }

  /// Run the reactor until both readers are done, bounded at 10 s of wall
  /// time so a lost completion fails instead of hanging.
  void drive(const Reader& a, std::uint64_t a_total, const Reader& b, std::uint64_t b_total) {
    const SimTime limit = ctx_.now() + sec(10);
    while ((a.completed < a_total || b.completed < b_total) && ctx_.now() < limit) {
      ctx_.run_until(ctx_.now() + msec(5));
    }
  }

  exec::RealContext ctx_;
  static inline std::string path_;
};

TEST_F(UringSharedRing, TwoDevicesLoseNoCompletionsAndReportNoSpurious) {
  auto a = open(0, 16);
  auto b = open(1, 16);
  ASSERT_TRUE(a && b);
  EXPECT_NE(ctx_.driver(), nullptr);
  constexpr std::uint64_t kReads = 400;
  Reader ra(*a, 8, kReads);
  Reader rb(*b, 3, kReads);
  ra.start();
  rb.start();
  drive(ra, kReads, rb, kReads);

  EXPECT_EQ(ra.completed, kReads);
  EXPECT_EQ(rb.completed, kReads);
  EXPECT_EQ(ra.bad + rb.bad, 0u);
  EXPECT_EQ(a->in_flight() + b->in_flight(), 0u);
  const UringStats& sa = a->stats();
  const UringStats& sb = b->stats();
  EXPECT_EQ(sa.completed, kReads);
  EXPECT_EQ(sb.completed, kReads);
  EXPECT_EQ(sa.errors + sb.errors, 0u);
  // Every completion event the reactor handled is one of these requests or
  // a continuation of one.
  const std::uint64_t continuations =
      sa.short_resubmits + sa.transient_retries + sb.short_resubmits + sb.transient_retries;
  const exec::ReactorStats& reactor = ctx_.reactor_stats();
  EXPECT_EQ(reactor.completions, 2 * kReads + continuations);
  EXPECT_EQ(reactor.spurious_wakeups, 0u);
  // Ring-level counters count once, on the device that opened the ring.
  EXPECT_GT(sa.enter_syscalls, 0u);
  EXPECT_EQ(sa.sqes_flushed, 2 * kReads + continuations);
  EXPECT_EQ(sb.enter_syscalls, 0u);
  EXPECT_EQ(sb.sqes_flushed, 0u);

  // The ring goes away with its last device, whichever closes first.
  a.reset();
  EXPECT_NE(ctx_.driver(), nullptr);
  b.reset();
  EXPECT_EQ(ctx_.driver(), nullptr);
}

TEST_F(UringSharedRing, TimerDeadlinesHoldWhileBothDevicesAreBusy) {
  auto a = open(0, 16);
  auto b = open(1, 16);
  ASSERT_TRUE(a && b);
  Reader ra(*a, 8, UINT64_MAX);
  Reader rb(*b, 8, UINT64_MAX);
  ra.start();
  rb.start();
  std::vector<SimTime> lateness;
  for (int i = 1; i <= 5; ++i) {
    const SimTime due = ctx_.now() + msec(2) * i;
    ctx_.schedule_at(due, [this, &lateness, due] { lateness.push_back(ctx_.now() - due); });
  }
  ctx_.run_until(ctx_.now() + msec(12));
  ra.stop = true;
  rb.stop = true;
  ctx_.run();

  ASSERT_EQ(lateness.size(), 5u);
  for (const SimTime late : lateness) {
    // Well under the 1 s ceiling a wait that ignored the timer would hit.
    EXPECT_LT(late, msec(200));
  }
  EXPECT_GT(ra.completed, 0u);
  EXPECT_GT(rb.completed, 0u);
  EXPECT_EQ(ra.bad + rb.bad, 0u);
  EXPECT_EQ(ctx_.reactor_stats().spurious_wakeups, 0u);
}

TEST_F(UringSharedRing, MoreRequestsInFlightThanTheSubmissionQueueHolds) {
  // The first device sizes the ring's SQ with its depth of 4. Before the
  // reactor runs, 20 reads on it (4 in the ring, 16 parked) plus 64 on the
  // second device stage 68 SQEs: the SQ is pushed in full batches as it
  // fills.
  auto a = open(0, 4);
  auto b = open(1, 64);
  ASSERT_TRUE(a && b);
  Reader ra(*a, 20, 20);
  Reader rb(*b, 64, 64);
  ra.start();
  rb.start();
  EXPECT_EQ(a->in_flight(), 20u);
  EXPECT_EQ(b->in_flight(), 64u);
  EXPECT_EQ(a->stats().backlog_peak, 16u);  // the depth cap held
  EXPECT_EQ(b->stats().backlog_peak, 0u);
  EXPECT_GE(a->stats().flush_batches, 16u);
  EXPECT_EQ(a->stats().batch_size_max, 4u);

  drive(ra, 20, rb, 64);
  EXPECT_EQ(ra.completed, 20u);
  EXPECT_EQ(rb.completed, 64u);
  EXPECT_EQ(ra.bad + rb.bad, 0u);
  EXPECT_EQ(a->stats().errors + b->stats().errors, 0u);
  EXPECT_EQ(ctx_.reactor_stats().spurious_wakeups, 0u);
}

TEST_F(UringSharedRing, OpenRefusesWhatTheRingCannotServe) {
  // A context driven by something other than a ring.
  struct Idle final : exec::CompletionDriver {
    std::size_t poll(SimTime) override { return 0; }
    [[nodiscard]] std::size_t in_flight() const override { return 0; }
  } idle;
  ctx_.set_driver(&idle);
  EXPECT_FALSE(UringBlockDevice::open(ctx_, params(0, 16)).ok());
  ctx_.set_driver(nullptr);

  // Depths past what the ring's completion queue can hold.
  auto a = open(0, 32);
  ASSERT_TRUE(a);
  EXPECT_FALSE(UringBlockDevice::open(ctx_, params(1, 1U << 20)).ok());
  EXPECT_TRUE(UringBlockDevice::open(ctx_, params(1, 32)).ok());
}

}  // namespace
}  // namespace sst::blockdev
#endif  // SST_WITH_URING
