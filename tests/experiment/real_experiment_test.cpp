// Real-backend experiment runner: run_experiment with backend.kind=real over
// a small pattern-formatted file, across {raw, staged} x backend.reactors
// {1, 2}, plus the staged server over a fault + retry stack, a 2-way mirror
// and a stripe, and raw clients behind the network link. The {raw, staged}
// x {1, 2} runs also assert that no reactor wakeup was spurious. Built only
// with -DSST_WITH_URING=ON; every test skips when the kernel refuses
// io_uring.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "../support/uring_probe.hpp"
#include "blockdev/block_device.hpp"
#include "common/random.hpp"
#include "experiment/runner.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

constexpr std::uint64_t kPatternSeed = 7;
constexpr Bytes kFileBytes = 16 * MiB;
constexpr std::uint32_t kDevices = 4;
constexpr std::uint32_t kStreams = 8;
/// Odd streams think this long between requests, so their MB/s sits far
/// below the even streams' and a stream_mbps entry out of spec order shows.
constexpr SimTime kSlowThink = msec(20);

class RealExperiment : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    char dir[] = "/tmp/sst_real_experiment_XXXXXX";
    if (::mkdtemp(dir) == nullptr) return;
    dir_ = dir;
    path_ = dir_ + "/backing.img";
    std::vector<std::byte> chunk(1 * MiB);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    for (Bytes off = 0; off < kFileBytes; off += chunk.size()) {
      for (Bytes i = 0; i < chunk.size(); ++i) {
        chunk[i] = blockdev::pattern_byte(kPatternSeed, off + i);
      }
      out.write(reinterpret_cast<const char*>(chunk.data()),
                static_cast<std::streamsize>(chunk.size()));
    }
  }

  static void TearDownTestSuite() {
    if (!path_.empty()) ::unlink(path_.c_str());
    if (!dir_.empty()) ::rmdir(dir_.c_str());
  }

  void SetUp() override {
    if (testing_support::kernel_refuses_io_uring()) {
      GTEST_SKIP() << "kernel refuses io_uring_setup";
    }
    ASSERT_FALSE(path_.empty()) << "could not create the backing file";
  }

  /// 4 devices (one per controller), 8 streams spread round-robin over
  /// them, odd streams slowed down by think time.
  static ExperimentConfig config(bool staged, std::uint32_t reactors) {
    ExperimentConfig ec;
    ec.topology.node.num_controllers = kDevices;
    ec.topology.node.disks_per_controller = 1;
    if (staged) {
      core::SchedulerParams params;
      params.dispatch_set_size = kStreams;
      params.read_ahead = 256 * KiB;
      params.requests_per_residency = 1;
      params.memory_budget = 16 * MiB;
      ec.scheduler = params;
    }
    ec.backend.kind = BackendConfig::Kind::kReal;
    ec.backend.path = path_;
    ec.backend.direct = false;
    ec.backend.queue_depth = 16;
    ec.backend.reactors = reactors;
    ec.warmup = msec(100);
    ec.measure = msec(300);
    respread(ec);
    return ec;
  }

  /// Re-spread the streams over the topology's logical devices.
  static void respread(ExperimentConfig& ec) {
    ec.streams = workload::make_uniform_streams(kStreams, ec.topology.logical_device_count(),
                                                ec.topology.logical_device_capacity(),
                                                64 * KiB);
    for (std::uint32_t i = 1; i < kStreams; i += 2) ec.streams[i].think_time = kSlowThink;
  }

  static void expect_healthy(const ExperimentResult& result) {
    EXPECT_GT(result.requests_completed, 0u);
    EXPECT_EQ(result.client_errors, 0u);
    EXPECT_TRUE(result.uring_summary.enabled);
    EXPECT_EQ(result.uring_summary.errors, 0u);
    ASSERT_EQ(result.uring_summary.per_device_completed.size(), kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      EXPECT_GT(result.uring_summary.per_device_completed[d], 0u) << "device " << d;
    }
    // stream_mbps follows spec order: every fast (even) stream out-reads
    // every slow (odd) one, wherever the cells put them.
    ASSERT_EQ(result.stream_mbps.size(), kStreams);
    for (std::uint32_t fast = 0; fast < kStreams; fast += 2) {
      for (std::uint32_t slow = 1; slow < kStreams; slow += 2) {
        EXPECT_GT(result.stream_mbps[fast], result.stream_mbps[slow])
            << "stream " << fast << " vs " << slow;
      }
    }
  }

  /// Every key of the metrics export, without values.
  static std::set<std::string> metric_keys(const ExperimentResult& result) {
    const std::string json = result.to_json();
    const std::regex key("\"([A-Za-z0-9_]+)\":");
    std::set<std::string> keys;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), key);
         it != std::sregex_iterator(); ++it) {
      keys.insert((*it)[1].str());
    }
    return keys;
  }

  static inline std::string dir_;
  static inline std::string path_;
};

TEST_F(RealExperiment, RawOneReactor) {
  const ExperimentResult result = run_experiment(config(false, 1));
  expect_healthy(result);
  EXPECT_EQ(result.reactor_summary.reactors, 1u);
  EXPECT_EQ(result.reactor_summary.spurious_wakeups, 0u);
}

TEST_F(RealExperiment, RawTwoReactors) {
  const ExperimentResult result = run_experiment(config(false, 2));
  expect_healthy(result);
  EXPECT_EQ(result.reactor_summary.reactors, 2u);
  EXPECT_EQ(result.reactor_summary.spurious_wakeups, 0u);
}

TEST_F(RealExperiment, StagedOneReactor) {
  const ExperimentResult result = run_experiment(config(true, 1));
  expect_healthy(result);
  EXPECT_GT(result.scheduler_stats.disk_reads, 0u);
  EXPECT_EQ(result.reactor_summary.spurious_wakeups, 0u);
}

TEST_F(RealExperiment, StagedTwoReactors) {
  const ExperimentResult result = run_experiment(config(true, 2));
  expect_healthy(result);
  EXPECT_EQ(result.reactor_summary.reactors, 2u);
  EXPECT_GT(result.scheduler_stats.disk_reads, 0u);
  EXPECT_EQ(result.reactor_summary.spurious_wakeups, 0u);
}

TEST_F(RealExperiment, MetricsKeySetIsIndependentOfReactorCount) {
  for (const bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "raw");
    const auto one = metric_keys(run_experiment(config(staged, 1)));
    const auto two = metric_keys(run_experiment(config(staged, 2)));
    EXPECT_EQ(one, two);
  }
}

TEST_F(RealExperiment, StagedOverFaultAndRetryStack) {
  ExperimentConfig ec = config(true, 2);
  ec.topology.stack.fault.media_error_rate = 0.02;  // transient: clears on retry
  ec.topology.stack.retry = core::RetryParams{};
  const ExperimentResult result = run_experiment(ec);
  expect_healthy(result);  // the retry layer absorbs every injected fault
  EXPECT_GT(result.fault_stats.media_errors, 0u);
  EXPECT_GT(result.retry_stats.recovered, 0u);
}

TEST_F(RealExperiment, StagedOverTwoWayMirror) {
  ExperimentConfig ec = config(true, 2);
  ec.topology.stack.raid.kind = io::RaidSpec::Kind::kMirror;
  ec.topology.stack.raid.mirror_ways = 2;
  // Region-affine reads would pin this small file's one 64 MB region to a
  // single replica; rotate so both members of each group serve reads.
  ec.topology.stack.raid.mirror_policy = raid::ReadPolicy::kRoundRobin;
  respread(ec);
  const ExperimentResult result = run_experiment(ec);
  expect_healthy(result);
  // Two logical devices, one mirror group per reactor.
  EXPECT_EQ(result.reactor_summary.reactors, 2u);
  EXPECT_EQ(result.raid_kind, io::RaidSpec::Kind::kMirror);
  EXPECT_GT(result.mirror_stats.reads, 0u);
}

TEST_F(RealExperiment, StripeCollapsesToOneReactor) {
  ExperimentConfig ec = config(true, 2);
  ec.topology.stack.raid.kind = io::RaidSpec::Kind::kStripe;
  respread(ec);
  const ExperimentResult result = run_experiment(ec);
  expect_healthy(result);  // one logical device striped over all four rings
  EXPECT_EQ(result.reactor_summary.reactors, 1u);
  EXPECT_EQ(result.reactor_summary.requested, 2u);
}

TEST_F(RealExperiment, RawBehindNetworkLink) {
  ExperimentConfig ec = config(false, 2);
  ec.topology.stack.network = net::LinkParams{};
  const ExperimentResult result = run_experiment(ec);
  expect_healthy(result);
  EXPECT_EQ(result.net_fault_stats.transport_errors, 0u);
}

// The crash shape, scaled down: streams at random starts on every device
// run to the slice end and wrap, so they catch up with each other and read
// behind another stream's prefetch cursor. The server answers those reads
// on its data-less direct path; they once completed inline inside
// UringBlockDevice::submit and the client's next request recursed until
// the reactor thread's stack overflowed. Each now completes from the ring.
TEST_F(RealExperiment, OverlappingStreamsRunToCompletion) {
  ExperimentConfig ec = config(true, 2);
  const std::uint32_t streams = 32;
  core::SchedulerParams& params = *ec.scheduler;
  params.dispatch_set_size = streams;
  params.read_ahead = 1 * MiB;
  params.memory_budget = 2 * streams * MiB;
  ec.streams.assign(streams, workload::StreamSpec{});
  Rng rng(11);
  for (std::uint32_t i = 0; i < streams; ++i) {
    workload::StreamSpec& spec = ec.streams[i];
    spec.device = i % kDevices;
    spec.request_size = 64 * KiB;
    spec.start_offset = rng.next_below(64) * 64 * KiB;
  }
  const ExperimentResult result = run_experiment(ec);
  EXPECT_GT(result.requests_completed, 0u);
  EXPECT_EQ(result.client_errors, 0u);
  EXPECT_EQ(result.uring_summary.errors, 0u);
  EXPECT_GT(result.scheduler_stats.fallback_direct_reads + result.server_stats.direct_reads,
            0u);
}

}  // namespace
}  // namespace sst::experiment
