#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <vector>

#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

ExperimentConfig tiny_config(std::uint32_t streams, Bytes request) {
  node::NodeConfig node;  // 1 controller, 1 disk
  ExperimentConfig cfg;
  cfg.topology.node = node;
  cfg.warmup = msec(500);
  cfg.measure = sec(2);
  cfg.streams = workload::make_uniform_streams(streams, node.total_disks(),
                                               node.disk.geometry.capacity, request);
  return cfg;
}

TEST(Sweep, ParallelResultsBitIdenticalToSerial) {
  std::vector<ExperimentConfig> grid;
  for (const std::uint32_t streams : {2u, 5u, 9u}) {
    for (const Bytes request : {16 * KiB, 64 * KiB}) {
      grid.push_back(tiny_config(streams, request));
    }
  }

  const auto serial = run_sweep(grid, 1);
  const auto parallel = run_sweep(grid, 4);

  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    // Each run is a deterministic single-threaded simulation, so the
    // parallel fan-out must be bit-identical, not merely close.
    EXPECT_EQ(serial[i].total_mbps, parallel[i].total_mbps) << "point " << i;
    EXPECT_EQ(serial[i].min_stream_mbps, parallel[i].min_stream_mbps) << "point " << i;
    EXPECT_EQ(serial[i].max_stream_mbps, parallel[i].max_stream_mbps) << "point " << i;
    EXPECT_EQ(serial[i].requests_completed, parallel[i].requests_completed) << "point " << i;
    EXPECT_EQ(serial[i].stream_mbps, parallel[i].stream_mbps) << "point " << i;
    EXPECT_GT(serial[i].total_mbps, 0.0) << "point " << i;
  }
}

TEST(Sweep, JobsComeBackInInputOrder) {
  std::vector<std::function<ExperimentResult()>> jobs;
  for (int i = 0; i < 32; ++i) {
    jobs.push_back([i] {
      ExperimentResult r;
      r.total_mbps = i;
      return r;
    });
  }
  const auto results = run_sweep_jobs(jobs, 4);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total_mbps, static_cast<double>(i));
  }
}

TEST(Sweep, FirstExceptionPropagates) {
  std::vector<std::function<ExperimentResult()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i]() -> ExperimentResult {
      if (i == 3) throw std::runtime_error("point 3 failed");
      return {};
    });
  }
  EXPECT_THROW(run_sweep_jobs(jobs, 4), std::runtime_error);
  EXPECT_THROW(run_sweep_jobs(jobs, 1), std::runtime_error);
}

TEST(Sweep, EmptyGridIsFine) {
  EXPECT_TRUE(run_sweep({}, 4).empty());
  EXPECT_TRUE(run_sweep_jobs({}, 4).empty());
}

TEST(Sweep, CartesianProductFirstAxisOutermost) {
  const std::vector<std::vector<int>> axes = {{1, 2}, {10, 20, 30}};
  const std::vector<std::vector<int>> expected = {{1, 10}, {1, 20}, {1, 30},
                                                  {2, 10}, {2, 20}, {2, 30}};
  EXPECT_EQ(cartesian_product(axes), expected);
  const auto no_axes = cartesian_product(std::vector<std::vector<int>>{});
  ASSERT_EQ(no_axes.size(), 1u);
  EXPECT_TRUE(no_axes[0].empty());
  EXPECT_TRUE(cartesian_product(std::vector<std::vector<int>>{{1, 2}, {}}).empty());
}

TEST(Sweep, DefaultWorkersHonorsEnvVariable) {
  setenv("SST_BENCH_THREADS", "3", 1);
  EXPECT_EQ(default_sweep_workers(), 3u);
  // Out-of-range or malformed values fall back to hardware concurrency.
  setenv("SST_BENCH_THREADS", "0", 1);
  EXPECT_GE(default_sweep_workers(), 1u);
  setenv("SST_BENCH_THREADS", "lots", 1);
  EXPECT_GE(default_sweep_workers(), 1u);
  unsetenv("SST_BENCH_THREADS");
  EXPECT_GE(default_sweep_workers(), 1u);
}

}  // namespace
}  // namespace sst::experiment
