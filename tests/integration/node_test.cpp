#include "node/storage_node.hpp"

#include <gtest/gtest.h>

#include "experiment/runner.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace sst::node {
namespace {

TEST(NodeConfig, Presets) {
  EXPECT_EQ(NodeConfig::base().total_disks(), 1u);
  EXPECT_EQ(NodeConfig::medium().total_disks(), 8u);
  EXPECT_EQ(NodeConfig::large().total_disks(), 64u);
}

TEST(StorageNode, BuildsConfiguredTopology) {
  sim::Simulator sim;
  StorageNode node(sim, NodeConfig::medium());
  EXPECT_EQ(node.controller_count(), 2u);
  EXPECT_EQ(node.device_count(), 8u);
  EXPECT_EQ(node.controller(0).disk_count(), 4u);
  EXPECT_EQ(node.devices().size(), 8u);
}

TEST(StorageNode, DiskOfMapsFlatIndex) {
  sim::Simulator sim;
  StorageNode node(sim, NodeConfig::medium());
  // Device 5 lives on controller 1, channel 1.
  EXPECT_EQ(&node.disk_of(5), &node.controller(1).disk(1));
}

TEST(StorageNode, DeviceSeedsDistinct) {
  sim::Simulator sim;
  NodeConfig cfg = NodeConfig::medium();
  StorageNode node(sim, cfg);
  EXPECT_NE(node.device(0).seed(), node.device(1).seed());
  EXPECT_NE(node.device(0).seed(), node.device(7).seed());
}

TEST(StorageNode, DiskTotalsAggregate) {
  sim::Simulator sim;
  NodeConfig cfg = NodeConfig::medium();
  cfg.disk.geometry.capacity = 2 * GiB;
  StorageNode node(sim, cfg);
  int done = 0;
  for (std::size_t d = 0; d < node.device_count(); ++d) {
    blockdev::BlockRequest req;
    req.offset = 0;
    req.length = 64 * KiB;
    req.on_complete = [&done](SimTime, IoStatus) { ++done; };
    node.device(d).submit(std::move(req));
  }
  sim.run();
  EXPECT_EQ(done, 8);
  const auto totals = node.disk_totals();
  EXPECT_EQ(totals.commands, 8u);
  EXPECT_EQ(totals.bytes_requested, 8 * 64 * KiB);
  node.reset_stats();
  EXPECT_EQ(node.disk_totals().commands, 0u);
}

TEST(StorageNode, MakeServerRuns) {
  sim::Simulator sim;
  NodeConfig cfg;
  cfg.disk.geometry.capacity = 2 * GiB;
  StorageNode node(sim, cfg);
  core::SchedulerParams params;
  params.read_ahead = 512 * KiB;
  params.memory_budget = 16 * MiB;
  auto server = node.make_server(params);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    core::ClientRequest req;
    req.device = 0;
    req.offset = static_cast<ByteOffset>(i) * 64 * KiB;
    req.length = 64 * KiB;
    req.on_complete = [&done](SimTime, IoStatus) { ++done; };
    server->submit(std::move(req));
    sim.run_until(sim.now() + msec(100));
  }
  EXPECT_EQ(done, 5);
  EXPECT_GE(server->scheduler().stream_count(), 1u);
}

TEST(Runner, RawExperimentProducesThroughput) {
  experiment::ExperimentConfig cfg;
  cfg.topology.node.disk.geometry.capacity = 4 * GiB;
  cfg.warmup = sec(1);
  cfg.measure = sec(4);
  cfg.streams = workload::make_uniform_streams(4, 1, 4 * GiB, 64 * KiB);
  const auto result = experiment::run_experiment(cfg);
  EXPECT_GT(result.total_mbps, 1.0);
  EXPECT_GT(result.requests_completed, 100u);
  EXPECT_GT(result.latency.count(), 0u);
  EXPECT_GE(result.max_stream_mbps, result.min_stream_mbps);
}

TEST(Runner, DeterministicAcrossRuns) {
  experiment::ExperimentConfig cfg;
  cfg.topology.node.disk.geometry.capacity = 4 * GiB;
  cfg.warmup = sec(1);
  cfg.measure = sec(3);
  cfg.streams = workload::make_uniform_streams(8, 1, 4 * GiB, 64 * KiB);
  core::SchedulerParams params;
  params.read_ahead = 1 * MiB;
  params.memory_budget = 16 * MiB;
  cfg.scheduler = params;
  const auto a = experiment::run_experiment(cfg);
  const auto b = experiment::run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.total_mbps, b.total_mbps);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.scheduler_stats.disk_reads, b.scheduler_stats.disk_reads);
}

TEST(Runner, SchedulerStatspopulatedOnlyWithServer) {
  experiment::ExperimentConfig cfg;
  cfg.topology.node.disk.geometry.capacity = 4 * GiB;
  cfg.warmup = sec(1);
  cfg.measure = sec(2);
  cfg.streams = workload::make_uniform_streams(2, 1, 4 * GiB, 64 * KiB);
  const auto raw = experiment::run_experiment(cfg);
  EXPECT_EQ(raw.scheduler_stats.streams_created, 0u);
  core::SchedulerParams params;
  params.read_ahead = 1 * MiB;
  params.memory_budget = 8 * MiB;
  cfg.scheduler = params;
  const auto sched = experiment::run_experiment(cfg);
  EXPECT_GE(sched.scheduler_stats.streams_created, 2u);
  EXPECT_GT(sched.server_stats.requests, 0u);
}

}  // namespace
}  // namespace sst::node
