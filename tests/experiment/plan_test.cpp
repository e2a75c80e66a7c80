// Experiment plan validation: bad plan input fails loudly with a
// std::runtime_error, the same way on every backend, before anything is
// built. None of these runs reaches a device, so they need no io_uring.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "experiment/runner.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

ExperimentConfig two_controllers(std::uint32_t shards) {
  ExperimentConfig ec;
  ec.topology.node.num_controllers = 2;
  ec.topology.node.disks_per_controller = 1;
  ec.streams = workload::make_uniform_streams(4, ec.topology.logical_device_count(),
                                              ec.topology.logical_device_capacity(),
                                              64 * KiB);
  ec.warmup = msec(10);
  ec.measure = msec(10);
  ec.shards = shards;
  return ec;
}

ExperimentConfig real_backend() {
  ExperimentConfig ec = two_controllers(1);
  ec.backend.kind = BackendConfig::Kind::kReal;
  ec.backend.path = "/nonexistent/backing.img";
  return ec;
}

/// Runs `ec` and returns the runtime_error's message ("" when none).
std::string rejection(const ExperimentConfig& ec) {
  try {
    (void)run_experiment(ec);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentPlan, RejectsOutOfRangeDeviceOnEveryBackend) {
  for (ExperimentConfig ec : {two_controllers(1), two_controllers(2), real_backend()}) {
    ec.streams[3].device = 2;  // two logical devices: 0 and 1
    const std::string message = rejection(ec);
    EXPECT_NE(message.find("targets device 2"), std::string::npos) << message;
  }
}

TEST(ExperimentPlan, RejectsReactorsOnTheSimBackend) {
  for (const std::uint32_t shards : {1u, 2u}) {
    ExperimentConfig ec = two_controllers(shards);
    ec.backend.reactors = 2;
    const std::string message = rejection(ec);
    EXPECT_NE(message.find("backend.reactors"), std::string::npos) << message;
  }
}

TEST(ExperimentPlan, RealBackendRejectsOnlyItsOwnChecks) {
  ExperimentConfig no_path = real_backend();
  no_path.backend.path.clear();
  EXPECT_NE(rejection(no_path).find("backend.path"), std::string::npos);

  ExperimentConfig sharded = real_backend();
  sharded.shards = 2;
  EXPECT_NE(rejection(sharded).find("sim.shards"), std::string::npos);

  ExperimentConfig zero = real_backend();
  zero.backend.reactors = 0;
  EXPECT_NE(rejection(zero).find("backend.reactors"), std::string::npos);

  // Every stack layer passes validation: the run gets as far as the
  // backing file (missing here) or the build's missing io_uring support.
  ExperimentConfig stacked = real_backend();
  stacked.topology.stack.fault.media_error_rate = 0.01;
  stacked.topology.stack.retry = core::RetryParams{};
  stacked.topology.stack.raid.kind = io::RaidSpec::Kind::kMirror;
  stacked.topology.stack.network = net::LinkParams{};
  stacked.streams = workload::make_uniform_streams(
      4, stacked.topology.logical_device_count(),
      stacked.topology.logical_device_capacity(), 64 * KiB);
  const std::string message = rejection(stacked);
  EXPECT_TRUE(message.find("cannot stat") != std::string::npos ||
              message.find("SST_WITH_URING") != std::string::npos)
      << message;
}

}  // namespace
}  // namespace sst::experiment
