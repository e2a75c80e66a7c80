// Golden-metrics parity: the full ExperimentResult::to_json() document for
// four fig13/fig14 configurations must stay byte-for-byte identical to the
// committed fixtures; so must the sharded-engine runs below, together with
// every observability surface their merge step produces (time series,
// flight journal, tracer stream). This pins the behaviour of the whole pipeline —
// classifier, staged scheduler (StagingArea / DispatchSet / DispatchPolicy),
// topology-built device stack, metrics export — across refactors: any
// change to event ordering, arithmetic, or export layout shows up as a
// fixture diff that must be reviewed (and regenerated) deliberately.
//
// Fixtures live in tests/experiment/golden/. To regenerate after an
// intentional behaviour change, run this test binary with
// SST_REGEN_GOLDEN=1 in the environment (the fixtures are rewritten in the
// source tree) and review the diff before committing.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "experiment/runner.hpp"
#include "workload/generator.hpp"

namespace sst::experiment {
namespace {

ExperimentConfig base_config(node::NodeConfig node, std::uint32_t streams,
                             core::SchedulerParams params) {
  ExperimentConfig ec;
  ec.topology.node = node;
  ec.scheduler = params;
  ec.streams = workload::make_uniform_streams(streams, node.total_disks(),
                                              node.disk.geometry.capacity, 64 * KiB);
  ec.warmup = sec(4);
  ec.measure = sec(16);
  return ec;
}

core::SchedulerParams paper(std::uint32_t d, Bytes r, std::uint32_t n, Bytes m) {
  core::SchedulerParams p;
  p.dispatch_set_size = d;
  p.read_ahead = r;
  p.requests_per_residency = n;
  p.memory_budget = m;
  return p;
}

std::string fixture_path(const std::string& name) {
  return std::string(SST_SOURCE_DIR) + "/tests/experiment/golden/" + name;
}

std::string read_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void expect_document(const std::string& fixture, const std::string& actual) {
  if (std::getenv("SST_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path(fixture), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write fixture " << fixture_path(fixture);
    out << actual;
    return;
  }
  const std::string expected = read_fixture(fixture);
  ASSERT_FALSE(expected.empty());
  // EQ on the whole document: a mismatch prints both JSON bodies, and the
  // first diverging key localizes the regression.
  EXPECT_EQ(actual, expected) << "metrics drifted from " << fixture;
}

void expect_parity(const std::string& fixture, const ExperimentConfig& ec) {
  expect_document(fixture, run_experiment(ec).to_json());
}

/// FNV-1a over a document too large to commit (a full request trace).
std::string digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016" PRIx64, hash);
  return out;
}

/// A multi-controller deployment for the sharded engine: 4 controllers x 2
/// disks, 16 closed-loop streams with think jitter (so the per-stream seeds
/// matter), staged scheduler or raw devices.
ExperimentConfig sharded_config(std::uint32_t shards, bool staged) {
  ExperimentConfig ec;
  ec.topology.node.num_controllers = 4;
  ec.topology.node.disks_per_controller = 2;
  const std::uint32_t streams = 16;
  if (staged) ec.scheduler = paper(streams, 512 * KiB, 1, streams * 512 * KiB);
  ec.streams = workload::make_uniform_streams(streams, ec.topology.logical_device_count(),
                                              ec.topology.logical_device_capacity(),
                                              64 * KiB);
  for (auto& spec : ec.streams) spec.think_jitter = msec(2);
  ec.warmup = msec(200);
  ec.measure = msec(800);
  ec.shards = shards;
  return ec;
}

/// Sharded run with every observer on — tracer, sampled time series, a
/// breaching SLO and the flight recorder — pinned as the metrics document
/// followed by the merged time series, the merged flight journal and a
/// digest of the merged trace.
void expect_observed_parity(const std::string& fixture, ExperimentConfig ec) {
  obs::Tracer tracer;
  obs::FlightRecorder flight(512);
  ec.tracer = &tracer;
  ec.flight = &flight;
  ec.sample_interval = msec(100);
  ec.slo.objective = msec(5);
  ec.slo.quantile = 0.99;
  ec.slo.window = msec(200);
  const ExperimentResult result = run_experiment(ec);
  std::string doc = result.to_json();
  doc += "\n--- timeseries\n" + result.timeseries.to_csv();
  doc += "--- flight\n" + flight.to_json();
  doc += "\n--- tracer\nevents=" + std::to_string(tracer.event_count()) +
         " tracks=" + std::to_string(tracer.tracks().size()) +
         " fnv1a=" + digest(tracer.to_json()) + "\n";
  expect_document(fixture, doc);
}

TEST(GoldenParity, Fig13SmallDispatchEightDisks) {
  const auto node = node::NodeConfig::medium();  // 8 disks
  const std::uint32_t streams = 80;
  const std::uint32_t d = node.total_disks();
  expect_parity("fig13_small_10.json",
                base_config(node, streams,
                            paper(d, 512 * KiB, 128,
                                  static_cast<Bytes>(d) * 512 * KiB * 128 + 256 * MiB)));
}

TEST(GoldenParity, Fig13StagedAllDispatched) {
  const auto node = node::NodeConfig::medium();
  const std::uint32_t streams = 80;
  expect_parity("fig13_staged_10.json",
                base_config(node, streams,
                            paper(streams, 512 * KiB, 1,
                                  static_cast<Bytes>(streams) * 512 * KiB)));
}

TEST(GoldenParity, Fig14SingleDiskSmallDispatch) {
  const node::NodeConfig node;  // 1 disk
  expect_parity("fig14_small_10.json",
                base_config(node, 10, paper(1, 512 * KiB, 128, 64 * MiB + 128 * MiB)));
}

TEST(GoldenParity, Fig14SingleDiskAllDispatchedLargeReadAhead) {
  const node::NodeConfig node;
  expect_parity("fig14_all_10_2048.json",
                base_config(node, 10,
                            paper(10, 2048 * KiB, 1, static_cast<Bytes>(10) * 2048 * KiB)));
}

TEST(GoldenParity, ShardedTwoStaged) {
  expect_parity("sharded2_staged.json", sharded_config(2, true));
}

TEST(GoldenParity, ShardedFourRaw) {
  expect_parity("sharded4_raw.json", sharded_config(4, false));
}

TEST(GoldenParity, ShardedTwoStagedObserved) {
  expect_observed_parity("sharded2_staged_observed.txt", sharded_config(2, true));
}

TEST(GoldenParity, ShardedTwoRawObserved) {
  expect_observed_parity("sharded2_raw_observed.txt", sharded_config(2, false));
}

TEST(GoldenParity, ShardedFourStagedObserved) {
  expect_observed_parity("sharded4_staged_observed.txt", sharded_config(4, true));
}

TEST(GoldenParity, ShardedFourRawObserved) {
  expect_observed_parity("sharded4_raw_observed.txt", sharded_config(4, false));
}

// The single-engine counterpart of the observed sharded fixtures: the same
// observers on one Simulator, caller-owned tracer and flight ring.
TEST(GoldenParity, SingleEngineStagedObserved) {
  expect_observed_parity("serial_staged_observed.txt", sharded_config(1, true));
}

TEST(GoldenParity, SingleEngineRawObserved) {
  expect_observed_parity("serial_raw_observed.txt", sharded_config(1, false));
}

}  // namespace
}  // namespace sst::experiment
