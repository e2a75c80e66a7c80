#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../support/mem_block_device.hpp"
#include "experiment/runner.hpp"
#include "core/server.hpp"
#include "fault/injector.hpp"
#include "sim/simulator.hpp"

namespace sst::net {
namespace {

TEST(Channel, DeliveryTimeMatchesModel) {
  sim::Simulator sim;
  LinkParams p;
  p.latency = usec(100);
  p.bandwidth_bps = 100e6;  // 10 ns per byte
  p.per_message_overhead = usec(10);
  p.header_bytes = 0;
  Channel ch(sim, p);
  SimTime delivered = 0;
  ch.send(100'000, [&] { delivered = sim.now(); });  // 1 ms serialization
  sim.run();
  // send overhead 10us + 1ms + latency 100us + recv overhead 10us.
  EXPECT_NEAR(static_cast<double>(delivered), static_cast<double>(usec(1120)),
              static_cast<double>(usec(2)));
}

TEST(Channel, BackToBackMessagesSerialize) {
  sim::Simulator sim;
  LinkParams p;
  p.latency = 0;
  p.bandwidth_bps = 100e6;
  p.per_message_overhead = 0;
  p.header_bytes = 0;
  Channel ch(sim, p);
  SimTime first = 0, second = 0;
  ch.send(100'000, [&] { first = sim.now(); });
  ch.send(100'000, [&] { second = sim.now(); });
  sim.run();
  EXPECT_NEAR(static_cast<double>(second - first), static_cast<double>(msec(1)),
              static_cast<double>(usec(5)));
}

TEST(Channel, StatsAccumulate) {
  sim::Simulator sim;
  LinkParams p;
  p.header_bytes = 100;
  Channel ch(sim, p);
  ch.send(900, [] {});
  ch.send(0, [] {});
  sim.run();
  EXPECT_EQ(ch.stats().messages, 2u);
  EXPECT_EQ(ch.stats().bytes_transferred, 900u + 100u + 100u);
  EXPECT_GT(ch.stats().busy_time, 0u);
}

struct Harness {
  sim::Simulator sim;
  blockdev::MemBlockDevice dev{sim, 16 * MiB, 9, usec(200), 200e6};
  core::StorageServer server;

  explicit Harness()
      : server(sim, {&dev},
               [] {
                 core::SchedulerParams p;
                 p.read_ahead = 256 * KiB;
                 p.memory_budget = 8 * MiB;
                 return p;
               }()) {}
};

TEST(RemoteSink, ReadCompletesWithNetworkLatencyAdded) {
  Harness h;
  LinkParams link;
  link.latency = msec(1);  // exaggerated so the effect dominates
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    link);
  auto sink = remote.sink();

  SimTime done_at = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 16 * KiB;
  req.on_complete = [&done_at, &h](SimTime, IoStatus) { done_at = h.sim.now(); };
  const SimTime t0 = h.sim.now();
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(1));
  ASSERT_GT(done_at, t0);
  // Two network hops of >= 1 ms each plus the device time.
  EXPECT_GE(done_at - t0, msec(2));
  EXPECT_EQ(remote.uplink_stats().messages, 1u);
  EXPECT_EQ(remote.downlink_stats().messages, 1u);
}

TEST(RemoteSink, ResponsesCarryNoDataByDefault) {
  Harness h;
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    LinkParams{});
  auto sink = remote.sink();
  int done = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 1 * MiB;  // large read
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(1));
  ASSERT_EQ(done, 1);
  // Downlink carried only the header, not the 1 MB payload.
  EXPECT_LT(remote.downlink_stats().bytes_transferred, 1 * KiB);
}

TEST(RemoteSink, ResponsesCarryDataWhenEnabled) {
  Harness h;
  LinkParams link;
  link.responses_carry_data = true;
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    link);
  auto sink = remote.sink();
  int done = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 1 * MiB;
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(1));
  ASSERT_EQ(done, 1);
  EXPECT_GE(remote.downlink_stats().bytes_transferred, 1 * MiB);
}

TEST(RemoteSink, WritePayloadTravelsUplink) {
  Harness h;
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    LinkParams{});
  auto sink = remote.sink();
  int done = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 256 * KiB;
  req.op = IoOp::kWrite;
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(1));
  ASSERT_EQ(done, 1);
  EXPECT_GE(remote.uplink_stats().bytes_transferred, 256 * KiB);
}

TEST(RemoteSink, ManyClientsShareTheLink) {
  // Closed-loop streams through the network still complete and the link
  // never reorders a single client's requests.
  Harness h;
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    LinkParams{});
  auto sink = remote.sink();
  std::vector<std::unique_ptr<workload::StreamClient>> clients;
  for (int i = 0; i < 3; ++i) {
    workload::StreamSpec spec;
    spec.start_offset = static_cast<ByteOffset>(i) * 4 * MiB;
    spec.region_bytes = 4 * MiB;
    spec.request_size = 16 * KiB;
    spec.num_requests = 20;
    clients.push_back(
        std::make_unique<workload::StreamClient>(h.sim, sink, spec, h.dev.capacity()));
    clients.back()->start();
  }
  h.sim.run_until(h.sim.now() + sec(5));
  EXPECT_EQ(remote.uplink_stats().messages, 60u);
  EXPECT_EQ(remote.downlink_stats().messages, 60u);
}

TEST(RemoteSink, FaultHangDropsRequestInTransit) {
  // A hang decision on the link loses the request outright: nothing reaches
  // the server and the completion never fires.
  Harness h;
  fault::FaultParams fp;
  fp.hang_prob = 1.0;
  fault::FaultInjector injector(fp);
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    LinkParams{});
  remote.set_fault_injector(&injector, 1);
  auto sink = remote.sink();
  int done = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 16 * KiB;
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(10));
  EXPECT_EQ(done, 0);
  EXPECT_EQ(remote.fault_stats().dropped, 1u);
  EXPECT_EQ(remote.uplink_stats().messages, 0u);
}

TEST(RemoteSink, FaultMediaErrorFailsInTransportWithoutReachingServer) {
  Harness h;
  fault::FaultParams fp;
  fp.media_error_rate = 1.0;
  fp.persistent_fraction = 1.0;
  fault::FaultInjector injector(fp);
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    LinkParams{});
  remote.set_fault_injector(&injector, 1);
  auto sink = remote.sink();
  IoStatus status = IoStatus::kOk;
  int done = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 16 * KiB;
  req.on_complete = [&done, &status](SimTime, IoStatus s) {
    ++done;
    status = s;
  };
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(1));
  ASSERT_EQ(done, 1);
  EXPECT_FALSE(io_ok(status));
  EXPECT_EQ(remote.fault_stats().transport_errors, 1u);
  // The error came back over the downlink; the server never saw the request.
  EXPECT_EQ(remote.uplink_stats().messages, 0u);
  EXPECT_EQ(remote.downlink_stats().messages, 1u);
}

TEST(RemoteSink, FaultSpikeDelaysButCompletes) {
  const auto completion_time = [](fault::FaultInjector* injector) {
    Harness h;
    RemoteSink remote(h.sim,
                      [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                      LinkParams{});
    if (injector != nullptr) remote.set_fault_injector(injector, 1);
    auto sink = remote.sink();
    SimTime done_at = 0;
    core::ClientRequest req;
    req.device = 0;
    req.offset = 0;
    req.length = 16 * KiB;
    req.on_complete = [&done_at, &h](SimTime, IoStatus) { done_at = h.sim.now(); };
    sink(std::move(req));
    h.sim.run_until(h.sim.now() + sec(10));
    EXPECT_GT(done_at, 0u);
    return done_at;
  };

  fault::FaultParams fp;
  fp.spike_prob = 1.0;
  fp.spike_delay = msec(50);
  fault::FaultInjector injector(fp);
  const SimTime clean = completion_time(nullptr);
  const SimTime spiked = completion_time(&injector);
  EXPECT_GE(spiked, clean + msec(50));
  EXPECT_EQ(injector.stats().spikes, 1u);
}

TEST(RemoteSink, FaultTargetsSkipTheLinkWhenNotListed) {
  // fault.devices scoping applies to the link like any device: an injector
  // aimed only at disk 0 leaves the NIC (keyed as device 1 here) untouched.
  Harness h;
  fault::FaultParams fp;
  fp.media_error_rate = 1.0;
  fp.devices = {0};
  fault::FaultInjector injector(fp);
  RemoteSink remote(h.sim, [&](core::ClientRequest r) { h.server.submit(std::move(r)); },
                    LinkParams{});
  remote.set_fault_injector(&injector, 1);
  auto sink = remote.sink();
  IoStatus status = IoStatus::kMediaError;
  int done = 0;
  core::ClientRequest req;
  req.device = 0;
  req.offset = 0;
  req.length = 16 * KiB;
  req.on_complete = [&done, &status](SimTime, IoStatus s) {
    ++done;
    status = s;
  };
  sink(std::move(req));
  h.sim.run_until(h.sim.now() + sec(1));
  ASSERT_EQ(done, 1);
  EXPECT_TRUE(io_ok(status));
  EXPECT_EQ(remote.fault_stats().transport_errors, 0u);
}

TEST(RemoteSink, ExperimentHarnessIntegration) {
  // The runner's optional network adds client-visible latency without
  // changing aggregate throughput (responses carry no payload).
  experiment::ExperimentConfig ec;
  ec.topology.node.disk.geometry.capacity = 4 * GiB;
  ec.warmup = sec(1);
  ec.measure = sec(4);
  core::SchedulerParams params;
  params.read_ahead = 1 * MiB;
  params.memory_budget = 16 * MiB;
  ec.scheduler = params;
  ec.streams = workload::make_uniform_streams(8, 1, 4 * GiB, 64 * KiB);

  const auto local = experiment::run_experiment(ec);
  LinkParams link;
  link.latency = usec(500);
  ec.topology.stack.network = link;
  const auto remote = experiment::run_experiment(ec);

  EXPECT_GT(remote.total_mbps, 0.5 * local.total_mbps);
  // Staged-buffer hits complete in tens of microseconds locally; over the
  // network every request pays two >= 0.5 ms hops, so the median moves past
  // 1 ms. (Mean latency is NOT additive: the closed loop re-times arrivals
  // and can reduce queueing by more than the network adds.)
  EXPECT_LT(local.latency.p50_ms(), 1.0);
  EXPECT_GE(remote.latency.p50_ms(), 1.0);
}

}  // namespace
}  // namespace sst::net
