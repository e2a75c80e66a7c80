// Fault-injection and recovery-hierarchy tests: deterministic schedules,
// transient/persistent media errors, timeout-driven hang recovery, retry
// accounting, mirrored-volume failover, scheduler graceful degradation,
// and the headline robustness criterion (mirrored throughput under a
// realistic media-error rate stays within 10% of fault-free).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../support/mem_block_device.hpp"
#include "core/reliable_device.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "fault/faulty_device.hpp"
#include "fault/injector.hpp"
#include "raid/mirrored_volume.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace sst::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector: deterministic, hash-keyed decisions.

TEST(Injector, SameSeedSameSchedule) {
  FaultParams params;
  params.media_error_rate = 0.05;
  params.hang_prob = 0.02;
  params.spike_prob = 0.02;
  params.persistent_fraction = 1.0;  // no mutable transient state
  FaultInjector a(params);
  FaultInjector b(params);
  for (std::uint32_t dev = 0; dev < 2; ++dev) {
    for (ByteOffset off = 0; off < 512 * KiB; off += 4 * KiB) {
      const FaultDecision da = a.decide(dev, off, 4 * KiB, IoOp::kRead);
      const FaultDecision db = b.decide(dev, off, 4 * KiB, IoOp::kRead);
      EXPECT_EQ(da.action, db.action) << "dev " << dev << " off " << off;
      EXPECT_EQ(da.persistent, db.persistent);
      EXPECT_EQ(da.extra_delay, db.extra_delay);
    }
  }
  EXPECT_EQ(a.stats().media_errors, b.stats().media_errors);
  EXPECT_EQ(a.stats().hangs, b.stats().hangs);
  EXPECT_EQ(a.stats().spikes, b.stats().spikes);
  EXPECT_GT(a.stats().media_errors + a.stats().hangs + a.stats().spikes, 0u);
}

TEST(Injector, DifferentSeedDifferentSchedule) {
  FaultParams params;
  params.media_error_rate = 0.10;
  params.persistent_fraction = 1.0;
  FaultInjector a(params);
  params.seed ^= 0x1234;
  FaultInjector b(params);
  bool diverged = false;
  for (ByteOffset off = 0; off < 1 * MiB && !diverged; off += 4 * KiB) {
    diverged = a.decide(0, off, 4 * KiB, IoOp::kRead).action !=
               b.decide(0, off, 4 * KiB, IoOp::kRead).action;
  }
  EXPECT_TRUE(diverged);
}

TEST(Injector, DecisionsIndependentOfQueryOrder) {
  FaultParams params;
  params.media_error_rate = 0.10;
  params.hang_prob = 0.05;
  params.persistent_fraction = 1.0;
  std::vector<ByteOffset> offsets;
  for (ByteOffset off = 0; off < 256 * KiB; off += 4 * KiB) offsets.push_back(off);

  FaultInjector forward(params);
  std::vector<FaultAction> in_order;
  for (ByteOffset off : offsets) {
    in_order.push_back(forward.decide(0, off, 4 * KiB, IoOp::kRead).action);
  }
  FaultInjector backward(params);
  std::vector<FaultAction> reversed(offsets.size());
  for (std::size_t i = offsets.size(); i-- > 0;) {
    reversed[i] = backward.decide(0, offsets[i], 4 * KiB, IoOp::kRead).action;
  }
  EXPECT_EQ(in_order, reversed);
}

TEST(Injector, BadRangeAlwaysFailsPersistent) {
  FaultParams params;
  params.bad_ranges.push_back({0, 1 * MiB, 64 * KiB});
  FaultInjector inj(params);
  for (int attempt = 0; attempt < 5; ++attempt) {
    const FaultDecision d = inj.decide(0, 1 * MiB + 4 * KiB, 4 * KiB, IoOp::kRead);
    EXPECT_EQ(d.action, FaultAction::kMediaError);
    EXPECT_TRUE(d.persistent);
  }
  // Outside the range, and on another device: untouched.
  EXPECT_EQ(inj.decide(0, 4 * MiB, 4 * KiB, IoOp::kRead).action, FaultAction::kNone);
  EXPECT_EQ(inj.decide(1, 1 * MiB, 4 * KiB, IoOp::kRead).action, FaultAction::kNone);
}

TEST(Injector, TransientErrorClearsAfterConfiguredAttempts) {
  FaultParams params;
  params.media_error_rate = 1.0;
  params.persistent_fraction = 0.0;
  params.transient_failures = 2;
  FaultInjector inj(params);
  EXPECT_EQ(inj.decide(0, 0, 4 * KiB, IoOp::kRead).action, FaultAction::kMediaError);
  EXPECT_EQ(inj.decide(0, 0, 4 * KiB, IoOp::kRead).action, FaultAction::kMediaError);
  EXPECT_EQ(inj.decide(0, 0, 4 * KiB, IoOp::kRead).action, FaultAction::kNone)
      << "transient fault must clear after transient_failures attempts";
}

TEST(Injector, TargetsOnlyConfiguredDevices) {
  FaultParams params;
  params.media_error_rate = 1.0;
  params.persistent_fraction = 1.0;
  params.devices = {1};
  FaultInjector inj(params);
  EXPECT_EQ(inj.decide(0, 0, 4 * KiB, IoOp::kRead).action, FaultAction::kNone);
  EXPECT_EQ(inj.decide(1, 0, 4 * KiB, IoOp::kRead).action, FaultAction::kMediaError);
}

// ---------------------------------------------------------------------------
// RetryParams: backoff arithmetic.

TEST(RetryParams, ExponentialBackoffWithCap) {
  core::RetryParams p;
  p.backoff_base = msec(5);
  p.backoff_cap = msec(40);
  EXPECT_EQ(p.backoff_for(0), 0u);
  EXPECT_EQ(p.backoff_for(1), msec(5));
  EXPECT_EQ(p.backoff_for(2), msec(10));
  EXPECT_EQ(p.backoff_for(3), msec(20));
  EXPECT_EQ(p.backoff_for(4), msec(40));
  EXPECT_EQ(p.backoff_for(5), msec(40)) << "backoff must saturate at the cap";
}

// ---------------------------------------------------------------------------
// FaultyDevice + ReliableDevice: the per-command recovery hierarchy.

struct RetryHarness {
  explicit RetryHarness(FaultParams fparams, core::RetryParams rparams = {})
      : injector(fparams),
        faulty(sim, mem, injector, 0),
        reliable(sim, faulty, rparams, 0) {}

  sim::Simulator sim;
  blockdev::MemBlockDevice mem{sim, 16 * MiB, 42};
  FaultInjector injector;
  FaultyDevice faulty;
  core::ReliableDevice reliable;
};

TEST(ReliableDevice, TransientMediaErrorRecoversOnRetry) {
  FaultParams fparams;
  fparams.media_error_rate = 1.0;  // every extent fails exactly once
  fparams.persistent_fraction = 0.0;
  fparams.transient_failures = 1;
  RetryHarness h(fparams);

  std::vector<std::byte> buf(64 * KiB);
  IoStatus final_status = IoStatus::kTimeout;
  blockdev::BlockRequest req;
  req.offset = 256 * KiB;
  req.length = buf.size();
  req.data = buf.data();
  req.on_complete = [&final_status](SimTime, IoStatus s) { final_status = s; };
  h.reliable.submit(std::move(req));
  h.sim.run();

  EXPECT_EQ(final_status, IoStatus::kOk);
  EXPECT_TRUE(blockdev::check_pattern(42, 256 * KiB, buf.data(), buf.size()));
  const core::RetryStats& rs = h.reliable.stats();
  EXPECT_EQ(rs.commands, 1u);
  EXPECT_EQ(rs.retries_total, 1u);
  EXPECT_EQ(rs.media_errors, 1u);
  EXPECT_EQ(rs.recovered, 1u);
  EXPECT_EQ(rs.giveups, 0u);
}

TEST(ReliableDevice, PersistentErrorExhaustsRetriesAndGivesUp) {
  FaultParams fparams;
  fparams.bad_ranges.push_back({0, 0, 1 * MiB});
  core::RetryParams rparams;
  rparams.max_retries = 2;
  RetryHarness h(fparams, rparams);

  IoStatus final_status = IoStatus::kOk;
  blockdev::BlockRequest req;
  req.offset = 64 * KiB;
  req.length = 64 * KiB;
  req.on_complete = [&final_status](SimTime, IoStatus s) { final_status = s; };
  h.reliable.submit(std::move(req));
  h.sim.run();

  EXPECT_EQ(final_status, IoStatus::kMediaError);
  const core::RetryStats& rs = h.reliable.stats();
  EXPECT_EQ(rs.retries_total, 2u);  // attempts = max_retries + 1
  EXPECT_EQ(rs.media_errors, 3u);
  EXPECT_EQ(rs.giveups, 1u);
  EXPECT_EQ(rs.recovered, 0u);
}

TEST(ReliableDevice, HangRecoveredByTimeoutThenGivesUp) {
  FaultParams fparams;
  fparams.hang_prob = 1.0;  // every command is swallowed
  core::RetryParams rparams;
  rparams.command_timeout = msec(50);
  rparams.max_retries = 1;
  RetryHarness h(fparams, rparams);

  IoStatus final_status = IoStatus::kOk;
  blockdev::BlockRequest req;
  req.offset = 0;
  req.length = 4 * KiB;
  req.on_complete = [&final_status](SimTime, IoStatus s) { final_status = s; };
  h.reliable.submit(std::move(req));
  h.sim.run();

  EXPECT_EQ(final_status, IoStatus::kTimeout);
  const core::RetryStats& rs = h.reliable.stats();
  EXPECT_EQ(rs.timeouts, 2u);  // both attempts abandoned by the timer
  EXPECT_EQ(rs.giveups, 1u);
  EXPECT_EQ(h.injector.stats().hangs, 2u);
  // Two timeouts plus one backoff must have elapsed.
  EXPECT_GE(h.sim.now(), 2 * msec(50) + msec(5));
}

TEST(ReliableDevice, SpikeDelaysCompletionButSucceeds) {
  FaultParams fparams;
  fparams.spike_prob = 1.0;
  fparams.spike_delay = msec(200);
  RetryHarness h(fparams);

  IoStatus final_status = IoStatus::kTimeout;
  blockdev::BlockRequest req;
  req.offset = 0;
  req.length = 4 * KiB;
  req.on_complete = [&final_status](SimTime, IoStatus s) { final_status = s; };
  h.reliable.submit(std::move(req));
  h.sim.run();

  EXPECT_EQ(final_status, IoStatus::kOk);
  EXPECT_GE(h.sim.now(), msec(200));
  EXPECT_EQ(h.injector.stats().spikes, 1u);
  EXPECT_EQ(h.reliable.stats().retries_total, 0u);
}

// ---------------------------------------------------------------------------
// MirroredVolume failover and member health.

struct MirrorHarness {
  explicit MirrorHarness(FaultParams fparams, raid::MirrorParams mparams = {})
      : injector(fparams), faulty0(sim, m0, injector, 0) {
    vol = std::make_unique<raid::MirroredVolume>(
        std::vector<blockdev::BlockDevice*>{&faulty0, &m1},
        raid::ReadPolicy::kRoundRobin, mparams);
  }

  IoStatus read(ByteOffset offset, std::byte* data, Bytes length) {
    IoStatus out = IoStatus::kTimeout;
    blockdev::BlockRequest req;
    req.offset = offset;
    req.length = length;
    req.data = data;
    req.on_complete = [&out](SimTime, IoStatus s) { out = s; };
    vol->submit(std::move(req));
    sim.run();
    return out;
  }

  sim::Simulator sim;
  // Same seed: replicas of a mirror hold identical content.
  blockdev::MemBlockDevice m0{sim, 16 * MiB, 7};
  blockdev::MemBlockDevice m1{sim, 16 * MiB, 7};
  FaultInjector injector;
  FaultyDevice faulty0;
  std::unique_ptr<raid::MirroredVolume> vol;
};

TEST(Mirror, ReadFailsOverToHealthyReplica) {
  FaultParams fparams;
  fparams.bad_ranges.push_back({0, 0, 16 * MiB});  // member 0 is all bad
  MirrorHarness h(fparams);

  std::vector<std::byte> buf(64 * KiB);
  // Round-robin sends the first read to member 0; it errors and the read
  // must complete correctly from member 1.
  EXPECT_EQ(h.read(1 * MiB, buf.data(), buf.size()), IoStatus::kOk);
  EXPECT_TRUE(blockdev::check_pattern(7, 1 * MiB, buf.data(), buf.size()));
  EXPECT_GE(h.vol->stats().failovers, 1u);
  EXPECT_EQ(h.vol->member_health(0), raid::MemberHealth::kSuspect);
  EXPECT_EQ(h.vol->member_health(1), raid::MemberHealth::kUp);
}

TEST(Mirror, ConsecutiveErrorsFailTheMemberAndReadsDegrade) {
  FaultParams fparams;
  fparams.bad_ranges.push_back({0, 0, 16 * MiB});
  raid::MirrorParams mparams;
  mparams.fail_threshold = 3;
  MirrorHarness h(fparams, mparams);

  std::vector<std::byte> buf(64 * KiB);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(h.read(static_cast<ByteOffset>(i) * 128 * KiB, buf.data(), buf.size()),
              IoStatus::kOk);
  }
  EXPECT_EQ(h.vol->member_health(0), raid::MemberHealth::kFailed);
  EXPECT_EQ(h.vol->failed_member_count(), 1u);
  // Once failed, reads route around member 0 without attempting it.
  EXPECT_GT(h.vol->stats().degraded_reads, 0u);
  EXPECT_EQ(h.vol->stats().read_failures, 0u);
}

TEST(Mirror, WritesSkipFailedMemberAndStillLand) {
  FaultParams fparams;
  fparams.bad_ranges.push_back({0, 0, 16 * MiB});
  raid::MirrorParams mparams;
  mparams.fail_threshold = 1;
  MirrorHarness h(fparams, mparams);

  std::vector<std::byte> buf(64 * KiB);
  EXPECT_EQ(h.read(0, buf.data(), buf.size()), IoStatus::kOk);  // fails member 0
  ASSERT_EQ(h.vol->member_health(0), raid::MemberHealth::kFailed);

  IoStatus wstatus = IoStatus::kTimeout;
  blockdev::BlockRequest w;
  w.offset = 2 * MiB;
  w.length = buf.size();
  w.op = IoOp::kWrite;
  w.data = buf.data();
  w.on_complete = [&wstatus](SimTime, IoStatus s) { wstatus = s; };
  h.vol->submit(std::move(w));
  h.sim.run();
  EXPECT_EQ(wstatus, IoStatus::kOk);
  EXPECT_GT(h.vol->stats().degraded_writes, 0u);
  EXPECT_EQ(h.vol->stats().write_failures, 0u);
}

TEST(Mirror, ReadFailsOnlyWhenEveryReplicaFails) {
  FaultParams fparams;
  fparams.bad_ranges.push_back({0, 0, 16 * MiB});
  fparams.bad_ranges.push_back({1, 0, 16 * MiB});
  sim::Simulator sim;
  blockdev::MemBlockDevice m0{sim, 16 * MiB, 7};
  blockdev::MemBlockDevice m1{sim, 16 * MiB, 7};
  FaultInjector injector(fparams);
  FaultyDevice f0(sim, m0, injector, 0);
  FaultyDevice f1(sim, m1, injector, 1);
  raid::MirroredVolume vol({&f0, &f1}, raid::ReadPolicy::kRoundRobin);

  IoStatus out = IoStatus::kOk;
  blockdev::BlockRequest req;
  req.offset = 0;
  req.length = 64 * KiB;
  req.on_complete = [&out](SimTime, IoStatus s) { out = s; };
  vol.submit(std::move(req));
  sim.run();
  EXPECT_EQ(out, IoStatus::kMediaError);
  EXPECT_EQ(vol.stats().read_failures, 1u);
}

// ---------------------------------------------------------------------------
// Scheduler graceful degradation: a failed disk evicts its streams instead
// of stalling the dispatch pump; healthy disks keep flowing.

TEST(SchedulerDegradation, FailedDeviceEvictsStreamsAndHealthyDisksProgress) {
  experiment::ExperimentConfig config;
  config.topology.node.num_controllers = 1;
  config.topology.node.disks_per_controller = 2;
  config.scheduler = core::SchedulerParams{};
  config.topology.stack.fault.media_error_rate = 1.0;
  config.topology.stack.fault.persistent_fraction = 1.0;
  config.topology.stack.fault.devices = {0};  // disk 0 is a brick; disk 1 is clean
  core::RetryParams retry;
  retry.max_retries = 1;
  // Generous deadline: queued 1 MiB read-aheads on the healthy disk can
  // take hundreds of ms; only disk 0's (instant) media errors should fail.
  retry.command_timeout = sec(5);
  config.topology.stack.retry = retry;
  config.streams = workload::make_uniform_streams(
      8, 2, config.topology.node.disk.geometry.capacity, 64 * KiB);
  config.warmup = msec(500);
  config.measure = sec(2);

  const experiment::ExperimentResult result = experiment::run_experiment(config);

  EXPECT_EQ(result.devices_failed, 1u);
  EXPECT_GT(result.scheduler_stats.streams_evicted, 0u);
  EXPECT_GT(result.scheduler_stats.prefetch_errors, 0u);
  EXPECT_GT(result.client_errors, 0u);
  EXPECT_GT(result.retry_stats.giveups, 0u);
  // Streams on the healthy disk keep streaming (uniform placement
  // round-robins streams over disks: stream i sits on disk i / 4 here).
  double healthy_mbps = 0.0;
  for (std::size_t i = 0; i < config.streams.size(); ++i) {
    if (config.streams[i].device == 1) healthy_mbps += result.stream_mbps[i];
  }
  EXPECT_GT(healthy_mbps, 1.0) << "healthy disk must keep serving";
  // Requests for the failed disk are rejected at the server, not queued.
  EXPECT_GT(result.server_stats.rejected_requests, 0u);
}

// ---------------------------------------------------------------------------
// Determinism end to end: same seed, byte-identical results, independent of
// sweep parallelism.

experiment::ExperimentConfig faulted_config(double rate) {
  experiment::ExperimentConfig config;
  config.topology.node.num_controllers = 1;
  config.topology.node.disks_per_controller = 2;
  config.scheduler = core::SchedulerParams{};
  config.scheduler->device_fail_threshold = 1000;  // keep disks alive
  config.topology.stack.fault.media_error_rate = rate;
  config.topology.stack.fault.hang_prob = rate / 10.0;
  config.topology.stack.fault.spike_prob = rate;
  core::RetryParams retry;
  retry.command_timeout = msec(100);
  config.topology.stack.retry = retry;
  config.streams = workload::make_uniform_streams(
      10, 2, config.topology.node.disk.geometry.capacity, 64 * KiB);
  config.warmup = msec(500);
  config.measure = sec(2);
  return config;
}

TEST(Determinism, SameSeedFaultScheduleIsByteIdenticalAcrossRuns) {
  const experiment::ExperimentConfig config = faulted_config(5e-3);
  const experiment::ExperimentResult a = experiment::run_experiment(config);
  const experiment::ExperimentResult b = experiment::run_experiment(config);
  EXPECT_GT(a.fault_stats.media_errors + a.fault_stats.hangs + a.fault_stats.spikes, 0u);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Determinism, SweepResultsIdenticalAcrossWorkerCounts) {
  std::vector<experiment::ExperimentConfig> grid;
  grid.push_back(faulted_config(1e-3));
  grid.push_back(faulted_config(5e-3));
  grid.push_back(faulted_config(1e-2));
  const auto serial = experiment::run_sweep(grid, 1);
  const auto parallel = experiment::run_sweep(grid, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].to_json(), parallel[i].to_json()) << "grid point " << i;
  }
}

// ---------------------------------------------------------------------------
// Acceptance: 100 streams on a 2-way mirror with a 1e-3 media-error rate on
// one member stay within 10% of fault-free aggregate throughput.

double mirrored_throughput(double media_error_rate) {
  sim::Simulator sim;
  constexpr Bytes kCapacity = 64 * MiB;
  blockdev::MemBlockDevice m0(sim, kCapacity, 7);
  blockdev::MemBlockDevice m1(sim, kCapacity, 7);

  FaultParams fparams;
  fparams.media_error_rate = media_error_rate;
  fparams.devices = {0};  // only member 0 degrades
  FaultInjector injector(fparams);
  FaultyDevice faulty0(sim, m0, injector, 0);

  core::RetryParams rparams;
  rparams.command_timeout = msec(100);
  core::ReliableDevice r0(sim, faulty0, rparams, 0);
  core::ReliableDevice r1(sim, m1, rparams, 1);
  raid::MirroredVolume vol({&r0, &r1}, raid::ReadPolicy::kRegionAffine);

  workload::RequestSink sink = [&vol](core::ClientRequest req) {
    blockdev::BlockRequest io;
    io.offset = req.offset;
    io.length = req.length;
    io.op = req.op;
    io.id = req.id;
    io.data = req.data;
    io.on_complete = std::move(req.on_complete);
    vol.submit(std::move(io));
  };

  const auto specs = workload::make_uniform_streams(100, 1, kCapacity, 64 * KiB);
  std::vector<std::unique_ptr<workload::StreamClient>> clients;
  clients.reserve(specs.size());
  for (const auto& spec : specs) {
    clients.push_back(
        std::make_unique<workload::StreamClient>(sim, sink, spec, kCapacity));
  }
  for (auto& client : clients) client->start();

  sim.run_until(msec(500));
  for (auto& client : clients) client->begin_measurement();
  const SimTime t0 = sim.now();
  const SimTime t1 = t0 + sec(2);
  sim.run_until(t1);

  double total = 0.0;
  for (const auto& client : clients) total += client->stats().throughput.mbps(t0, t1);
  return total;
}

TEST(Acceptance, MirroredThroughputWithin10PercentUnderMediaErrors) {
  const double clean = mirrored_throughput(0.0);
  const double faulted = mirrored_throughput(1e-3);
  ASSERT_GT(clean, 0.0);
  EXPECT_GE(faulted, 0.9 * clean)
      << "clean " << clean << " MB/s vs faulted " << faulted << " MB/s";
}

}  // namespace
}  // namespace sst::fault
