// Figure 2: Linux I/O scheduler performance on a single disk — xdd reading
// sequential files with 4 KB blocks through the kernel page cache, for the
// noop, anticipatory and CFQ schedulers (deadline added as a bonus series),
// 1-256 concurrent streams.
//
// The client think time models CPU-scheduling contention on the testbed's
// 2-way Opteron: with hundreds of runnable readers, the next read of a
// process arrives later than the anticipatory scheduler's 6 ms window, so
// anticipation stops paying off and every scheduler collapses to a seek
// per read-ahead window. (Paper: "when the number of streams exceeds 16,
// all schedulers perform significantly slower"; AS loses ~4x at 256.)
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "oskernel/kernel_io.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sstbench;

/// Per-request CPU cost of a ready process and the machine's core count.
constexpr SimTime kCpuSlice = usec(25);
constexpr std::uint32_t kCpus = 2;

constexpr std::int64_t kStreamCounts[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

double run_kernel_experiment(oskernel::IoSchedKind kind, std::uint32_t streams) {
  sim::Simulator simulator;
  node::NodeConfig node_cfg;  // 1 controller, 1 disk
  node::StorageNode node(simulator, node_cfg);

  oskernel::KernelIoParams kernel_params;
  kernel_params.scheduler = kind;
  oskernel::KernelIo kernel(simulator, node.device(0), kernel_params);

  // xdd accesses at 1 GB intervals; emulate with uniform spacing.
  auto specs = workload::make_uniform_streams(streams, 1,
                                              node_cfg.disk.geometry.capacity, 4 * KiB);
  const SimTime think = kCpuSlice * ((streams + kCpus - 1) / kCpus);
  std::vector<std::unique_ptr<workload::StreamClient>> clients;
  clients.reserve(specs.size());
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    specs[i].think_time = think;
    workload::RequestSink sink = [&kernel, &simulator, i](core::ClientRequest req) {
      kernel.read(i, req.offset, req.length, [&simulator, cb = std::move(req.on_complete)]() {
        if (cb) cb(simulator.now(), IoStatus::kOk);
      });
    };
    clients.push_back(std::make_unique<workload::StreamClient>(
        simulator, std::move(sink), specs[i], node.device(0).capacity()));
  }
  for (auto& c : clients) c->start();

  simulator.run_until(sec(3));
  for (auto& c : clients) c->begin_measurement();
  const SimTime t0 = simulator.now();
  const SimTime t1 = t0 + sec(12);
  simulator.run_until(t1);

  double total = 0.0;
  for (const auto& c : clients) total += c->stats().throughput.mbps(t0, t1);
  return total;
}

// The kernel series is a custom harness (not an ExperimentConfig), so it
// fans out through run_sweep_jobs with the scalar throughput carried in
// ExperimentResult::total_mbps.
const std::map<SweepKey, double>& fig02_kernel_results() {
  static const std::map<SweepKey, double> results = [] {
    const std::vector<SweepKey> keys =
        sweep_grid({{static_cast<std::int64_t>(oskernel::IoSchedKind::kNoop),
                     static_cast<std::int64_t>(oskernel::IoSchedKind::kDeadline),
                     static_cast<std::int64_t>(oskernel::IoSchedKind::kAnticipatory),
                     static_cast<std::int64_t>(oskernel::IoSchedKind::kCfq)},
                    {std::begin(kStreamCounts), std::end(kStreamCounts)}});
    std::vector<std::function<experiment::ExperimentResult()>> jobs;
    jobs.reserve(keys.size());
    for (const SweepKey& key : keys) {
      jobs.push_back([key] {
        experiment::ExperimentResult r;
        r.total_mbps = run_kernel_experiment(
            static_cast<oskernel::IoSchedKind>(key[0]),
            static_cast<std::uint32_t>(key[1]));
        return r;
      });
    }
    const auto raw = experiment::run_sweep_jobs(jobs);
    std::map<SweepKey, double> out;
    for (std::size_t i = 0; i < keys.size(); ++i) out.emplace(keys[i], raw[i].total_mbps);
    return out;
  }();
  return results;
}

std::optional<experiment::ExperimentConfig> fig02_sched_config(const SweepKey& key) {
  const auto streams = static_cast<std::uint32_t>(key[0]);
  node::NodeConfig cfg;
  core::SchedulerParams params;
  params.read_ahead = 2 * MiB;
  params.memory_budget =
      std::max<Bytes>(256 * MiB, static_cast<Bytes>(streams) * 2 * MiB);
  params.classifier.block_bytes = 4 * KiB;

  experiment::ExperimentConfig ec;
  ec.topology.node = cfg;
  ec.warmup = sec(3);
  ec.measure = sec(12);
  ec.scheduler = params;
  ec.streams = workload::make_uniform_streams(streams, 1,
                                              cfg.disk.geometry.capacity, 4 * KiB);
  const SimTime think = kCpuSlice * ((streams + kCpus - 1) / kCpus);
  for (auto& spec : ec.streams) spec.think_time = think;
  return ec;
}

SweepCache& fig02_sched_cache() {
  static SweepCache cache(
      "fig02_linux_sched",
      sweep_grid({{std::begin(kStreamCounts), std::end(kStreamCounts)}}),
      fig02_sched_config);
  return cache;
}

void Fig02(benchmark::State& state) {
  const auto kind = static_cast<oskernel::IoSchedKind>(state.range(0));
  double mbps = 0.0;
  for (auto _ : state) {
    mbps = fig02_kernel_results().at({state.range(0), state.range(1)});
  }
  state.counters["MBps"] = mbps;
  state.SetLabel(oskernel::to_string(kind));
}

// The head-to-head the paper implies: the same 4 KB / CPU-contended
// workload through the stream scheduler instead of the kernel page cache.
void Fig02StreamScheduler(benchmark::State& state) {
  const experiment::ExperimentResult* result = nullptr;
  for (auto _ : state) {
    result = fig02_sched_cache().result({state.range(0)});
  }
  state.counters["MBps"] = result->total_mbps;
  state.SetLabel("stream-scheduler");
}

}  // namespace

BENCHMARK(Fig02StreamScheduler)
    ->ArgNames({"streams"})
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(Fig02)
    ->ArgNames({"sched", "streams"})
    ->ArgsProduct({{static_cast<long>(oskernel::IoSchedKind::kNoop),
                    static_cast<long>(oskernel::IoSchedKind::kDeadline),
                    static_cast<long>(oskernel::IoSchedKind::kAnticipatory),
                    static_cast<long>(oskernel::IoSchedKind::kCfq)},
                   {1, 2, 4, 8, 16, 32, 64, 128, 256}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
