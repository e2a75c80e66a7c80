// Shared plumbing for the per-figure benchmark binaries. Every figure bench
// registers google-benchmark cases with Iterations(1): one "iteration" is a
// complete simulated experiment (warm-up + measurement window), and the
// figure's series values are exported as user counters (MBps, latency).
//
// Figure grids run through the parallel sweep engine: each bench describes
// its full parameter grid once (the same axes it hands to ArgsProduct), a
// SweepCache fans every point across experiment::run_sweep on first lookup
// (SST_BENCH_THREADS workers, default hardware_concurrency), and each
// benchmark case then just reads its precomputed point. Per-point results
// are bit-identical to the former serial runs — only wall-clock changes.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "node/topology.hpp"
#include "workload/generator.hpp"

namespace sstbench {

using namespace sst;  // NOLINT(google-build-using-namespace) — bench-local

/// Baseline config: clients talk to the (stacked) devices directly. The
/// optional StackSpec layers fault/retry/raid/network declaratively; the
/// stream population is sized against the stack's logical device view.
inline experiment::ExperimentConfig raw_config(const node::NodeConfig& node,
                                               std::uint32_t total_streams, Bytes request_size,
                                               SimTime warmup = sec(2),
                                               SimTime measure = sec(10),
                                               const io::StackSpec& stack = {}) {
  experiment::ExperimentConfig cfg;
  cfg.topology.node = node;
  cfg.topology.stack = stack;
  cfg.warmup = warmup;
  cfg.measure = measure;
  cfg.streams = workload::make_uniform_streams(
      total_streams, cfg.topology.logical_device_count(),
      cfg.topology.logical_device_capacity(), request_size);
  return cfg;
}

/// System config: clients go through the stream-scheduler storage server.
inline experiment::ExperimentConfig sched_config(const node::NodeConfig& node,
                                                 const core::SchedulerParams& params,
                                                 std::uint32_t total_streams,
                                                 Bytes request_size, SimTime warmup = sec(2),
                                                 SimTime measure = sec(10),
                                                 const io::StackSpec& stack = {}) {
  experiment::ExperimentConfig cfg = raw_config(node, total_streams, request_size,
                                                warmup, measure, stack);
  cfg.scheduler = params;
  return cfg;
}

/// Baseline run: clients talk to the block devices directly.
inline experiment::ExperimentResult run_raw(const node::NodeConfig& node,
                                            std::uint32_t total_streams, Bytes request_size,
                                            SimTime warmup = sec(2), SimTime measure = sec(10)) {
  return experiment::run_experiment(
      raw_config(node, total_streams, request_size, warmup, measure));
}

/// System run: clients go through the stream-scheduler storage server.
inline experiment::ExperimentResult run_sched(const node::NodeConfig& node,
                                              const core::SchedulerParams& params,
                                              std::uint32_t total_streams, Bytes request_size,
                                              SimTime warmup = sec(2),
                                              SimTime measure = sec(10)) {
  return experiment::run_experiment(
      sched_config(node, params, total_streams, request_size, warmup, measure));
}

/// The paper's (D=S, N=1, M=D*R*N) parameterization used in Figs. 10 & 12.
inline core::SchedulerParams paper_params(std::uint32_t dispatch, Bytes read_ahead,
                                          std::uint32_t residency, Bytes memory) {
  core::SchedulerParams p;
  p.dispatch_set_size = dispatch;
  p.read_ahead = read_ahead;
  p.requests_per_residency = residency;
  p.memory_budget = memory;
  return p;
}

/// One grid point's coordinates: the same values the benchmark case sees
/// via benchmark::State::range(i).
using SweepKey = std::vector<std::int64_t>;

/// Cartesian product of axes in ArgsProduct order (first axis outermost).
inline std::vector<SweepKey> sweep_grid(const std::vector<SweepKey>& axes) {
  return experiment::cartesian_product(axes);
}

/// Lazily-computed parallel sweep over a figure's parameter grid. Built
/// with a name (used for the metrics sidecar file), the grid keys, and a
/// key -> config mapping (nullopt excludes a point, mirroring the bench's
/// own SkipWithError guards); the first result() call runs every point
/// through experiment::run_sweep, writes BENCH_<name>_metrics.json (full
/// per-point metrics, beside the bench's own BENCH_*.json output), and each
/// benchmark case afterwards reads its point for free.
class SweepCache {
 public:
  using MakeConfig = std::function<std::optional<experiment::ExperimentConfig>(const SweepKey&)>;

  SweepCache(std::string name, std::vector<SweepKey> keys, MakeConfig make)
      : name_(std::move(name)), keys_(std::move(keys)), make_(std::move(make)) {}

  /// The precomputed result for `key`, or nullptr for an excluded point.
  [[nodiscard]] const experiment::ExperimentResult* result(const SweepKey& key) {
    ensure_run();
    const auto it = results_.find(key);
    return it == results_.end() ? nullptr : &it->second;
  }

 private:
  void ensure_run() {
    if (ran_) return;
    ran_ = true;
    std::vector<SweepKey> included;
    std::vector<experiment::ExperimentConfig> configs;
    included.reserve(keys_.size());
    configs.reserve(keys_.size());
    for (const SweepKey& key : keys_) {
      if (auto config = make_(key)) {
        included.push_back(key);
        configs.push_back(*std::move(config));
      }
    }
    std::vector<experiment::ExperimentResult> results = experiment::run_sweep(configs);
    write_metrics(included, results);
    for (std::size_t i = 0; i < included.size(); ++i) {
      results_.emplace(included[i], std::move(results[i]));
    }
  }

  /// Full metrics for every grid point, as a JSON array of
  /// {"key": [...], "metrics": {...}} records.
  void write_metrics(const std::vector<SweepKey>& included,
                     const std::vector<experiment::ExperimentResult>& results) const {
    const std::string path = "BENCH_" + name_ + "_metrics.json";
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < included.size(); ++i) {
      if (i != 0) out << ",\n";
      out << "{\"key\":[";
      for (std::size_t j = 0; j < included[i].size(); ++j) {
        if (j != 0) out << ',';
        out << included[i][j];
      }
      out << "],\"metrics\":" << results[i].to_json() << "}";
    }
    out << "\n]\n";
  }

  std::string name_;
  std::vector<SweepKey> keys_;
  MakeConfig make_;
  std::map<SweepKey, experiment::ExperimentResult> results_;
  bool ran_ = false;
};

}  // namespace sstbench
