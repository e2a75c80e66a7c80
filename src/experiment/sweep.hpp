// Parallel sweep engine: every paper figure is a grid of independent,
// deterministic, single-threaded simulations, so the only safe — and the
// most profitable — parallelism is across grid points. run_sweep fans
// experiment runs over a fixed-size thread pool while keeping results in
// input order, bit-identical to a serial run.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "experiment/runner.hpp"

namespace sst::experiment {

/// Cartesian product of `axes`, first axis outermost (google-benchmark's
/// ArgsProduct order): each point holds one value per axis, in axis order.
/// No axes give one empty point; an empty axis gives no points.
template <typename T>
[[nodiscard]] std::vector<std::vector<T>> cartesian_product(
    const std::vector<std::vector<T>>& axes) {
  std::vector<std::vector<T>> points{{}};
  for (const std::vector<T>& axis : axes) {
    std::vector<std::vector<T>> expanded;
    expanded.reserve(points.size() * axis.size());
    for (const std::vector<T>& prefix : points) {
      for (const T& value : axis) {
        std::vector<T> point = prefix;
        point.push_back(value);
        expanded.push_back(std::move(point));
      }
    }
    points = std::move(expanded);
  }
  return points;
}

/// Worker count used when run_sweep is called with workers == 0: the
/// SST_BENCH_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency (at least 1).
[[nodiscard]] unsigned default_sweep_workers();

/// Run every configuration across up to `workers` threads (0 = the
/// default_sweep_workers() policy). Results come back in input order and
/// are bit-identical to running each config serially — run_experiment is
/// deterministic and shares no mutable state between runs. The first
/// exception thrown by any run is rethrown after outstanding work drains.
[[nodiscard]] std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs, unsigned workers = 0);

/// Generalized fan-out for sweeps whose points are not plain
/// ExperimentConfigs (custom harnesses around the simulator). Each job must
/// be independent and deterministic; same ordering/exception contract as
/// run_sweep.
[[nodiscard]] std::vector<ExperimentResult> run_sweep_jobs(
    const std::vector<std::function<ExperimentResult()>>& jobs, unsigned workers = 0);

}  // namespace sst::experiment
