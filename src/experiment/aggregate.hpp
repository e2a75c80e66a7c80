// Merge helpers for the experiment runner: a run splits the deployment
// into cells (sim shards or real reactors) that each own their stats, then
// folds the cells back into one ExperimentResult with accumulate() (see
// common/stat_fields.hpp) and sizes each cell's scheduler slice here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/stat_fields.hpp"
#include "experiment/runner.hpp"

namespace sst::experiment {

/// Kept for callers outside the runner; the merge itself uses accumulate().
inline void add_scheduler_stats(core::SchedulerStats& a, const core::SchedulerStats& b) {
  accumulate(a, b);
}

inline void add_staging_stats(core::StagingStats& a, const core::StagingStats& b) {
  accumulate(a, b);
}

/// The slice's proportional share of the host scheduler resources. The
/// dispatch set and the buffer budget both scale with the slice's share of
/// the logical devices (rounded, floor 1 / one read-ahead), then the
/// budget is raised to whatever the scaled dispatch set needs so the
/// params still validate.
inline core::SchedulerParams slice_scheduler_params(const core::SchedulerParams& params,
                                                    std::uint32_t slice_devices,
                                                    std::uint32_t total_devices) {
  core::SchedulerParams scaled = params;
  const double share =
      static_cast<double>(slice_devices) / static_cast<double>(total_devices);
  if (params.dispatch_set_size > 0) {
    scaled.dispatch_set_size = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(params.dispatch_set_size * share)));
  }
  scaled.memory_budget = std::max<Bytes>(
      static_cast<Bytes>(std::llround(static_cast<double>(params.memory_budget) * share)),
      scaled.read_ahead);
  const Bytes dispatch_need = static_cast<Bytes>(scaled.dispatch_set_size) *
                              scaled.read_ahead * scaled.requests_per_residency;
  scaled.memory_budget = std::max(scaled.memory_budget, dispatch_need);
  return scaled;
}

}  // namespace sst::experiment
