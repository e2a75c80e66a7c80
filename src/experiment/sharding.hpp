// Shard planning for the experiment runner's sim cells: how a TopologySpec
// splits into per-shard device-stack slices, which lookahead the barrier
// uses, and how the global workload seed fans out into per-shard /
// per-stream seeds. Pure config-time logic (no simulator), separated from
// the runner so tests can pin the planning rules directly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "node/topology.hpp"

namespace sst::experiment {

/// One shard's contiguous slab of the deployment, in controller, physical
/// device, and logical (post-raid) device coordinates.
struct ShardSlice {
  std::uint32_t ctrl_begin = 0;
  std::uint32_t ctrl_count = 0;
  std::uint32_t dev_begin = 0;  ///< physical devices (controller-major)
  std::uint32_t dev_count = 0;
  std::uint32_t logical_begin = 0;  ///< flat logical view indices
  std::uint32_t logical_count = 0;
};

struct ShardPlan {
  std::uint32_t requested = 1;  ///< configured shards before clamping
  SimTime lookahead = 0;        ///< barrier window == interconnect latency
  std::vector<ShardSlice> slices;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(slices.size());
  }

  /// Which shard owns logical device `device`.
  [[nodiscard]] std::uint32_t shard_of_logical(std::uint32_t device) const {
    for (std::uint32_t k = 0; k < shard_count(); ++k) {
      const ShardSlice& s = slices[k];
      if (device >= s.logical_begin && device < s.logical_begin + s.logical_count) {
        return k;
      }
    }
    return 0;
  }
};

/// Fallback interconnect latency (and thus lookahead) when the stack has no
/// network layer to derive one from: comfortably above the per-command
/// controller overhead (~0.3 ms bus time for a 64 KiB transfer) and small
/// against disk service times, so the added client round-trip latency is
/// noise while windows stay long enough to amortize the barrier.
inline constexpr SimTime kDefaultShardLookahead = usec(500);

/// Split `topology` into at most `requested` shards at controller
/// boundaries (a controller and its disks never straddle shards). Clamps to
/// the controller count; falls back toward fewer shards when the raid
/// layout couples devices across a proposed boundary (any striping, or a
/// mirror group splitting). `lookahead_override` > 0 pins the lookahead;
/// otherwise it derives from the network link latency when one is stacked
/// (never below the default — the lookahead bounds delivery latency, so a
/// larger safe value only helps) or kDefaultShardLookahead when not.
[[nodiscard]] ShardPlan plan_shards(const node::TopologySpec& topology,
                                    std::uint32_t requested,
                                    SimTime lookahead_override = 0);

/// Per-shard workload seed: global seed ⊕ shard id pushed through the
/// mix64 chain, so shards draw decorrelated stream sequences.
[[nodiscard]] constexpr std::uint64_t shard_workload_seed(std::uint64_t workload_seed,
                                                          std::uint32_t shard) {
  return derive_seed(workload_seed ^ shard, 0x53484152ULL /* "SHAR" */);
}

/// Per-stream seed within a shard, keyed by the shard-local ordinal (the
/// stream's position among the shard's streams in spec order).
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t shard_seed,
                                                  std::uint32_t ordinal) {
  return derive_seed(shard_seed, ordinal);
}

}  // namespace sst::experiment
