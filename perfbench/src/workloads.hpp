// Benchmark workloads: each is one ExperimentConfig (one "rep") generated
// from the benchmark's --seed. The seed picks every stream's start offset
// (jittered inside its share of the device) and, for sim-raw-mixed, which
// stream on each disk writes; the program itself only ever sees the
// generated config.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "experiment/runner.hpp"
#include "stats/histogram.hpp"

namespace perfbench {

enum class Kind : std::uint8_t { kSimRawMixed, kRealStaged };

[[nodiscard]] std::optional<Kind> parse_kind(std::string_view name);
[[nodiscard]] const char* kind_name(Kind kind);
[[nodiscard]] inline bool is_real(Kind kind) { return kind == Kind::kRealStaged; }

struct Workload {
  Kind kind = Kind::kSimRawMixed;
  sst::experiment::ExperimentConfig config;
  /// Real only: content seed of the backing file (blockdev::pattern_byte
  /// over absolute file offsets) and its size.
  std::uint64_t pattern_seed = 0;
  sst::Bytes file_bytes = 0;
};

/// The workload's config for `seed`. Real workloads read `data_path`.
[[nodiscard]] Workload make_workload(Kind kind, std::uint64_t seed,
                                     const std::string& data_path);

/// Fill `path` with the blockdev pattern for `seed` (the same bytes
/// scripts/mkpattern.py writes). Throws std::runtime_error on I/O failure.
void write_pattern_file(const std::string& path, std::uint64_t seed, sst::Bytes bytes);

/// Word-wise equivalent of blockdev::check_pattern over [offset, +length).
[[nodiscard]] bool pattern_matches(std::uint64_t seed, sst::ByteOffset offset,
                                   const std::byte* data, sst::Bytes length);

/// Cross-check the word-wise pattern generator against
/// blockdev::pattern_byte at seeded offsets; false = they disagree.
[[nodiscard]] bool pattern_self_test(std::uint64_t seed);

/// Digest of a simulated run's results: throughput, request count, latency
/// quantiles, client errors and event count. Equal digests = the same
/// simulated outcome.
[[nodiscard]] std::string sim_digest(double total_mbps, std::uint64_t requests,
                                     const sst::stats::LatencyHistogram& latency,
                                     std::uint64_t client_errors, std::uint64_t events);

}  // namespace perfbench
