// The traced run: the benchmark rebuilds a workload's stack from the
// layers' public constructors (StorageNode, StorageServer, StreamClient,
// Simulator / RealContext + UringBlockDevice) and wraps every public
// boundary in its own decorators — the client RequestSink, BlockDevice
// submit, the IoCompletion callbacks, the execution contexts' scheduled
// tasks and the Simulator/RealContext run calls. Each decorator records a
// span (name, start, end, parent, request id); a layer's self time is its
// spans' time minus their children's. Nothing inside the program changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct LayerValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedRun {
  /// Wall time of the traced run summed over its threads (one per reactor).
  double wall_s = 0.0;
  /// Client requests completed over the whole traced run.
  std::uint64_t requests = 0;
  /// Client requests completed inside the measurement window, and its
  /// length in seconds (the real workload's rate base).
  std::uint64_t measured_requests = 0;
  double measure_s = 0.0;
  /// Per-layer metrics computed from spans and layer counters, in order.
  std::vector<LayerValue> metrics;
  /// Output checks that failed (empty = all passed).
  std::vector<std::string> failures;
  /// Sim only: digest of the simulated results, comparable to
  /// sim_digest() of run_experiment on the same config.
  std::string digest;
  /// Real only: bytes checked against the file pattern, and requests the
  /// server completed without handing over any bytes (its direct path).
  std::uint64_t verified_bytes = 0;
  std::uint64_t undelivered_requests = 0;
  std::uint64_t spans = 0;       ///< spans recorded
  std::uint64_t spans_kept = 0;  ///< spans written to the span file
};

/// Run `w` once through the traced stack; kept spans go to `span_path` as
/// CSV (name,thread,start_ns,end_ns,parent,rid).
[[nodiscard]] TracedRun run_traced(const Workload& w, const std::string& span_path);

}  // namespace perfbench
