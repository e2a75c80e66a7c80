// Multi-reactor real-I/O microbench: the same 4-device sequential-stream
// workload through run_experiment (backend.kind=real) at backend.reactors =
// 1 and 2, so the reactor-scaling claim ("aggregate throughput grows when the
// device groups split across threads") gets a number instead of an anecdote.
//
// Requires a build with -DSST_WITH_URING=ON and a pattern-formatted
// backing file (scripts/mkpattern.py); exits 2 without the backend and 1
// on a missing/undersized file or a failed run, writing the JSON report
// either way (the rows that ran plus an "error" field). Results are
// machine- and disk-dependent:
// the JSON report is a CI artifact, not a gated baseline, and the 1 -> 2
// reactor scaling floor is only enforced on hosts with >= 4 cores (below
// that the second reactor has no core to run on and the ratio is noise).
//
//   uring_parallel --file PATH [--out FILE] [--streams N]
//                  [--request BYTES] [--measure-ms MS] [--min-scaling X]
//
//   --file PATH        backing file, carved into 4 device slices
//   --out FILE         JSON report path (default BENCH_uring_parallel.json)
//   --streams N        total sequential streams (default 32)
//   --request BYTES    request size (default 65536)
//   --measure-ms MS    measurement window per run (default 2000)
//   --min-scaling X    fail (exit 1) when mbps(2 reactors) / mbps(1) < X
//                      on a >= 4-core host (default 0: report only)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "experiment/runner.hpp"
#include "node/storage_node.hpp"
#include "obs/metrics.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sst;

constexpr std::uint32_t kDevices = 4;

struct RunRow {
  std::uint32_t reactors = 1;
  double mbps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double syscalls_per_request = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t spurious = 0;
  std::vector<std::uint64_t> device_completed;
};

experiment::ExperimentConfig make_config(const std::string& file, Bytes span,
                                         std::uint32_t streams, Bytes request,
                                         SimTime measure) {
  node::NodeConfig node = node::NodeConfig::base();
  node.num_controllers = kDevices;
  node.disks_per_controller = 1;
  experiment::ExperimentConfig cfg;
  cfg.topology.node = node;
  cfg.warmup = msec(250);
  cfg.measure = measure;
  cfg.streams = workload::make_uniform_streams(streams, kDevices, span, request);
  core::SchedulerParams sched;
  Bytes ra = span / (streams / kDevices + 1);
  if (ra > 8 * MiB) ra = 8 * MiB;
  if (ra < request) ra = request;
  ra = ra / request * request;
  sched.read_ahead = ra;
  sched.memory_budget = static_cast<Bytes>(streams) * ra;
  sched.dispatch_set_size = 0;  // memory-derived
  cfg.scheduler = sched;
  cfg.backend.kind = experiment::BackendConfig::Kind::kReal;
  cfg.backend.path = file;
  return cfg;
}

RunRow run_one(experiment::ExperimentConfig cfg, std::uint32_t reactors) {
  cfg.backend.reactors = reactors;
  const auto result = experiment::run_experiment(cfg);
  RunRow row;
  row.reactors = reactors;
  row.mbps = result.total_mbps;
  row.p50_ms = result.latency.p50_ms();
  row.p99_ms = result.latency.p99_ms();
  row.syscalls_per_request = result.uring_summary.syscalls_per_request();
  row.requests = result.requests_completed;
  row.wakeups = result.reactor_summary.wakeups;
  row.spurious = result.reactor_summary.spurious_wakeups;
  row.device_completed = result.uring_summary.per_device_completed;
  return row;
}

/// Write the JSON report: every row that ran, and an "error" field when an
/// input check or a run failed. False when the file can't be opened.
bool write_report(const std::string& out_path, const std::string& file, std::uint32_t streams,
                  Bytes request, SimTime measure, unsigned cores, double scaling,
                  const std::vector<RunRow>& rows, const std::string& error) {
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "uring_parallel: cannot open %s\n", out_path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n  \"file\": \"%s\",\n  \"devices\": %u,\n  \"streams\": %u,\n"
               "  \"request\": %llu,\n  \"measure_ms\": %.0f,\n"
               "  \"host_cores\": %u,\n  \"scaling_1_to_2\": %.4f,\n",
               obs::json_escaped(file).c_str(), kDevices, streams,
               static_cast<unsigned long long>(request), to_millis(measure), cores, scaling);
  if (!error.empty()) {
    std::fprintf(out, "  \"error\": \"%s\",\n", obs::json_escaped(error).c_str());
  }
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(out,
                 "    {\"reactors\": %u, \"mbps\": %.3f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"syscalls_per_request\": %.4f, "
                 "\"requests\": %llu, \"wakeups\": %llu, \"spurious\": %llu, "
                 "\"device_completed\": [",
                 row.reactors, row.mbps, row.p50_ms, row.p99_ms,
                 row.syscalls_per_request,
                 static_cast<unsigned long long>(row.requests),
                 static_cast<unsigned long long>(row.wakeups),
                 static_cast<unsigned long long>(row.spurious));
    for (std::size_t d = 0; d < row.device_completed.size(); ++d) {
      std::fprintf(out, "%s%llu", d ? ", " : "",
                   static_cast<unsigned long long>(row.device_completed[d]));
    }
    std::fprintf(out, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::string out_path = "BENCH_uring_parallel.json";
  std::uint32_t streams = 32;
  Bytes request = 64 * KiB;
  SimTime measure = msec(2000);
  double min_scaling = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "uring_parallel: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--file") {
      file = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--streams") {
      streams = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--request") {
      request = static_cast<Bytes>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--measure-ms") {
      measure = msec(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--min-scaling") {
      min_scaling = std::strtod(next(), nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: uring_parallel --file PATH [--out FILE] [--streams N] "
                   "[--request BYTES] [--measure-ms MS] [--min-scaling X]\n");
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::vector<RunRow> rows;
  // Every failure past argument parsing still leaves a report behind.
  auto fail = [&](int code, const std::string& error) {
    std::fprintf(stderr, "uring_parallel: %s\n", error.c_str());
    write_report(out_path, file, streams, request, measure, cores, 0.0, rows, error);
    return code;
  };
  if (!experiment::real_backend_available()) {
    return fail(2, "needs a build with -DSST_WITH_URING=ON");
  }
  if (file.empty() || streams < kDevices || request == 0 ||
      request % kSectorSize != 0) {
    return fail(1, "--file is required, streams must be >= " + std::to_string(kDevices) +
                       " and request a positive multiple of " +
                       std::to_string(kSectorSize));
  }
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(file, ec);
  if (ec || file_size / kDevices < request * (streams / kDevices + 1)) {
    return fail(1, file + " missing or too small for " + std::to_string(kDevices) +
                       " device slices (format it with scripts/mkpattern.py)");
  }
  // Per-device slice, truncated to whole requests: the span every stream's
  // offsets stay inside regardless of which device homes it.
  const Bytes span = static_cast<Bytes>(file_size) / kDevices / request * request;

  const experiment::ExperimentConfig cfg =
      make_config(file, span, streams, request, measure);
  for (const std::uint32_t reactors : {1u, 2u}) {
    try {
      rows.push_back(run_one(cfg, reactors));
    } catch (const std::exception& err) {
      return fail(1, std::to_string(reactors) + "-reactor run failed: " + err.what());
    }
  }

  const double scaling = rows[0].mbps > 0 ? rows[1].mbps / rows[0].mbps : 0.0;
  std::printf("== uring_parallel (%u devices, %u streams, %llu B requests) ==\n",
              kDevices, streams, static_cast<unsigned long long>(request));
  for (const auto& row : rows) {
    std::printf(
        "%u reactor%s : %8.1f MB/s  p50 %7.3f ms  p99 %7.3f ms  "
        "%.3f enters/req  %llu spurious wakeups\n",
        row.reactors, row.reactors == 1 ? " " : "s", row.mbps, row.p50_ms,
        row.p99_ms, row.syscalls_per_request,
        static_cast<unsigned long long>(row.spurious));
  }
  std::printf("1 -> 2 reactor scaling: %.2fx (%u cores)\n", scaling, cores);
  if (!write_report(out_path, file, streams, request, measure, cores, scaling, rows, "")) {
    return 1;
  }

  if (cores >= 4 && min_scaling > 0.0 && scaling < min_scaling) {
    std::fprintf(stderr,
                 "uring_parallel: FAIL: 1 -> 2 reactor scaling %.2fx below the "
                 "%.2fx floor on a %u-core host\n",
                 scaling, min_scaling, cores);
    return 1;
  }
  if (cores < 4) {
    std::printf("uring_parallel: only %u cores, scaling floor not enforced\n",
                cores);
  }
  return 0;
}
