// perfbench: runs one benchmark workload and prints its metrics as
// one JSON object on the last line of standard output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--data-dir DIR]
//
// --trace 0 measures the end-to-end metrics: the workload's config is run
// through the public entry point (experiment::run_experiment, which also
// dispatches backend.kind=real to run_experiment_real) repeatedly for S
// seconds, and each metric is the median over those reps. --trace 1 gives
// the per-layer metrics: untraced and traced reps alternate for S seconds
// (traced = the benchmark's own decorated stack, see traced.hpp) and each
// per-layer metric is the median over the traced reps. Output checks run in
// both modes; any failure is listed under "failures", sets "correct" to
// false and makes the exit code 1 after the JSON is printed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "experiment/runner.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Zero-length experiment calls per setup_s sample on sim (one on real).
constexpr int kSimSetupBatch = 20;
/// The real backend answers a read the server sends down its direct path
/// without transferring data (README.md, "Program defects seen"). Each lap
/// of a stream's region costs three such reads, 3 in 96 here; a larger
/// share fails the run, and the figures count only requests given data.
constexpr double kMaxUndeliveredShare = 0.04;
/// Fewest reps a run reports on, even past --seconds.
constexpr std::size_t kMinReps = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Empirical quantile q of `v`, linear between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::map<std::string, std::string> details;  ///< preformatted JSON values
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    if (std::find(failures.begin(), failures.end(), why) == failures.end()) {
      failures.push_back(why);
    }
  }
  void detail(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    details[key] = buf;
  }
  void detail(const std::string& key, const std::string& s) { details[key] = "\"" + s + "\""; }
  void detail(const std::string& key, const std::vector<double>& v) {
    std::string list = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
      list += buf;
    }
    details[key] = list + "]";
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_report(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (i ? ", " : "") + std::string("\"") + r.metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(r.failures[i]) + "\"";
  }
  out += "], \"details\": {";
  bool first = true;
  for (const auto& [key, value] : r.details) {
    out += (first ? "\"" : ", \"") + key + "\": " + value;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// One untraced rep through the public entry point.
struct Rep {
  double host_s = 0.0;
  double cpu_s = 0.0;
  sst::experiment::ExperimentResult result;
};

Rep run_rep(const sst::experiment::ExperimentConfig& cfg) {
  Rep rep;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  rep.result = sst::experiment::run_experiment(cfg);
  rep.host_s = seconds_since(t0);
  rep.cpu_s = cpu_seconds() - cpu0;
  return rep;
}

/// Real only: the share of the server's requests it sent straight to a
/// device without a buffer (its direct path, and reads behind a stream's
/// prefetch cursor). The real backend completes those without reading.
double undelivered_share(const sst::experiment::ExperimentResult& res) {
  const double direct = static_cast<double>(res.server_stats.direct_reads +
                                            res.scheduler_stats.fallback_direct_reads);
  const double requests = static_cast<double>(res.server_stats.requests);
  return requests > 0 ? direct / requests : 1.0;
}

/// Count an untraced rep's requests and run the checks every rep must pass.
void check_rep(const Workload& w, const Rep& rep, const std::string& first_digest,
               Report& report) {
  const auto& res = rep.result;
  report.attempted += res.requests_completed + res.client_errors;
  report.failed += res.client_errors;
  if (res.requests_completed == 0) report.fail("a rep completed no client requests");
  if (res.client_errors != 0) report.fail("client_errors != 0");
  if (res.staging_stats.bytes_copied != 0) report.fail("staging.bytes_copied != 0");
  if (!is_real(w.kind)) {
    const std::string digest = sim_digest(res.total_mbps, res.requests_completed, res.latency,
                                          res.client_errors, res.sim_events_dispatched);
    if (digest != first_digest) report.fail("sim results differ between reps of one seed");
    return;
  }
  if (res.uring_summary.errors != 0) report.fail("uring.errors != 0");
  if (undelivered_share(res) > kMaxUndeliveredShare) {
    report.fail("more than 4 % of the server's requests took a path that delivers no data");
  }
  const auto& per_device = res.uring_summary.per_device_completed;
  if (per_device.empty()) {
    report.fail("real run reported no devices");
  } else {
    const auto [lo, hi] = std::minmax_element(per_device.begin(), per_device.end());
    if (*lo == 0 || static_cast<double>(*lo) < 0.5 * static_cast<double>(*hi)) {
      report.fail("device completion shares are unbalanced");
    }
  }
}

std::string digest_of(const Rep& rep) {
  const auto& res = rep.result;
  return sim_digest(res.total_mbps, res.requests_completed, res.latency, res.client_errors,
                    res.sim_events_dispatched);
}

/// One setup_s sample: the host time of an experiment call with a
/// zero-length warm-up and measurement window — building the stack (sim:
/// node, controllers, disks, clients; real: file slices, io_uring rings,
/// buffer registration, reactor threads, clients), starting the clients,
/// draining what they issued and tearing it all down. Sim calls take a
/// tenth of a millisecond, so a sim sample is the mean of a batch.
double setup_sample(const Workload& w) {
  sst::experiment::ExperimentConfig cfg = w.config;
  cfg.warmup = 0;
  cfg.measure = 0;
  const int batch = is_real(w.kind) ? 1 : kSimSetupBatch;
  const auto t0 = Clock::now();
  for (int i = 0; i < batch; ++i) (void)sst::experiment::run_experiment(cfg);
  return seconds_since(t0) / batch;
}

/// --trace 0: the end-to-end metrics.
void measure_end_to_end(const Workload& w, double seconds, Report& report) {
  const bool real = is_real(w.kind);
  const double measure_s = sst::to_seconds(w.config.measure);
  std::vector<double> rate, mbps, host_ms, p50, p99, cpu_per_gb, undelivered, setup;
  std::string first_digest;
  sst::stats::LatencyHistogram latency;  // client-observed, all reps
  const auto start = Clock::now();
  while (rate.size() < kMinReps || seconds_since(start) < seconds) {
    const Rep rep = run_rep(w.config);
    // A setup sample after every rep sees the host the reps see: a run's
    // speed changes with the core it lands on, and more so for set-up.
    setup.push_back(setup_sample(w));
    const auto& res = rep.result;
    if (first_digest.empty()) first_digest = digest_of(rep);
    check_rep(w, rep, first_digest, report);
    latency.merge(res.latency);
    host_ms.push_back(rep.host_s * 1e3);
    if (real) {
      // The clock is the host's, so the measurement window is host time.
      // Only requests given data count: the server's data-less completions
      // are taken out at their share of its requests.
      const double delivered = 1.0 - undelivered_share(res);
      const double client_mb = res.total_mbps * measure_s * delivered;
      rate.push_back(static_cast<double>(res.requests_completed) * delivered / measure_s);
      mbps.push_back(client_mb / measure_s);
      p50.push_back(res.latency.p50_ms());
      p99.push_back(res.latency.p99_ms());
      cpu_per_gb.push_back(client_mb > 0 ? rep.cpu_s / (client_mb / 1e3) : 0.0);
      undelivered.push_back(1.0 - delivered);
    } else {
      // Simulated client work per host second of the experiment call.
      const double client_mb = res.total_mbps * measure_s;
      rate.push_back(static_cast<double>(res.requests_completed) / rep.host_s);
      mbps.push_back(client_mb / rep.host_s);
      cpu_per_gb.push_back(client_mb > 0 ? rep.cpu_s / (client_mb / 1e3) : 0.0);
    }
  }
  report.metrics.push_back({"requests_per_host_s", median(rate), "1/s"});
  report.metrics.push_back({"client_mbps", median(mbps), "MB/s"});
  if (real) {
    // Client-observed latency: the median over reps of each rep's quantile.
    report.metrics.push_back({"latency_p50_ms", median(p50), "ms"});
    report.metrics.push_back({"latency_p99_ms", median(p99), "ms"});
  } else {
    // A simulated client's latency is a result of the reproduction, not a
    // cost; what a user of the simulator waits for is the experiment call.
    report.metrics.push_back({"latency_p50_ms", median(host_ms), "ms"});
    report.metrics.push_back({"latency_p99_ms", quantile(host_ms, 0.99), "ms"});
  }
  report.metrics.push_back({"cpu_s_per_gb", median(cpu_per_gb), "s/GB"});
  report.metrics.push_back({"setup_s", median(setup), "s"});
  report.detail("setup_samples_s", setup);
  report.detail("reps", static_cast<double>(rate.size()));
  report.detail("rep_host_ms", host_ms);
  report.detail("rep_requests_per_host_s", rate);
  report.detail("latency_samples",
                real ? static_cast<double>(latency.count()) : static_cast<double>(rate.size()));
  if (real) {
    report.detail("rep_p99_ms", p99);
    report.detail("rep_p50_ms", p50);
    report.detail("rep_undelivered_share", undelivered);
  } else {
    report.detail("digest", first_digest);
  }
}

/// --trace 1: the per-layer metrics, the tracing overhead and the
/// steady-state allocations per request.
void measure_layers(const Workload& w, double seconds, const std::string& span_path,
                    Report& report) {
  const bool real = is_real(w.kind);
  const double measure_s = sst::to_seconds(w.config.measure);

  // Steady-state allocations: the difference between a rep and one with a
  // twice-as-long measurement window, per extra client request, so set-up
  // and warm-up allocations cancel out.
  sst::experiment::ExperimentConfig longer = w.config;
  longer.measure *= 2;
  const std::uint64_t a0 = allocation_count();
  const Rep shorter_rep = run_rep(w.config);
  const std::uint64_t a1 = allocation_count();
  const Rep longer_rep = run_rep(longer);
  const std::uint64_t a2 = allocation_count();
  const double extra_requests = static_cast<double>(longer_rep.result.requests_completed) -
                                static_cast<double>(shorter_rep.result.requests_completed);
  const double extra_allocs = static_cast<double>(a2 - a1) - static_cast<double>(a1 - a0);
  const double allocs_per_request = extra_requests > 0 ? extra_allocs / extra_requests : 0.0;
  const std::string first_digest = digest_of(shorter_rep);
  check_rep(w, shorter_rep, first_digest, report);
  check_rep(w, longer_rep, digest_of(longer_rep), report);

  std::vector<LayerValue> order;  // names and units, from the first traced rep
  std::map<std::string, std::vector<double>> per_layer;
  std::vector<double> overhead, events_per_host_s;
  std::uint64_t spans = 0;
  std::uint64_t spans_kept = 0;
  std::uint64_t verified_bytes = 0;
  std::uint64_t undelivered = 0;
  const auto start = Clock::now();
  while (overhead.size() < kMinReps || seconds_since(start) < seconds) {
    const Rep untraced = run_rep(w.config);
    check_rep(w, untraced, first_digest, report);
    const TracedRun traced = run_traced(w, span_path);
    for (const std::string& f : traced.failures) report.fail(f);
    report.attempted += traced.requests;
    if (real && static_cast<double>(traced.undelivered_requests) >
                    kMaxUndeliveredShare * static_cast<double>(traced.requests)) {
      report.fail("traced run: more than 4 % of client requests were completed without data");
    }
    if (real) {
      // Wall-clock runs do a fixed time, not a fixed amount of work: compare
      // client requests per second inside the measurement window.
      const double untraced_rate =
          static_cast<double>(untraced.result.requests_completed) / measure_s;
      const double traced_rate = static_cast<double>(traced.measured_requests) / measure_s;
      overhead.push_back(traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0);
      events_per_host_s.push_back(0.0);
    } else {
      if (traced.digest != first_digest) {
        report.fail("traced stack's simulated results differ from run_experiment's");
      }
      overhead.push_back(traced.wall_s / untraced.host_s - 1.0);
      events_per_host_s.push_back(
          static_cast<double>(untraced.result.sim_events_dispatched) / untraced.host_s);
    }
    if (order.empty()) order = traced.metrics;
    for (const LayerValue& v : traced.metrics) per_layer[v.name].push_back(v.value);
    spans = traced.spans;
    spans_kept = traced.spans_kept;
    verified_bytes += traced.verified_bytes;
    undelivered += traced.undelivered_requests;
  }
  report.metrics.push_back({"sim.events_per_host_s", median(events_per_host_s), "1/s"});
  for (const LayerValue& v : order) {
    report.metrics.push_back({v.name, median(per_layer[v.name]), v.unit});
  }
  report.metrics.push_back({"experiment.allocs_per_request", allocs_per_request, "count"});
  report.metrics.push_back({"trace.overhead_ratio", median(overhead), "ratio"});
  report.detail("traced_reps", static_cast<double>(overhead.size()));
  report.detail("spans_last_rep", static_cast<double>(spans));
  report.detail("spans_written", static_cast<double>(spans_kept));
  report.detail("span_file", span_path);
  if (real) {
    report.detail("verified_bytes", static_cast<double>(verified_bytes));
    report.detail("undelivered_requests", static_cast<double>(undelivered));
  }
  if (!real) report.detail("digest", first_digest);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--data-dir DIR]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string data_dir = ".bench_build/data";
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = parse_u64(value, "--seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = parse_u64(value, "--seconds");
    } else if (arg == "--trace") {
      trace = static_cast<int>(parse_u64(value, "--trace"));
    } else if (arg == "--data-dir") {
      data_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const auto kind = parse_kind(workload_name);
  if (!kind) usage(("unknown workload '" + workload_name + "'").c_str());
  if (!have_seed || seconds == 0 || (trace != 0 && trace != 1)) {
    usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  if (is_real(*kind) && !sst::experiment::real_backend_available()) {
    std::fprintf(stderr,
                 "perfbench: skipping %s: this build has no io_uring backend "
                 "(linux/io_uring.h was not found at configure time)\n",
                 workload_name.c_str());
    return 3;
  }
  const std::string span_path =
      data_dir + "/spans-" + workload_name + "-" + std::to_string(seed) + ".csv";
  const std::string data_path = data_dir + "/real-" + std::to_string(seed) + ".bin";

  Report report;
  try {
    // The inputs: the config from the seed and, for the real workload, the
    // pattern file it reads.
    const Workload w = make_workload(*kind, seed, data_path);
    if (is_real(*kind)) {
      write_pattern_file(data_path, w.pattern_seed, w.file_bytes);
      if (!pattern_self_test(w.pattern_seed)) {
        report.fail("the benchmark's pattern generator disagrees with blockdev::pattern_byte");
      }
    }

    if (trace == 0) {
      measure_end_to_end(w, static_cast<double>(seconds), report);
      report.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    } else {
      measure_layers(w, static_cast<double>(seconds), span_path, report);
    }
    if (is_real(*kind)) std::remove(data_path.c_str());
  } catch (const std::exception& e) {
    std::remove(data_path.c_str());
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (report.attempted == 0) report.fail("no client request was attempted");
  print_report(report);
  return report.failures.empty() ? 0 : 1;
}
