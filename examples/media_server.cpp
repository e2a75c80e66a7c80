// Media-server scenario: the workload from the paper's introduction — a
// video-on-demand node that must sustain many constant-bitrate playout
// streams per disk. Each client is an open-loop CBR consumer that requests
// one 64 KB chunk per period (bounded by a small playout buffer of
// outstanding requests); a stream "meets SLA" when it delivers at least
// 95% of its nominal bitrate over the run.
//
// The example admits an increasing number of 4 Mb/s streams onto an 8-disk
// node and reports how many meet SLA with and without the stream
// scheduler — the admission-capacity view of the paper's throughput
// results.
//
// Usage: ./build/examples/media_server [bitrate_mbps=4] [max_streams=1280]
#include <cstdio>
#include <vector>

#include "common/config.hpp"
#include "experiment/runner.hpp"
#include "node/storage_node.hpp"
#include "workload/generator.hpp"

using namespace sst;

namespace {

struct SlaResult {
  std::uint32_t meeting_sla = 0;
  double total_mbps = 0.0;
};

SlaResult run_admission(std::uint32_t streams, double bitrate_bps, bool with_scheduler) {
  experiment::ExperimentConfig ec;
  ec.topology.node = node::NodeConfig::medium();  // 2 controllers x 4 disks
  ec.warmup = sec(3);
  ec.measure = sec(12);
  ec.streams = workload::make_uniform_streams(
      streams, ec.topology.node.total_disks(), ec.topology.node.disk.geometry.capacity, 64 * KiB);
  // CBR pacing: one 64 KB chunk per period, up to 8 chunks buffered.
  const SimTime period = from_seconds(static_cast<double>(64 * KiB) / bitrate_bps);
  for (auto& spec : ec.streams) {
    spec.issue_period = period;
    spec.outstanding = 8;
  }

  if (with_scheduler) {
    // CBR consumers are much slower than the disks, so staged data lives a
    // long time: short residencies (2 x 1 MB covers ~4 s of playout at
    // 4 Mb/s), a staging timeout far above the consumption gap, and the
    // testbed's 1 GB of buffer memory. This is the (D, R, N, M) tuning
    // story of the paper applied to a paced workload.
    core::SchedulerParams p;
    p.dispatch_set_size = ec.topology.node.total_disks();
    p.read_ahead = 1 * MiB;
    p.requests_per_residency = 2;
    p.memory_budget = 1 * GiB;
    p.buffer_timeout = sec(60);
    ec.scheduler = p;
  }

  const auto result = experiment::run_experiment(ec);
  SlaResult out;
  out.total_mbps = result.total_mbps;
  const double need = 0.95 * bitrate_bps / 1e6;  // MB/s per stream
  for (const double mbps : result.stream_mbps) {
    if (mbps >= need) ++out.meeting_sla;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Config::from_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", parsed.error().message.c_str());
    return 1;
  }
  ConfigReader in(parsed.value());
  const double bitrate_mbps = in.get_double("bitrate_mbps", 4.0);
  const auto max_streams = static_cast<std::uint32_t>(in.get_int("max_streams", 1280));
  if (!in.status().ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", in.status().error().message.c_str());
    return 1;
  }
  const double bitrate_bps = bitrate_mbps * 1e6 / 8.0;  // megabit/s -> bytes/s

  std::printf("VoD admission on an 8-disk node, %.1f Mb/s per stream\n", bitrate_mbps);
  std::printf("%8s | %22s | %22s\n", "streams", "raw disks (SLA ok)", "scheduler (SLA ok)");
  std::printf("---------+------------------------+-----------------------\n");
  for (std::uint32_t n = 80; n <= max_streams; n *= 2) {
    const auto raw = run_admission(n, bitrate_bps, false);
    const auto sched = run_admission(n, bitrate_bps, true);
    std::printf("%8u | %5u ok  %7.0f MB/s | %5u ok  %7.0f MB/s\n", n, raw.meeting_sla,
                raw.total_mbps, sched.meeting_sla, sched.total_mbps);
  }
  std::printf("\nA stream meets SLA when it sustains 95%% of its bitrate.\n");
  return 0;
}
