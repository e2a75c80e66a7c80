// Mixed workload: sequential playout streams sharing a disk with random
// small-request traffic (metadata, thumbnails, ...). The classifier must
// route only the sequential runs into the stream scheduler; random
// requests pass straight through to the disk. This exercises the paper's
// §4.1 classification machinery under contention.
//
// Usage: ./build/examples/mixed_workload [seq=16] [rand=8]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "node/storage_node.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

using namespace sst;

int main(int argc, char** argv) {
  auto parsed = Config::from_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", parsed.error().message.c_str());
    return 1;
  }
  ConfigReader in(parsed.value());
  const auto n_seq = static_cast<std::uint32_t>(in.get_int("seq", 16));
  const auto n_rand = static_cast<std::uint32_t>(in.get_int("rand", 8));
  if (!in.status().ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", in.status().error().message.c_str());
    return 1;
  }

  sim::Simulator simulator;
  node::StorageNode node(simulator, node::NodeConfig::base());

  core::SchedulerParams params;
  params.read_ahead = 2 * MiB;
  params.memory_budget = 128 * MiB;
  auto server = node.make_server(params);
  workload::RequestSink sink = [&server](core::ClientRequest req) {
    server->submit(std::move(req));
  };

  const Bytes capacity = node.device(0).capacity();
  auto specs = workload::make_uniform_streams(n_seq, 1, capacity, 64 * KiB);
  std::vector<std::unique_ptr<workload::StreamClient>> seq_clients;
  for (const auto& spec : specs) {
    seq_clients.push_back(
        std::make_unique<workload::StreamClient>(simulator, sink, spec, capacity));
  }
  std::vector<std::unique_ptr<workload::RandomClient>> rand_clients;
  for (std::uint32_t i = 0; i < n_rand; ++i) {
    rand_clients.push_back(std::make_unique<workload::RandomClient>(
        simulator, sink, 0, capacity, 8 * KiB, 1, /*seed=*/1000 + i));
  }

  for (auto& c : seq_clients) c->start();
  for (auto& c : rand_clients) c->start();

  simulator.run_until(sec(3));  // warm-up
  for (auto& c : seq_clients) c->begin_measurement();
  for (auto& c : rand_clients) c->begin_measurement();
  const SimTime t0 = simulator.now();
  const SimTime t1 = t0 + sec(12);
  simulator.run_until(t1);

  double seq_mbps = 0.0;
  for (const auto& c : seq_clients) seq_mbps += c->stats().throughput.mbps(t0, t1);
  double rand_mbps = 0.0;
  stats::LatencyHistogram rand_latency;
  for (const auto& c : rand_clients) {
    rand_mbps += c->stats().throughput.mbps(t0, t1);
    rand_latency.merge(c->stats().latency);
  }

  const auto& srv = server->stats();
  const auto& sch = server->scheduler().stats();
  const auto& cls = server->classifier().stats();

  std::printf("mixed workload on one disk: %u sequential + %u random clients\n\n", n_seq,
              n_rand);
  std::printf("  sequential throughput : %7.1f MB/s (scheduled, R = 2 MB)\n", seq_mbps);
  std::printf("  random throughput     : %7.2f MB/s (direct path)\n", rand_mbps);
  std::printf("  random mean latency   : %7.2f ms (p99 %.1f ms)\n\n",
              rand_latency.mean_ms(), rand_latency.p99_ms());
  std::printf("classification:\n");
  std::printf("  requests seen         : %llu\n",
              static_cast<unsigned long long>(srv.requests));
  std::printf("  routed to streams     : %llu\n",
              static_cast<unsigned long long>(srv.sequential_requests));
  std::printf("  direct (random) reads : %llu\n",
              static_cast<unsigned long long>(srv.direct_reads));
  std::printf("  streams detected      : %llu (of %u sequential clients)\n",
              static_cast<unsigned long long>(sch.streams_created), n_seq);
  std::printf("  classifier regions    : %llu allocated, %llu bytes of bitmaps\n",
              static_cast<unsigned long long>(cls.regions_allocated),
              static_cast<unsigned long long>(cls.bitmap_bytes));
  return 0;
}
