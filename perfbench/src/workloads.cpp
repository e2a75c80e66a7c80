#include "workloads.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/random.hpp"

namespace perfbench {

using namespace sst;

namespace {

/// One rep of sim-raw-mixed: the paper's Fig. 1 collapse (many 8 KiB
/// sequential streams straight onto raw devices, no scheduler) with one
/// writer per disk beside the readers.
constexpr std::uint32_t kRawControllers = 4;
constexpr std::uint32_t kRawDisksPerController = 4;
constexpr std::uint32_t kRawStreamsPerDisk = 5;
constexpr Bytes kRawRequest = 8 * KiB;
constexpr SimTime kRawWarmup = msec(250);
constexpr SimTime kRawMeasure = msec(1750);

/// One rep of real-staged-pagecache: the same server code on the wall clock,
/// io_uring rings over a page-cached pattern file inside the checkout.
constexpr std::uint32_t kRealDevices = 4;
constexpr std::uint32_t kRealStreamsPerDevice = 16;
constexpr Bytes kRealRequest = 64 * KiB;
constexpr Bytes kRealReadAhead = 1 * MiB;
/// Each stream's region is 3/256 of the file (6 MiB, 96 requests). Every
/// lap back to a region's start costs the three requests that re-detect the
/// stream, and on the real backend those carry no data (see README.md), so
/// the file is as large as a page-cached input can reasonably be.
constexpr Bytes kRealFileBytes = 512 * MiB;
constexpr std::uint32_t kRealQueueDepth = 32;
constexpr std::uint32_t kRealReactors = 2;
constexpr SimTime kRealWarmup = msec(200);
constexpr SimTime kRealMeasure = msec(1000);

/// Jittered uniform placement: the device is cut into one equal share per
/// stream; each stream reads its own region of three quarters of its share,
/// starting at a seed-drawn request-aligned offset inside the share, and
/// wraps back to that start at the region's end. Streams keep the paper's
/// spread, never overlap, and every seed places them differently. As in
/// workload::make_uniform_streams, consecutive streams go round-robin over
/// the devices (stream i on device i % devices), which is the order the
/// scheduler meets them in.
std::vector<workload::StreamSpec> place_streams(Rng& rng, std::uint32_t devices,
                                                std::uint32_t per_device, Bytes capacity,
                                                Bytes request) {
  std::vector<workload::StreamSpec> streams;
  streams.reserve(static_cast<std::size_t>(devices) * per_device);
  const Bytes share = capacity / per_device / request * request;
  const Bytes region = share / 4 * 3 / request * request;
  const Bytes start_slots = (share - region) / request + 1;
  for (std::uint32_t k = 0; k < per_device; ++k) {
    for (std::uint32_t d = 0; d < devices; ++d) {
      workload::StreamSpec spec;
      spec.device = d;
      spec.start_offset = k * share + rng.next_below(start_slots) * request;
      spec.region_bytes = region;
      spec.request_size = request;
      spec.outstanding = 1;  // closed loop: one request in flight per stream
      streams.push_back(spec);
    }
  }
  return streams;
}

experiment::ExperimentConfig sim_raw_mixed(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x5241574DULL /* "RAWM" */));
  experiment::ExperimentConfig cfg;
  cfg.topology.node.num_controllers = kRawControllers;
  cfg.topology.node.disks_per_controller = kRawDisksPerController;
  const std::uint32_t disks = cfg.topology.node.total_disks();
  cfg.streams = place_streams(rng, disks, kRawStreamsPerDisk,
                              cfg.topology.node.disk.geometry.capacity, kRawRequest);
  for (std::uint32_t d = 0; d < disks; ++d) {
    const std::uint64_t writer = rng.next_below(kRawStreamsPerDisk);
    cfg.streams[writer * disks + d].op = IoOp::kWrite;
  }
  cfg.workload_seed = seed;
  cfg.warmup = kRawWarmup;
  cfg.measure = kRawMeasure;
  return cfg;
}

experiment::ExperimentConfig real_staged(std::uint64_t seed, const std::string& path) {
  Rng rng(derive_seed(seed, 0x5245414CULL /* "REAL" */));
  experiment::ExperimentConfig cfg;
  cfg.topology.node.num_controllers = 1;
  cfg.topology.node.disks_per_controller = kRealDevices;
  // Offsets are drawn inside the per-device slice the real runner carves
  // out of the file, so its capacity folding leaves them unchanged.
  const Bytes slice = kRealFileBytes / kRealDevices / 4096 * 4096;
  cfg.streams = place_streams(rng, kRealDevices, kRealStreamsPerDevice, slice, kRealRequest);
  core::SchedulerParams params;
  params.read_ahead = kRealReadAhead;
  params.requests_per_residency = 1;
  // Every stream dispatched (D*R*N = 64 MiB) plus as much again for data
  // staged ahead of the clients. With M = D*R*N exactly, the read-ahead a
  // stream leaves unread past its region end on every lap pins M until the
  // buffer timeout, and whole reps complete nothing.
  params.dispatch_set_size = static_cast<std::uint32_t>(cfg.streams.size());
  params.memory_budget = 2 * static_cast<Bytes>(cfg.streams.size()) * kRealReadAhead;
  // No modelled host CPU: the real CPU is the cost here. A modelled cost
  // becomes a wall-clock timer per issue and completion, and the reactor's
  // wake-up for it dominated the client latency.
  params.host.issue_base = 0;
  params.host.complete_base = 0;
  params.host.per_buffer = 0;
  cfg.scheduler = params;
  cfg.workload_seed = seed;
  cfg.warmup = kRealWarmup;
  cfg.measure = kRealMeasure;
  cfg.backend.kind = experiment::BackendConfig::Kind::kReal;
  cfg.backend.path = path;
  cfg.backend.queue_depth = kRealQueueDepth;
  cfg.backend.direct = false;  // page-cached file: buffered reads
  cfg.backend.reactors = kRealReactors;
  return cfg;
}

/// The eight pattern bytes of the 8-aligned word at `word_offset`:
/// blockdev::pattern_byte hashes offset/8 and takes byte offset%8 of it.
std::uint64_t pattern_word(std::uint64_t seed, ByteOffset word_offset) {
  std::uint64_t x = seed ^ (word_offset / 8);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;  // little-endian byte order == pattern_byte's shift order
}

}  // namespace

std::optional<Kind> parse_kind(std::string_view name) {
  for (const Kind kind : {Kind::kSimRawMixed, Kind::kRealStaged}) {
    if (name == kind_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSimRawMixed: return "sim-raw-mixed";
    case Kind::kRealStaged: return "real-staged-pagecache";
  }
  return "?";
}

Workload make_workload(Kind kind, std::uint64_t seed, const std::string& data_path) {
  Workload w;
  w.kind = kind;
  switch (kind) {
    case Kind::kSimRawMixed: w.config = sim_raw_mixed(seed); break;
    case Kind::kRealStaged:
      w.config = real_staged(seed, data_path);
      w.pattern_seed = derive_seed(seed, 0x50415454ULL /* "PATT" */);
      w.file_bytes = kRealFileBytes;
      break;
  }
  return w;
}

bool pattern_matches(std::uint64_t seed, ByteOffset offset, const std::byte* data,
                     Bytes length) {
  Bytes i = 0;
  // Unaligned head and tail byte by byte; whole words in between.
  for (; i < length && (offset + i) % 8 != 0; ++i) {
    if (data[i] != blockdev::pattern_byte(seed, offset + i)) return false;
  }
  for (; i + 8 <= length; i += 8) {
    const std::uint64_t want = pattern_word(seed, offset + i);
    std::uint64_t got = 0;
    std::memcpy(&got, data + i, 8);
    if (got != want) return false;
  }
  for (; i < length; ++i) {
    if (data[i] != blockdev::pattern_byte(seed, offset + i)) return false;
  }
  return true;
}

bool pattern_self_test(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x53454C46ULL /* "SELF" */));
  std::byte word[8];
  for (int trial = 0; trial < 4096; ++trial) {
    const ByteOffset at = rng.next_below(1ULL << 40) / 8 * 8;
    const std::uint64_t x = pattern_word(seed, at);
    std::memcpy(word, &x, 8);
    for (ByteOffset b = 0; b < 8; ++b) {
      if (word[b] != blockdev::pattern_byte(seed, at + b)) return false;
    }
  }
  return true;
}

void write_pattern_file(const std::string& path, std::uint64_t seed, Bytes bytes) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "wb"),
                                                       &std::fclose);
  if (!file) throw std::runtime_error("cannot create " + path + ": " + std::strerror(errno));
  constexpr Bytes kChunk = 4 * MiB;
  std::vector<std::uint64_t> chunk(kChunk / 8);
  if (bytes % 8 != 0) throw std::runtime_error("pattern file size must be a multiple of 8");
  for (Bytes done = 0; done < bytes; done += kChunk) {
    const Bytes n = std::min(kChunk, bytes - done);
    for (std::size_t w = 0; w < n / 8; ++w) chunk[w] = pattern_word(seed, done + w * 8);
    if (std::fwrite(chunk.data(), 1, n, file.get()) != n) {
      throw std::runtime_error("short write to " + path);
    }
  }
  if (std::fflush(file.get()) != 0) throw std::runtime_error("cannot flush " + path);
}

std::string sim_digest(double total_mbps, std::uint64_t requests,
                       const stats::LatencyHistogram& latency, std::uint64_t client_errors,
                       std::uint64_t events) {
  char text[256];
  std::snprintf(text, sizeof text,
                "mbps=%.6f requests=%" PRIu64 " p50=%.6f p99=%.6f p999=%.6f errors=%" PRIu64
                " events=%" PRIu64,
                total_mbps, requests, latency.p50_ms(), latency.p99_ms(), latency.p999_ms(),
                client_errors, events);
  // FNV-1a over the canonical text.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char* c = text; *c != '\0'; ++c) {
    h ^= static_cast<unsigned char>(*c);
    h *= 0x100000001B3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

}  // namespace perfbench
