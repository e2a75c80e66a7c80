#include "traced.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "blockdev/block_device.hpp"
#include "core/server.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/sharding.hpp"
#include "node/storage_node.hpp"
#include "sampler.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

#if defined(SST_WITH_URING)
#include "blockdev/uring_block_device.hpp"
#include "exec/real_context.hpp"
#endif

namespace perfbench {

using namespace sst;

namespace {

/// Spans kept per thread for the span file; every span is aggregated.
constexpr std::size_t kKeptSpans = 20000;
/// Sampling period for the controller/disk split.
constexpr unsigned kSampleIntervalUs = 100;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

enum class Layer : std::uint8_t {
  kSim, kExec, kNode, kCore, kWorkload, kBlockdev, kCheck, kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

enum class SpanName : std::uint8_t {
  kRun,             ///< Simulator::run_until / RealContext::run_until
  kNodeEvent,       ///< task scheduled by the storage node (controller, disk)
  kCoreEvent,       ///< task scheduled by the server / stream scheduler
  kWorkloadEvent,   ///< task scheduled by a stream client
  kDeviceSubmit,    ///< BlockDevice::submit
  kDeviceComplete,  ///< the device's IoCompletion callback
  kClientSubmit,    ///< the client's RequestSink
  kClientComplete,  ///< the client request's IoCompletion callback
  kVerify,          ///< the benchmark's own byte verification
  kCount
};
constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
constexpr std::array<const char*, kSpanNames> kSpanText = {
    "run", "node.event", "core.event", "workload.event", "device.submit",
    "device.complete", "client.submit", "client.complete", "verify"};

using LayerMap = std::array<Layer, kSpanNames>;

/// Which layer's code runs as the self time of each span. The sim workload
/// sends client requests straight to the devices; the real one goes through
/// the staged server.
LayerMap layer_map(bool real) {
  LayerMap m{};
  m[static_cast<std::size_t>(SpanName::kRun)] = real ? Layer::kExec : Layer::kSim;
  m[static_cast<std::size_t>(SpanName::kNodeEvent)] = Layer::kNode;
  m[static_cast<std::size_t>(SpanName::kCoreEvent)] = Layer::kCore;
  m[static_cast<std::size_t>(SpanName::kWorkloadEvent)] = Layer::kWorkload;
  // Sim: SimBlockDevice::submit is the controller's command entry (cache
  // lookup/reserve/evict), with the disk's enqueue below it.
  m[static_cast<std::size_t>(SpanName::kDeviceSubmit)] = real ? Layer::kBlockdev : Layer::kNode;
  // Without a server the device completion and the sink are the raw
  // client adapter; with one they are the server's submit / completion path.
  m[static_cast<std::size_t>(SpanName::kDeviceComplete)] = real ? Layer::kCore : Layer::kWorkload;
  m[static_cast<std::size_t>(SpanName::kClientSubmit)] = real ? Layer::kCore : Layer::kWorkload;
  m[static_cast<std::size_t>(SpanName::kClientComplete)] = Layer::kWorkload;
  m[static_cast<std::size_t>(SpanName::kVerify)] = Layer::kCheck;
  return m;
}

/// Per-thread span recorder: open spans live on a stack; closing one adds
/// its self time (duration minus children) to its layer. The first
/// kKeptSpans spans are also kept whole for the span file.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t rid = 0;
    std::uint32_t parent = kNone;
    SpanName name = SpanName::kRun;
  };

  SpanRecorder(LayerMap layers, bool sample_node) : layers_(layers), sample_node_(sample_node) {
    kept_.reserve(kKeptSpans);
    stack_.reserve(64);
  }

  void open(SpanName name, std::uint64_t rid) {
    Open o;
    o.name = name;
    if (kept_.size() < kKeptSpans) {
      o.stored = static_cast<std::uint32_t>(kept_.size());
      kept_.push_back({0, 0, rid, stack_.empty() ? kNone : stack_.back().stored, name});
    }
    if (sample_node_) NodeSampler::set_in_node(layer(name) == Layer::kNode);
    o.start = now_ns();
    if (o.stored != kNone) kept_[o.stored].start = o.start;
    stack_.push_back(o);
  }

  void close() {
    const std::int64_t end = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - o.start;
    self_ns_[static_cast<std::size_t>(layer(o.name))] += duration - o.child;
    ++count_[static_cast<std::size_t>(o.name)];
    if (o.stored != kNone) kept_[o.stored].end = end;
    if (!stack_.empty()) stack_.back().child += duration;
    if (sample_node_) {
      NodeSampler::set_in_node(!stack_.empty() && layer(stack_.back().name) == Layer::kNode);
    }
  }

  [[nodiscard]] std::int64_t self_ns(Layer l) const {
    return self_ns_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t total_spans() const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : count_) total += c;
    return total;
  }
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    std::int64_t start = 0;
    std::int64_t child = 0;
    std::uint32_t stored = kNone;
    SpanName name = SpanName::kRun;
  };

  [[nodiscard]] Layer layer(SpanName n) const { return layers_[static_cast<std::size_t>(n)]; }

  LayerMap layers_;
  bool sample_node_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::array<std::int64_t, kLayers> self_ns_{};
  std::array<std::uint64_t, kSpanNames> count_{};
};

class Scope {
 public:
  Scope(SpanRecorder& rec, SpanName name, std::uint64_t rid = 0) : rec_(rec) {
    rec_.open(name, rid);
  }
  ~Scope() { rec_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
};

/// Execution-context decorator handed to one layer: every task that layer
/// schedules runs inside a span of `name`. Handles come from the wrapped
/// context, so cancellation goes straight to it.
class LayerContext final : public exec::ExecutionContext {
 public:
  LayerContext(exec::ExecutionContext& inner, SpanRecorder& rec, SpanName name)
      : inner_(inner), rec_(rec), name_(name) {}

  [[nodiscard]] SimTime now() const override { return inner_.now(); }

  exec::TaskHandle schedule_at(SimTime when, exec::TaskFn fn) override {
    return inner_.schedule_at(when, [rec = &rec_, name = name_, fn = std::move(fn)]() mutable {
      Scope scope(*rec, name);
      fn();
    });
  }

 protected:
  [[nodiscard]] bool task_pending(std::uint32_t, std::uint32_t) const override { return false; }
  void cancel_task(std::uint32_t, std::uint32_t) override {}

 private:
  exec::ExecutionContext& inner_;
  SpanRecorder& rec_;
  SpanName name_;
};

/// BlockDevice decorator: submit and the request's completion each run in
/// a span; counts what passes through.
class TracedDevice final : public blockdev::BlockDevice {
 public:
  TracedDevice(blockdev::BlockDevice& inner, SpanRecorder& rec) : inner_(inner), rec_(rec) {}

  void submit(blockdev::BlockRequest request) override {
    ++submits_;
    if (request.op == IoOp::kRead) ++reads_;
    Scope scope(rec_, SpanName::kDeviceSubmit, request.id);
    request.on_complete = [rec = &rec_, rid = request.id, prev = std::move(request.on_complete)](
                              SimTime done, IoStatus status) {
      Scope inner(*rec, SpanName::kDeviceComplete, rid);
      if (prev) prev(done, status);
    };
    inner_.submit(std::move(request));
  }
  [[nodiscard]] Bytes capacity() const override { return inner_.capacity(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t submits() const { return submits_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }

 private:
  blockdev::BlockDevice& inner_;
  SpanRecorder& rec_;
  std::uint64_t submits_ = 0;
  std::uint64_t reads_ = 0;
};

/// What the benchmark's own client decorator checks on delivered data.
struct VerifyStats {
  std::uint64_t pattern_seed = 0;
  std::vector<ByteOffset> device_base;  ///< file offset of each local device
  Bytes verified_bytes = 0;
  std::uint64_t mismatches = 0;         ///< slices differing from the pattern
  std::uint64_t stray_slices = 0;       ///< slices reaching outside the request
  std::uint64_t partial_requests = 0;   ///< slices left part of the request uncovered
  std::uint64_t undelivered = 0;        ///< completed with no data (direct path)
  Bytes covered_bytes = 0;              ///< request bytes covered by slices
  Bytes duplicate_bytes = 0;            ///< bytes handed over more than once
};

/// The slices one request has been handed so far. They arrive in offset
/// order, one per staged extent the request touches; extents may overlap,
/// so the same bytes can arrive twice.
struct Delivery {
  ByteOffset covered_end = 0;  ///< end of the union of slices so far
  Bytes covered = 0;           ///< length of that union
};

/// The client RequestSink decorator: the sink call and the completion each
/// run in a span keyed by (client ordinal, request sequence), and
/// completions are counted; with `verify`, every staged byte handed to the
/// client is checked against the file's pattern, and the slices together
/// must cover the whole request.
workload::RequestSink traced_sink(SpanRecorder& rec, workload::RequestSink base,
                                  std::uint32_t ordinal, std::uint64_t& completions,
                                  VerifyStats* verify) {
  return [&rec, base = std::move(base), ordinal, &completions, verify](core::ClientRequest req) {
    const std::uint64_t rid = (static_cast<std::uint64_t>(ordinal) << 40) | req.id;
    Scope scope(rec, SpanName::kClientSubmit, rid);
    std::shared_ptr<Delivery> delivery;
    if (verify != nullptr) {
      delivery = std::make_shared<Delivery>();
      delivery->covered_end = req.offset;
      req.on_data = [&rec, verify, delivery, device = req.device, rid, begin = req.offset,
                     end = req.offset + req.length](const core::StagedSlice& slice) {
        Scope check(rec, SpanName::kVerify, rid);
        const ByteOffset lo = slice.offset;
        const ByteOffset hi = slice.offset + slice.length;
        if (lo < begin || hi > end) ++verify->stray_slices;
        const ByteOffset fresh_from = std::max(lo, delivery->covered_end);
        const Bytes fresh = hi > fresh_from ? hi - fresh_from : 0;
        delivery->covered += fresh;
        delivery->covered_end = std::max(delivery->covered_end, hi);
        verify->duplicate_bytes += slice.length - fresh;
        if (!pattern_matches(verify->pattern_seed, verify->device_base[device] + slice.offset,
                             slice.data, slice.length)) {
          ++verify->mismatches;
        } else {
          verify->verified_bytes += slice.length;
        }
      };
    }
    req.on_complete = [&rec, &completions, verify, delivery, rid, length = req.length,
                       prev = std::move(req.on_complete)](SimTime done, IoStatus status) {
      Scope inner(rec, SpanName::kClientComplete, rid);
      ++completions;
      if (verify != nullptr && io_ok(status)) {
        verify->covered_bytes += delivery->covered;
        if (delivery->covered == 0) {
          ++verify->undelivered;
        } else if (delivery->covered != length) {
          ++verify->partial_requests;
        }
      }
      if (prev) prev(done, status);
    };
    base(std::move(req));
  };
}

/// runner.cpp's raw path: client requests go straight to the devices.
workload::RequestSink raw_sink(const std::vector<blockdev::BlockDevice*>& devices) {
  return [&devices](core::ClientRequest req) {
    blockdev::BlockRequest io;
    io.offset = req.offset;
    io.length = req.length;
    io.op = req.op;
    io.id = req.id;
    io.data = req.data;
    io.on_complete = std::move(req.on_complete);
    devices.at(req.device)->submit(std::move(io));
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void write_spans(const std::string& path, const std::vector<const SpanRecorder*>& recorders) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(std::fopen(path.c_str(), "w"),
                                                      &std::fclose);
  if (!out) return;  // the span file is a by-product; metrics do not depend on it
  std::fprintf(out.get(), "name,thread,start_ns,end_ns,parent,rid\n");
  for (std::size_t t = 0; t < recorders.size(); ++t) {
    const auto& spans = recorders[t]->kept();
    const std::int64_t base = spans.empty() ? 0 : spans.front().start;
    for (const auto& s : spans) {
      std::fprintf(out.get(), "%s,%zu,%lld,%lld,%lld,%llu\n",
                   kSpanText[static_cast<std::size_t>(s.name)], t,
                   static_cast<long long>(s.start - base), static_cast<long long>(s.end - base),
                   s.parent == SpanRecorder::kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.rid));
    }
  }
}

/// Every per-layer metric, zero until the workload's layers fill it in.
struct LayerMetrics {
  std::vector<LayerValue> values = {
      {"sim.events_per_request", 0, "count"},
      {"sim.self_s", 0, "s"},
      {"controller.commands", 0, "count"},
      {"controller.ns_per_command", 0, "ns"},
      {"controller.evictions_per_command", 0, "ratio"},
      {"controller.self_s", 0, "s"},
      {"disk.commands", 0, "count"},
      {"disk.cache_hit_ratio", 0, "ratio"},
      {"disk.ns_per_command", 0, "ns"},
      {"disk.self_s", 0, "s"},
      {"core.ns_per_request", 0, "ns"},
      {"core.buffer_hit_ratio", 0, "ratio"},
      {"core.disk_reads_per_request", 0, "ratio"},
      {"core.prefetch_waste_ratio", 0, "ratio"},
      {"core.dispatch_stalls", 0, "count"},
      {"core.bytes_copied", 0, "bytes"},
      {"core.duplicate_delivery_ratio", 0, "ratio"},
      {"core.undelivered_ratio", 0, "ratio"},
      {"core.self_s", 0, "s"},
      {"workload.ns_per_request", 0, "ns"},
      {"workload.self_s", 0, "s"},
      {"blockdev.submit_ns", 0, "ns"},
      {"blockdev.enters_per_request", 0, "ratio"},
      {"blockdev.batch_size_mean", 0, "count"},
      {"blockdev.transient_retries", 0, "count"},
      {"blockdev.self_s", 0, "s"},
      {"exec.wakeups_per_request", 0, "ratio"},
      {"exec.spurious_ratio", 0, "ratio"},
      {"exec.idle_share", 0, "ratio"},
      {"exec.self_s", 0, "s"},
      {"trace.check_s", 0, "s"},
      {"trace.accounted_share", 0, "ratio"},
      {"trace.spans", 0, "count"},
      {"trace.node_samples", 0, "count"},
  };

  void set(const std::string& name, double value) {
    for (LayerValue& v : values) {
      if (v.name == name) {
        v.value = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
};

TracedRun run_traced_sim(const Workload& w, const std::string& span_path) {
  const experiment::ExperimentConfig& cfg = w.config;
  SpanRecorder rec(layer_map(false), /*sample_node=*/true);
  sim::Simulator simulator;
  LayerContext node_ctx(simulator, rec, SpanName::kNodeEvent);
  LayerContext client_ctx(simulator, rec, SpanName::kWorkloadEvent);

  node::StorageNode node(node_ctx, cfg.topology.node);
  std::vector<std::unique_ptr<TracedDevice>> traced;
  std::vector<blockdev::BlockDevice*> devices;
  for (blockdev::BlockDevice* device : node.devices()) {
    traced.push_back(std::make_unique<TracedDevice>(*device, rec));
    devices.push_back(traced.back().get());
  }
  const workload::RequestSink base = raw_sink(devices);

  std::uint64_t completions = 0;
  std::vector<std::unique_ptr<workload::StreamClient>> clients;
  clients.reserve(cfg.streams.size());
  for (std::uint32_t i = 0; i < cfg.streams.size(); ++i) {
    workload::StreamSpec spec = cfg.streams[i];
    // Same seed chain as run_experiment's single-engine path.
    if (spec.seed == 0) {
      spec.seed = experiment::stream_seed(experiment::shard_workload_seed(cfg.workload_seed, 0), i);
    }
    clients.push_back(std::make_unique<workload::StreamClient>(
        client_ctx, traced_sink(rec, base, i, completions, nullptr), spec,
        devices.at(spec.device)->capacity()));
  }

  NodeSampler sampler(kSampleIntervalUs);
  const std::int64_t begin = now_ns();
  {
    Scope root(rec, SpanName::kRun);
    for (auto& client : clients) client->start();
    simulator.run_until(cfg.warmup);
  }
  for (auto& client : clients) client->begin_measurement();
  const SimTime t0 = simulator.now();
  const SimTime t1 = t0 + cfg.measure;
  {
    Scope root(rec, SpanName::kRun);
    simulator.run_until(t1);
  }
  const double wall_s = static_cast<double>(now_ns() - begin) / 1e9;
  const NodeSplit split = sampler.finish();

  TracedRun out;
  out.wall_s = wall_s;
  out.requests = completions;
  out.measure_s = to_seconds(cfg.measure);
  double total_mbps = 0.0;
  std::uint64_t errors = 0;
  stats::LatencyHistogram latency;
  for (const auto& client : clients) {
    const auto& cs = client->stats();
    total_mbps += cs.throughput.mbps(t0, t1);
    out.measured_requests += cs.completed;
    errors += cs.errors;
    latency.merge(cs.latency);
  }
  out.digest = sim_digest(total_mbps, out.measured_requests, latency, errors,
                          simulator.executed_events());
  if (errors != 0) out.failures.push_back("traced run: client_errors != 0");

  // Split the node's self time between controller and disk by where the
  // program-counter samples taken inside node spans landed.
  const double node_s = static_cast<double>(rec.self_ns(Layer::kNode)) / 1e9;
  const double resolved = static_cast<double>(split.controller + split.disk);
  const double ctrl_s =
      resolved > 0 ? node_s * static_cast<double>(split.controller) / resolved : node_s;
  const double disk_s = node_s - ctrl_s;

  const node::NodeControllerTotals ct = node.controller_totals();
  const node::NodeDiskTotals dt = node.disk_totals();
  const double req = static_cast<double>(out.requests);
  LayerMetrics m;
  m.set("sim.events_per_request", ratio(static_cast<double>(simulator.executed_events()), req));
  m.set("sim.self_s", static_cast<double>(rec.self_ns(Layer::kSim)) / 1e9);
  m.set("controller.commands", static_cast<double>(ct.commands));
  m.set("controller.ns_per_command", ratio(ctrl_s * 1e9, static_cast<double>(ct.commands)));
  m.set("controller.evictions_per_command",
        ratio(static_cast<double>(ct.cache_evictions), static_cast<double>(ct.commands)));
  m.set("controller.self_s", ctrl_s);
  m.set("disk.commands", static_cast<double>(dt.commands));
  m.set("disk.cache_hit_ratio", ratio(static_cast<double>(dt.cache_hits),
                                      static_cast<double>(dt.cache_hits + dt.cache_misses)));
  m.set("disk.ns_per_command", ratio(disk_s * 1e9, static_cast<double>(dt.commands)));
  m.set("disk.self_s", disk_s);
  const double workload_s = static_cast<double>(rec.self_ns(Layer::kWorkload)) / 1e9;
  m.set("workload.ns_per_request", ratio(workload_s * 1e9, req));
  m.set("workload.self_s", workload_s);
  double accounted = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    accounted += static_cast<double>(rec.self_ns(static_cast<Layer>(l))) / 1e9;
  }
  m.set("trace.accounted_share", ratio(accounted, wall_s));
  m.set("trace.spans", static_cast<double>(rec.total_spans()));
  m.set("trace.node_samples", static_cast<double>(split.controller + split.disk + split.other));
  out.metrics = std::move(m.values);
  out.spans = rec.total_spans();
  out.spans_kept = rec.kept().size();
  write_spans(span_path, {&rec});
  return out;
}

#if defined(SST_WITH_URING)

void set_core_metrics(LayerMetrics& m, const core::SchedulerStats& sched,
                      const core::StagingStats& staging, double core_self_s,
                      std::uint64_t device_reads, std::uint64_t requests) {
  const double req = static_cast<double>(requests);
  m.set("core.ns_per_request", ratio(core_self_s * 1e9, req));
  m.set("core.buffer_hit_ratio", ratio(static_cast<double>(sched.buffer_hits),
                                       static_cast<double>(sched.client_completions)));
  m.set("core.disk_reads_per_request", ratio(static_cast<double>(device_reads), req));
  m.set("core.prefetch_waste_ratio", ratio(static_cast<double>(sched.gc_bytes_wasted),
                                           static_cast<double>(sched.bytes_prefetched)));
  m.set("core.dispatch_stalls", static_cast<double>(sched.dispatch_stalls));
  m.set("core.bytes_copied", static_cast<double>(staging.bytes_copied));
  m.set("core.self_s", core_self_s);
}

/// One reactor's share of the traced real run (the real runner's group
/// plan: contiguous devices, every stream on the reactor owning its device).
struct Group {
  std::uint32_t dev_begin = 0;
  std::uint32_t dev_count = 0;
  std::vector<std::pair<std::uint32_t, workload::StreamSpec>> streams;

  std::unique_ptr<SpanRecorder> rec;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t completions = 0;
  std::uint64_t measured = 0;
  std::uint64_t client_errors = 0;
  std::uint64_t device_submits = 0;
  std::uint64_t device_reads = 0;
  core::SchedulerStats sched;
  core::StagingStats staging;
  std::vector<blockdev::UringStats> uring;
  exec::ReactorStats reactor;
  VerifyStats verify;
  std::string error;
};

void run_group(const Workload& w, Group& g, Bytes slice, std::uint32_t total_devices) {
  const experiment::ExperimentConfig& cfg = w.config;
  SpanRecorder& rec = *g.rec;
  exec::RealContext ctx;
  LayerContext core_ctx(ctx, rec, SpanName::kCoreEvent);
  LayerContext client_ctx(ctx, rec, SpanName::kWorkloadEvent);

  std::vector<std::unique_ptr<blockdev::UringBlockDevice>> rings;
  std::vector<std::unique_ptr<TracedDevice>> traced;
  std::vector<blockdev::BlockDevice*> devices;
  g.verify.pattern_seed = w.pattern_seed;
  for (std::uint32_t i = 0; i < g.dev_count; ++i) {
    const std::uint32_t global = g.dev_begin + i;
    blockdev::UringParams params;
    params.path = cfg.backend.path;
    params.base_offset = static_cast<ByteOffset>(global) * slice;
    params.capacity = slice;
    params.queue_depth = cfg.backend.queue_depth;
    params.direct = cfg.backend.direct;
    params.seed = w.pattern_seed;
    params.label = "uring" + std::to_string(global);
    params.multiplex = g.dev_count > 1;
    auto ring = blockdev::UringBlockDevice::open(ctx, params);
    if (!ring.ok()) throw std::runtime_error(ring.error().message);
    rings.push_back(std::move(ring).value());
    traced.push_back(std::make_unique<TracedDevice>(*rings.back(), rec));
    devices.push_back(traced.back().get());
    g.verify.device_base.push_back(params.base_offset);
  }

  core::SchedulerParams sched_params =
      g.dev_count == total_devices
          ? *cfg.scheduler
          : experiment::slice_scheduler_params(*cfg.scheduler, g.dev_count, total_devices);
  sched_params.materialize_buffers = true;
  core::StorageServer server(core_ctx, devices, sched_params);
  {
    // As the real runner does: pre-warm the extent slab and register it.
    std::vector<std::unique_ptr<core::IoBuffer>> warm;
    core::BufferPool& pool = server.scheduler().pool();
    for (std::uint32_t i = 0; i < cfg.backend.queue_depth; ++i) {
      auto buffer = pool.allocate(0, 0, sched_params.read_ahead, ctx.now());
      if (buffer == nullptr) break;
      warm.push_back(std::move(buffer));
    }
  }
  const auto regions = server.scheduler().pool().extent_slab().regions();
  for (auto& ring : rings) (void)ring->register_buffers(regions);

  bool draining = false;
  workload::RequestSink base = [&server, &draining](core::ClientRequest req) {
    if (draining) return;
    server.submit(std::move(req));
  };
  std::vector<std::unique_ptr<workload::StreamClient>> clients;
  for (const auto& [ordinal, planned] : g.streams) {
    workload::StreamSpec spec = planned;
    spec.device -= g.dev_begin;
    if (spec.seed == 0) {
      spec.seed =
          experiment::stream_seed(experiment::shard_workload_seed(cfg.workload_seed, 0), ordinal);
    }
    clients.push_back(std::make_unique<workload::StreamClient>(
        client_ctx, traced_sink(rec, base, ordinal, g.completions, &g.verify), spec,
        devices.at(spec.device)->capacity()));
  }

  const std::int64_t begin = now_ns();
  const std::int64_t cpu_begin = thread_cpu_ns();
  {
    Scope root(rec, SpanName::kRun);
    for (auto& client : clients) client->start();
    ctx.run_until(cfg.warmup);
  }
  for (auto& client : clients) client->begin_measurement();
  const SimTime t1 = ctx.now() + cfg.measure;
  {
    Scope root(rec, SpanName::kRun);
    ctx.run_until(t1);
  }
  for (const auto& client : clients) {
    g.measured += client->stats().completed;
    g.client_errors += client->stats().errors;
  }
  draining = true;
  auto in_flight = [&rings]() {
    std::size_t total = 0;
    for (const auto& ring : rings) total += ring->in_flight();
    return total;
  };
  {
    Scope root(rec, SpanName::kRun);
    while (in_flight() > 0) ctx.run_until(ctx.now() + msec(5));
  }
  g.cpu_ns = thread_cpu_ns() - cpu_begin;
  g.wall_ns = now_ns() - begin;

  for (const auto& d : traced) {
    g.device_submits += d->submits();
    g.device_reads += d->reads();
  }
  g.sched = server.scheduler().stats();
  g.staging = server.scheduler().staging_stats();
  for (const auto& ring : rings) g.uring.push_back(ring->stats());
  g.reactor = ctx.reactor_stats();
}

TracedRun run_traced_real(const Workload& w, const std::string& span_path) {
  const experiment::ExperimentConfig& cfg = w.config;
  const std::uint32_t devices = cfg.topology.logical_device_count();
  const Bytes slice = w.file_bytes / devices / 4096 * 4096;
  const std::uint32_t reactors = std::min(cfg.backend.reactors, devices);
  std::vector<Group> groups(reactors);
  for (std::uint32_t k = 0; k < reactors; ++k) {
    groups[k].dev_begin = k * devices / reactors;
    groups[k].dev_count = (k + 1) * devices / reactors - groups[k].dev_begin;
    groups[k].rec = std::make_unique<SpanRecorder>(layer_map(true), false);
  }
  for (std::uint32_t i = 0; i < cfg.streams.size(); ++i) {
    const workload::StreamSpec& spec = cfg.streams[i];
    for (Group& g : groups) {
      if (spec.device >= g.dev_begin && spec.device < g.dev_begin + g.dev_count) {
        g.streams.emplace_back(i, spec);
      }
    }
  }
  {
    std::vector<std::thread> threads;
    for (Group& g : groups) {
      threads.emplace_back([&w, &g, slice, devices]() {
        try {
          run_group(w, g, slice, devices);
        } catch (const std::exception& e) {
          g.error = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  TracedRun out;
  out.measure_s = to_seconds(cfg.measure);
  std::array<double, kLayers> self_s{};
  std::uint64_t errors = 0;
  std::uint64_t submits = 0;
  std::uint64_t reads = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  core::SchedulerStats sched;
  core::StagingStats staging;
  blockdev::UringStats ring;
  exec::ReactorStats reactor;
  std::vector<std::uint64_t> device_completed;
  VerifyStats verify;
  std::vector<const SpanRecorder*> recorders;
  for (const Group& g : groups) {
    if (!g.error.empty()) throw std::runtime_error("traced real run: " + g.error);
    for (std::size_t l = 0; l < kLayers; ++l) {
      self_s[l] += static_cast<double>(g.rec->self_ns(static_cast<Layer>(l))) / 1e9;
    }
    out.requests += g.completions;
    out.measured_requests += g.measured;
    out.spans += g.rec->total_spans();
    out.spans_kept += g.rec->kept().size();
    errors += g.client_errors;
    submits += g.device_submits;
    reads += g.device_reads;
    cpu_ns += g.cpu_ns;
    wall_ns += g.wall_ns;
    experiment::add_scheduler_stats(sched, g.sched);
    experiment::add_staging_stats(staging, g.staging);
    for (const blockdev::UringStats& s : g.uring) {
      ring.completed += s.completed;
      ring.errors += s.errors;
      ring.transient_retries += s.transient_retries;
      ring.enter_syscalls += s.enter_syscalls;
      ring.flush_batches += s.flush_batches;
      ring.sqes_flushed += s.sqes_flushed;
      device_completed.push_back(s.completed);
    }
    reactor.wakeups += g.reactor.wakeups;
    reactor.spurious_wakeups += g.reactor.spurious_wakeups;
    verify.verified_bytes += g.verify.verified_bytes;
    verify.mismatches += g.verify.mismatches;
    verify.stray_slices += g.verify.stray_slices;
    verify.partial_requests += g.verify.partial_requests;
    verify.undelivered += g.verify.undelivered;
    verify.covered_bytes += g.verify.covered_bytes;
    verify.duplicate_bytes += g.verify.duplicate_bytes;
    recorders.push_back(g.rec.get());
  }
  out.wall_s = static_cast<double>(wall_ns) / 1e9;
  out.verified_bytes = verify.verified_bytes;
  out.undelivered_requests = verify.undelivered;

  if (errors != 0) out.failures.push_back("traced run: client_errors != 0");
  if (ring.errors != 0) out.failures.push_back("traced run: uring.errors != 0");
  if (staging.bytes_copied != 0) out.failures.push_back("traced run: staging.bytes_copied != 0");
  if (verify.mismatches != 0) {
    out.failures.push_back("traced run: " + std::to_string(verify.mismatches) +
                           " delivered slices differ from the file pattern");
  }
  if (verify.partial_requests != 0) {
    out.failures.push_back("traced run: " + std::to_string(verify.partial_requests) +
                           " requests got only part of their bytes");
  }
  if (verify.stray_slices != 0) {
    out.failures.push_back("traced run: " + std::to_string(verify.stray_slices) +
                           " slices reach outside their request");
  }
  if (verify.verified_bytes == 0) out.failures.push_back("traced run: no bytes verified");

  const double req = static_cast<double>(out.requests);
  auto layer_s = [&self_s](Layer l) { return self_s[static_cast<std::size_t>(l)]; };
  LayerMetrics m;
  set_core_metrics(m, sched, staging, layer_s(Layer::kCore), reads, out.requests);
  m.set("core.duplicate_delivery_ratio", ratio(static_cast<double>(verify.duplicate_bytes),
                                               static_cast<double>(verify.covered_bytes)));
  m.set("core.undelivered_ratio", ratio(static_cast<double>(verify.undelivered), req));
  m.set("workload.ns_per_request", ratio(layer_s(Layer::kWorkload) * 1e9, req));
  m.set("workload.self_s", layer_s(Layer::kWorkload));
  m.set("blockdev.submit_ns", ratio(layer_s(Layer::kBlockdev) * 1e9, static_cast<double>(submits)));
  m.set("blockdev.enters_per_request", ratio(static_cast<double>(ring.enter_syscalls), req));
  m.set("blockdev.batch_size_mean", ratio(static_cast<double>(ring.sqes_flushed),
                                          static_cast<double>(ring.flush_batches)));
  m.set("blockdev.transient_retries", static_cast<double>(ring.transient_retries));
  m.set("blockdev.self_s", layer_s(Layer::kBlockdev));
  m.set("exec.wakeups_per_request", ratio(static_cast<double>(reactor.wakeups), req));
  m.set("exec.spurious_ratio", ratio(static_cast<double>(reactor.spurious_wakeups),
                                     static_cast<double>(reactor.wakeups)));
  m.set("exec.idle_share",
        1.0 - ratio(static_cast<double>(cpu_ns), static_cast<double>(wall_ns)));
  m.set("exec.self_s", layer_s(Layer::kExec));
  m.set("trace.check_s", layer_s(Layer::kCheck));
  double accounted = 0.0;
  for (const double s : self_s) accounted += s;
  m.set("trace.accounted_share", ratio(accounted, out.wall_s));
  m.set("trace.spans", static_cast<double>(out.spans));
  out.metrics = std::move(m.values);

  // Every device should carry a comparable share: each has the same number
  // of streams, so a starved ring means a reactor or ring stopped serving.
  if (!device_completed.empty()) {
    const auto [lo, hi] = std::minmax_element(device_completed.begin(), device_completed.end());
    if (*lo == 0 || static_cast<double>(*lo) < 0.5 * static_cast<double>(*hi)) {
      out.failures.push_back("traced run: device completion shares are unbalanced");
    }
  }
  write_spans(span_path, recorders);
  return out;
}

#endif  // SST_WITH_URING

}  // namespace

TracedRun run_traced(const Workload& w, const std::string& span_path) {
  if (!is_real(w.kind)) return run_traced_sim(w, span_path);
#if defined(SST_WITH_URING)
  return run_traced_real(w, span_path);
#else
  throw std::runtime_error("the real workload needs the io_uring backend");
#endif
}

}  // namespace perfbench
