// The experiment runner: plan -> cells -> drive -> merge, for every backend.
//
//  - plan cuts the deployment into cells and places every stream: its
//    owning cell (the one holding its device), its home cell (the one
//    running its client), its seed and its global ordinal.
//  - A cell is one ExecutionContext's share of the deployment: base block
//    devices, the config's device stack above them, a scheduler slice,
//    observers and the resident clients. One function builds it for every
//    backend; only the base devices differ (a node::StorageNode slice on the
//    simulator, io_uring slices of backend.path on a RealContext).
//  - drive runs the cells: sim cells under sim::ShardedEngine (one cell is
//    one plain Simulator), real cells on their own reactor threads.
//  - merge folds the cells back into one ExperimentResult.
//
// Sharded sim runs home clients round-robin and reach the owning cell over
// a modelled interconnect of one lookahead per direction (even when home ==
// owner, so every stream pays the same round-trip tax). They are not
// event-for-event identical to the single-engine run of the same config,
// but a deterministic function of (config, seed, shard count). Real cells
// home every client on its owner: streams pin to devices, so no
// cross-thread trampoline is needed.
#include "experiment/runner.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/uring_block_device.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/sharding.hpp"
#include "sim/sharded.hpp"

#if defined(SST_WITH_URING)
#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "common/thread_pool.hpp"
#include "exec/real_context.hpp"
#endif

namespace sst::experiment {

bool real_backend_available() { return blockdev::uring_backend_available(); }

ShardPlan plan_shards(const node::TopologySpec& topology, std::uint32_t requested,
                      SimTime lookahead_override) {
  ShardPlan plan;
  plan.requested = std::max<std::uint32_t>(1, requested);
  plan.lookahead = lookahead_override > 0
                       ? lookahead_override
                       : (topology.stack.network.has_value()
                              ? std::max(kDefaultShardLookahead,
                                         topology.stack.network->latency)
                              : kDefaultShardLookahead);

  const std::uint32_t controllers = topology.node.num_controllers;
  const std::uint32_t dpc = topology.node.disks_per_controller;
  std::uint32_t shards = std::min(plan.requested, controllers);
  // One striped volume spans every device: the raid layer is a single
  // coupling point, so striping always runs single-shard.
  if (topology.stack.raid.kind == io::RaidSpec::Kind::kStripe) shards = 1;

  const std::uint32_t mirror_ways =
      topology.stack.raid.kind == io::RaidSpec::Kind::kMirror
          ? topology.stack.raid.mirror_ways
          : 1;
  for (; shards > 1; --shards) {
    // Near-even contiguous controller ranges; accept this count only when
    // no mirror group straddles a boundary.
    bool ok = true;
    for (std::uint32_t k = 0; k < shards && ok; ++k) {
      const std::uint32_t begin = k * controllers / shards;
      const std::uint32_t end = (k + 1) * controllers / shards;
      ok = ((end - begin) * dpc) % mirror_ways == 0;
    }
    if (ok) break;
  }

  for (std::uint32_t k = 0; k < shards; ++k) {
    ShardSlice slice;
    slice.ctrl_begin = k * controllers / shards;
    slice.ctrl_count = (k + 1) * controllers / shards - slice.ctrl_begin;
    slice.dev_begin = slice.ctrl_begin * dpc;
    slice.dev_count = slice.ctrl_count * dpc;
    slice.logical_begin = slice.dev_begin / mirror_ways;
    slice.logical_count = slice.dev_count / mirror_ways;
    plan.slices.push_back(slice);
  }
  return plan;
}

namespace {

// ---------------------------------------------------------------- plan

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("run_experiment: " + what);
}

[[noreturn]] void reject_real(const std::string& what) {
  throw std::runtime_error("backend.kind=real: " + what);
}

/// Where one stream runs.
struct StreamPlacement {
  std::uint32_t owner = 0;  ///< cell holding the stream's device
  std::uint32_t home = 0;   ///< cell running the stream's client
  /// The spec with its seed fixed and its device in owner-local coordinates.
  workload::StreamSpec spec;
};

struct ExperimentPlan {
  bool real = false;
  ShardPlan cells;
  std::vector<StreamPlacement> streams;  ///< spec order (global ordinal)

  [[nodiscard]] std::uint32_t cell_count() const { return cells.shard_count(); }
  /// Several sim cells: clients reach their devices over the interconnect.
  [[nodiscard]] bool sharded_sim() const { return !real && cell_count() > 1; }
};

/// Real cells: near-even contiguous runs of logical devices, one per reactor
/// (clamped to the logical device count). Cutting logical devices never
/// splits a mirror group, and a stripe (one logical device) collapses to
/// one reactor. The physical range scales the logical one; the real backend
/// has no controllers, so the controller range names the physical devices.
ShardPlan plan_reactors(const node::TopologySpec& topology, std::uint32_t requested) {
  const std::uint32_t logical = topology.logical_device_count();
  const std::uint32_t per_logical = topology.node.total_disks() / logical;
  const std::uint32_t reactors = std::min(requested, logical);
  ShardPlan plan;
  plan.requested = requested;
  for (std::uint32_t k = 0; k < reactors; ++k) {
    ShardSlice slice;
    slice.logical_begin = k * logical / reactors;
    slice.logical_count = (k + 1) * logical / reactors - slice.logical_begin;
    slice.ctrl_begin = slice.dev_begin = slice.logical_begin * per_logical;
    slice.ctrl_count = slice.dev_count = slice.logical_count * per_logical;
    plan.slices.push_back(slice);
  }
  return plan;
}

ExperimentPlan make_plan(const ExperimentConfig& config) {
  ExperimentPlan plan;
  plan.real = config.backend.kind == BackendConfig::Kind::kReal;
  if (plan.real) {
    if (config.backend.path.empty()) reject_real("backend.path is required");
    if (config.shards > 1) {
      reject_real("sim.shards > 1 is not supported (wall-clock runs are not sharded)");
    }
    if (config.backend.reactors == 0) reject_real("backend.reactors must be >= 1");
    plan.cells = plan_reactors(config.topology, config.backend.reactors);
  } else {
    if (config.backend.reactors != 1) {
      reject("backend.reactors=" + std::to_string(config.backend.reactors) +
             " needs backend.kind=real (the simulator's parallelism is sim.shards)");
    }
    plan.cells = plan_shards(config.topology, config.shards, config.lookahead);
  }

  // Seeds: a sharded sim run draws from the owning shard's chain with the
  // shard-local ordinal; the single engine and the real backend stay on
  // chain 0 with the global ordinal (the two rules agree for one cell).
  const std::uint32_t logical = config.topology.logical_device_count();
  const std::uint32_t cells = plan.cell_count();
  std::vector<std::uint32_t> local_ordinal(cells, 0);
  plan.streams.reserve(config.streams.size());
  for (std::uint32_t i = 0; i < config.streams.size(); ++i) {
    StreamPlacement placement;
    placement.spec = config.streams[i];
    workload::StreamSpec& spec = placement.spec;
    if (spec.device >= logical) {
      reject("stream " + std::to_string(i) + " targets device " +
             std::to_string(spec.device) + ", but the topology has " +
             std::to_string(logical) + " logical devices");
    }
    placement.owner = plan.cells.shard_of_logical(spec.device);
    placement.home = plan.sharded_sim() ? i % cells : placement.owner;
    if (spec.seed == 0) {
      spec.seed = plan.sharded_sim()
                      ? stream_seed(shard_workload_seed(config.workload_seed, placement.owner),
                                    local_ordinal[placement.owner])
                      : stream_seed(shard_workload_seed(config.workload_seed, 0), i);
    }
    ++local_ordinal[placement.owner];
    spec.device -= plan.cells.slices[placement.owner].logical_begin;
    plan.streams.push_back(std::move(placement));
  }
  return plan;
}

// ---------------------------------------------------------------- cell

/// Everything one execution context owns. Member order is teardown order
/// in reverse: clients and observers go first, then the server and the
/// stack, then the base devices, the node and the context they run on.
struct Cell {
  Cell(exec::ExecutionContext& context, std::uint32_t cell_id, const ShardSlice& cell_slice,
       SimTime slo_window)
      : ctx(&context), id(cell_id), slice(cell_slice), slo_windows(slo_window) {}

  std::unique_ptr<exec::ExecutionContext> own_ctx;  ///< real cells: the reactor
  exec::ExecutionContext* ctx;
  std::uint32_t id;
  ShardSlice slice;
  std::unique_ptr<node::StorageNode> node;  ///< sim cells: the node slice
  std::vector<std::unique_ptr<blockdev::BlockDevice>> owned_base;  ///< real cells
  std::unique_ptr<io::DeviceStack> stack;
  std::unique_ptr<core::StorageServer> server;
  /// Cell-private observers (single writer), merged after the run; with one
  /// cell the caller's tracer and flight recorder are used directly.
  std::unique_ptr<obs::Tracer> own_tracer;
  std::unique_ptr<obs::FlightRecorder> own_flight;
  obs::FlightRecorder* flight = nullptr;
  obs::LatencyAttributor attributor;
  obs::WindowedLatencyRecorder slo_windows;
  workload::RequestSink entry;  ///< top of the cell's stack
  /// Set once the measurement is over: the entry drops new requests so
  /// in-flight I/O can drain (closed-loop clients stall on it).
  bool draining = false;
  std::vector<std::unique_ptr<workload::StreamClient>> residents;  ///< spec order
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  SimTime t0 = 0;  ///< measurement window on the cell's clock
  SimTime t1 = 0;
  SimTime end = 0;  ///< cell clock when it stopped running
  std::uint64_t events = 0;
};

bool attribution_on(const ExperimentConfig& config) {
  // Implied by an SLO (the windowed recorder needs per-request latencies)
  // and by a flight recorder (lifecycle events carry the request id).
  return config.attribution || config.slo.enabled() || config.flight != nullptr;
}

/// Build cell `cell` over `base`: the config's device stack, the scheduler
/// slice, the observers and the request entry point.
void build_cell(Cell& cell, const ExperimentConfig& config, const ExperimentPlan& plan,
                const io::StackSpec& stack_spec, std::vector<blockdev::BlockDevice*> base) {
  exec::ExecutionContext& ctx = *cell.ctx;
  const bool single = plan.cell_count() == 1;
  cell.stack = io::DeviceStackBuilder(ctx, std::move(base)).apply(stack_spec).build();
  if (config.scheduler.has_value()) {
    // A cell smaller than the node gets its proportional scheduler share.
    // Real I/O needs real memory: staging materializes so read-ahead
    // requests carry buffers the kernel can DMA into.
    core::SchedulerParams params =
        single ? *config.scheduler
               : slice_scheduler_params(*config.scheduler, cell.slice.logical_count,
                                        config.topology.logical_device_count());
    if (plan.real) params.materialize_buffers = true;
    cell.server = std::make_unique<core::StorageServer>(ctx, cell.stack->devices(), params);
  }
  if (config.tracer != nullptr) {
    obs::Tracer* tracer = config.tracer;
    if (!single) {
      cell.own_tracer = std::make_unique<obs::Tracer>();
      tracer = cell.own_tracer.get();
    }
    if (cell.node) cell.node->attach_tracer(tracer);
    cell.stack->attach_tracer(tracer);
    if (cell.server) cell.server->set_tracer(tracer);
  }
  if (config.flight != nullptr) {
    cell.flight = config.flight;
    if (!single) {
      cell.own_flight = std::make_unique<obs::FlightRecorder>(config.flight->capacity());
      cell.own_flight->set_shard(cell.id);
      cell.flight = cell.own_flight.get();
    }
    if (cell.server) cell.server->set_flight_recorder(cell.flight);
  }
  if (config.slo.enabled()) cell.attributor.attach_window(&cell.slo_windows);

  workload::RequestSink sink;
  if (cell.server) {
    sink = [srv = cell.server.get(), draining = &cell.draining](core::ClientRequest req) {
      if (*draining) return;
      srv->submit(std::move(req));
    };
  } else {
    sink = [&devices = cell.stack->devices(),
            draining = &cell.draining](core::ClientRequest req) {
      if (*draining) return;
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
  cell.entry = cell.stack->wrap_sink(std::move(sink));
}

/// Home stream `ordinal`'s client on `home`, sending requests into `sink`. With
/// attribution the outermost wrapper runs on the home cell: the issue stamp
/// precedes any interconnect or network hop, and the completion fold —
/// applied first, so it fires last — sees the client-side completion time.
/// Request ids key on the global ordinal, so they are invariant across cell
/// counts.
void add_client(Cell& home, const ExperimentConfig& config, std::uint32_t ordinal,
                const workload::StreamSpec& spec, workload::RequestSink sink,
                Bytes device_capacity) {
  if (attribution_on(config)) {
    sink = [attr = &home.attributor, flight = home.flight, ctx = home.ctx,
            base = std::move(sink), ordinal,
            seq = std::uint64_t{0}](core::ClientRequest req) mutable {
      obs::RequestTrace* trace =
          attr->acquire(obs::make_request_id(ordinal, ++seq), ctx->now());
      req.trace = trace;
      if (flight != nullptr) {
        flight->record(obs::FlightCode::kIssue, ctx->now(), trace->rid, req.device,
                       req.offset);
      }
      req.on_complete = [attr, flight, ctx, trace,
                         prev = std::move(req.on_complete)](SimTime done, IoStatus status) {
        const bool ok = io_ok(status);
        if (flight != nullptr) {
          flight->record(obs::FlightCode::kComplete, ctx->now(), trace->rid,
                         done >= trace->issue ? done - trace->issue : 0, ok ? 1 : 0);
        }
        attr->complete(trace, done, ok);
        if (prev) prev(done, status);
      };
      base(std::move(req));
    };
  }
  home.residents.push_back(std::make_unique<workload::StreamClient>(
      *home.ctx, std::move(sink), spec, device_capacity));
}

/// Shared state for the rolling-percentile gauges: the p50 gauge (sampled
/// first; the sampler evaluates gauges in registration order) rebuilds the
/// since-last-tick delta histogram, p99/p999 read it.
struct RollingLatency {
  stats::LatencyHistogram prev;
  stats::LatencyHistogram delta;
};

/// The cell's gauge set. One cell keeps the bare names; several prefix
/// theirs ("shardK." / "reactorK.") and the merge sums the per-cell mbps
/// columns into a global "mbps". Disk queue depths keep global names.
void add_gauges(Cell& cell, const ExperimentPlan& plan) {
  obs::TimeSeriesSampler& sampler = *cell.sampler;
  const bool single = plan.cell_count() == 1;
  const std::string prefix =
      single ? "" : (plan.real ? "reactor" : "shard") + std::to_string(cell.id) + ".";
  if (single || !cell.residents.empty()) {
    // Windowed throughput: bytes moved since the previous tick. The meters
    // reset at begin_measurement, so a shrinking total restarts the window.
    sampler.add_gauge(prefix + "mbps", [&clients = cell.residents, ctx = cell.ctx,
                                        prev_bytes = Bytes{0},
                                        prev_time = SimTime{0}]() mutable {
      Bytes total = 0;
      for (const auto& client : clients) total += client->stats().throughput.total_bytes();
      const SimTime now = ctx->now();
      const Bytes delta = total >= prev_bytes ? total - prev_bytes : total;
      const double mbps = now > prev_time ? mb_per_sec(delta, now - prev_time) : 0.0;
      prev_bytes = total;
      prev_time = now;
      return mbps;
    });
    auto rolling = std::make_shared<RollingLatency>();
    sampler.add_gauge(prefix + "p50_ms", [&clients = cell.residents, rolling]() {
      stats::LatencyHistogram cur;
      for (const auto& client : clients) cur.merge(client->stats().latency);
      if (cur.count() < rolling->prev.count()) rolling->prev.reset();  // meters reset
      rolling->delta = cur;
      rolling->delta.subtract(rolling->prev);
      rolling->prev = std::move(cur);
      return rolling->delta.p50_ms();
    });
    sampler.add_gauge(prefix + "p99_ms", [rolling]() { return rolling->delta.p99_ms(); });
    sampler.add_gauge(prefix + "p999_ms", [rolling]() { return rolling->delta.p999_ms(); });
  }
  if (cell.server) {
    core::StreamScheduler& sched = cell.server->scheduler();
    sampler.add_gauge(prefix + "dispatch_set",
                      [&sched]() { return static_cast<double>(sched.dispatched_count()); });
    sampler.add_gauge(prefix + "candidates",
                      [&sched]() { return static_cast<double>(sched.candidate_count()); });
    sampler.add_gauge(prefix + "buffered_streams",
                      [&sched]() { return static_cast<double>(sched.buffered_count()); });
    sampler.add_gauge(prefix + "streams",
                      [&sched]() { return static_cast<double>(sched.stream_count()); });
    sampler.add_gauge(prefix + "pool_mb", [&sched]() {
      return static_cast<double>(sched.pool().committed()) / 1e6;
    });
    sampler.add_gauge(prefix + "extent_mb", [&sched]() {
      return static_cast<double>(sched.pool().extent_slab().live_bytes()) / 1e6;
    });
    sampler.add_gauge(prefix + "degraded_disks", [&sched]() {
      return static_cast<double>(sched.failed_device_count());
    });
  }
  if (cell.node) {
    node::StorageNode& node = *cell.node;
    for (std::size_t d = 0; d < node.device_count(); ++d) {
      sampler.add_gauge("disk" + std::to_string(cell.slice.dev_begin + d) + ".queue_depth",
                        [&node, d]() {
                          return static_cast<double>(node.disk_of(d).queue_depth());
                        });
    }
  }
}

/// Start the resident clients, then the sampler.
void start_cell(Cell& cell, const ExperimentConfig& config, const ExperimentPlan& plan) {
  for (auto& client : cell.residents) client->start();
  if (config.sample_interval > 0) {
    cell.sampler = std::make_unique<obs::TimeSeriesSampler>(*cell.ctx, config.sample_interval);
    add_gauges(cell, plan);
    cell.sampler->start();
  }
}

void begin_measurement(Cell& cell) {
  for (auto& client : cell.residents) client->begin_measurement();
  cell.attributor.begin_measurement();
}

// ---------------------------------------------------------------- merge

using Cells = std::vector<std::unique_ptr<Cell>>;

/// Fold the cells into one result. Every floating-point sum runs in a fixed
/// order — streams in spec order, cells in id order — so merged results
/// are bit-reproducible wherever the cells are.
ExperimentResult merge(const ExperimentConfig& config, const ExperimentPlan& plan,
                       Cells& cells) {
  ExperimentResult result;
  // A home cell's residents are in spec order, so a cursor per cell walks
  // the streams back into global order.
  std::vector<std::size_t> cursor(cells.size(), 0);
  double min_mbps = 1e18;
  double max_mbps = 0.0;
  result.stream_mbps.reserve(plan.streams.size());
  for (const StreamPlacement& placement : plan.streams) {
    const Cell& home = *cells[placement.home];
    const workload::ClientStats& cs = home.residents[cursor[placement.home]++]->stats();
    const double mbps = cs.throughput.mbps(home.t0, home.t1);
    result.stream_mbps.push_back(mbps);
    result.total_mbps += mbps;
    min_mbps = std::min(min_mbps, mbps);
    max_mbps = std::max(max_mbps, mbps);
    result.requests_completed += cs.completed;
    result.client_errors += cs.errors;
    result.latency.merge(cs.latency);
  }
  result.min_stream_mbps = plan.streams.empty() ? 0.0 : min_mbps;
  result.max_stream_mbps = max_mbps;

  const bool attribution = attribution_on(config);
  obs::WindowedLatencyRecorder slo_windows(config.slo.window);
  SimTime end = 0;
  for (const auto& cell_ptr : cells) {
    Cell& cell = *cell_ptr;
    io::DeviceStack& stack = *cell.stack;
    if (cell.node) {
      accumulate(result.disk_totals, cell.node->disk_totals());
      accumulate(result.controller_totals, cell.node->controller_totals());
    }
    if (cell.server) {
      core::StreamScheduler& sched = cell.server->scheduler();
      accumulate(result.scheduler_stats, sched.stats());
      accumulate(result.server_stats, cell.server->stats());
      accumulate(result.classifier_stats, cell.server->classifier().stats());
      accumulate(result.staging_stats, sched.staging_stats());
      // Cells model parallel hosts: the binding figure is the busiest
      // cell's CPU, not a sum that could read past 100%.
      result.host_cpu_utilization =
          std::max(result.host_cpu_utilization, sched.cpu().stats().utilization(cell.t1));
      result.peak_buffer_memory += sched.pool().stats().peak_committed;
      result.devices_failed += sched.failed_device_count();
    }
    if (stack.injector() != nullptr) {
      accumulate(result.fault_stats, stack.injector()->stats());
    }
    if (stack.remote() != nullptr) {
      accumulate(result.net_fault_stats, stack.remote()->fault_stats());
    }
    accumulate(result.retry_stats, stack.retry_totals());
    accumulate(result.mirror_stats, stack.mirror_totals());
    result.sim_events_dispatched += cell.events;
    end = std::max(end, cell.end);
    if (attribution) {
      result.breakdown.merge_from(cell.attributor.breakdown());
      slo_windows.merge_from(cell.slo_windows);
      // Device-level views (whole run, including warm-up: the devices
      // record from time zero — documented in DESIGN.md §14).
      if (cell.node) {
        for (std::size_t d = 0; d < cell.node->device_count(); ++d) {
          result.breakdown.disk_queue.merge(cell.node->disk_of(d).queue_wait());
          result.breakdown.disk_service.merge(cell.node->disk_of(d).service_time());
        }
      }
      if (stack.remote() != nullptr) {
        result.breakdown.net_response.merge(stack.remote()->response_transit());
      }
    }
  }
  result.breakdown.enabled = attribution;
  result.raid_kind = config.topology.stack.raid.kind;

  const bool single = cells.size() == 1;
  if (config.tracer != nullptr && !single) {
    for (const auto& cell : cells) {
      // Shift each category of the cell-local track-id layout back into
      // global coordinates. Stream ids are scheduler-local per cell; they
      // spread at 0x4000 per cell inside the 16-bit stream window, which
      // only collides past 16k streams per cell (cosmetic, ids only).
      config.tracer->merge_from(
          *cell->own_tracer, [slice = cell->slice, id = cell->id](std::uint32_t tid) {
            if (tid >= 0x30000) return 0x30000 + (((tid - 0x30000) + id * 0x4000) & 0xFFFFU);
            if (tid >= 0x20000) return tid + slice.logical_begin;
            if (tid >= 0x10000) return tid + slice.ctrl_begin;
            if (tid >= 0x100) return tid + slice.dev_begin;
            if (tid == obs::kSchedulerTrack) return obs::kSchedulerTrack + id;
            return tid;
          });
    }
  }

  if (config.sample_interval > 0) {
    // Cells sample on their own clocks: sim cells tick in lockstep, real
    // cells can differ by a sample, so the series concatenate column-wise
    // on the shortest timeline.
    std::vector<obs::TimeSeries> series;
    std::size_t rows = SIZE_MAX;
    for (const auto& cell : cells) {
      cell->sampler->stop();
      series.push_back(cell->sampler->take());
      rows = std::min(rows, series.back().times.size());
    }
    obs::TimeSeries& merged = result.timeseries;
    merged = std::move(series[0]);
    merged.times.resize(rows);
    merged.rows.resize(rows);
    for (std::size_t k = 1; k < series.size(); ++k) {
      for (auto& name : series[k].names) merged.names.push_back(std::move(name));
      for (std::size_t row = 0; row < rows; ++row) {
        merged.rows[row].insert(merged.rows[row].end(), series[k].rows[row].begin(),
                                series[k].rows[row].end());
      }
    }
    if (!single) {
      // Node-wide MB/s is the row-wise sum of the per-cell client gauges —
      // same name and meaning as the single-cell column.
      std::vector<std::size_t> mbps_cols;
      for (std::size_t col = 0; col < merged.names.size(); ++col) {
        const std::string& name = merged.names[col];
        if (name.size() > 5 && name.compare(name.size() - 5, 5, ".mbps") == 0) {
          mbps_cols.push_back(col);
        }
      }
      if (!mbps_cols.empty()) {
        merged.names.push_back("mbps");
        for (auto& row : merged.rows) {
          double total = 0.0;
          for (const std::size_t col : mbps_cols) total += row[col];
          row.push_back(total);
        }
      }
    }
  }

  result.slo_report = obs::SloEngine::evaluate(config.slo, slo_windows, result.latency);
  if (config.flight != nullptr) {
    // Stitch the cell-private rings into the caller's recorder: one journal
    // ordered by (ts, cell, seq), keeping the newest capacity() events.
    if (!single) {
      for (const auto& cell : cells) config.flight->merge_from(*cell->own_flight);
    }
    if (result.slo_report.enabled && !result.slo_report.pass) {
      config.flight->record(obs::FlightCode::kSloBreach, end, 0,
                            result.slo_report.windows_breached,
                            result.slo_report.windows_evaluated);
    }
  }
  return result;
}

// ---------------------------------------------------------------- drive

/// Sim cells: one Simulator per cell under the sharded engine (a single
/// cell runs the plain engine, no pool, no barrier). Clients of a sharded
/// run forward each request one hop to the owning cell and splice a return
/// hop into its completion — both exactly one lookahead, so cross-cell
/// posts satisfy the barrier contract by construction.
ExperimentResult drive_sim(const ExperimentConfig& config, const ExperimentPlan& plan) {
  const std::uint32_t n = plan.cell_count();
  const SimTime hop = plan.cells.lookahead;
  sim::ShardedEngine engine(n, hop);
  Cells cells;
  for (std::uint32_t k = 0; k < n; ++k) {
    const ShardSlice& slice = plan.cells.slices[k];
    sim::Simulator& sim = engine.shard(k);
    node::TopologySpec sliced;
    if (n > 1) sliced = config.topology.shard_slice(slice.ctrl_begin, slice.ctrl_count);
    const node::TopologySpec& spec = n > 1 ? sliced : config.topology;
    auto cell = std::make_unique<Cell>(sim, k, slice, config.slo.window);
    cell->node = std::make_unique<node::StorageNode>(sim, spec.node);
    build_cell(*cell, config, plan, spec.stack, cell->node->devices());
    cells.push_back(std::move(cell));
  }

  for (std::uint32_t i = 0; i < plan.streams.size(); ++i) {
    const StreamPlacement& placement = plan.streams[i];
    Cell& owner = *cells[placement.owner];
    workload::RequestSink sink = owner.entry;
    if (plan.sharded_sim()) {
      sink = [&engine, hs = &engine.shard(placement.home), home = placement.home,
              k = placement.owner, hop, entry = &owner.entry](core::ClientRequest req) {
        IoCompletion done = std::move(req.on_complete);
        req.on_complete = [&engine, hs, home, k, hop, done = std::move(done)](
                              SimTime completed_at, IoStatus status) mutable {
          engine.post(k, home, completed_at + hop,
                      [hs, done = std::move(done), status]() mutable {
                        done(hs->now(), status);
                      });
        };
        engine.post(home, k, hs->now() + hop,
                    [entry, req = std::move(req)]() mutable { (*entry)(std::move(req)); });
      };
    }
    add_client(*cells[placement.home], config, i, placement.spec, std::move(sink),
               owner.stack->devices().at(placement.spec.device)->capacity());
  }
  for (auto& cell : cells) start_cell(*cell, config, plan);

  engine.run_until(config.warmup);
  for (auto& cell : cells) begin_measurement(*cell);
  const SimTime t0 = engine.now();
  const SimTime t1 = t0 + config.measure;
  engine.run_until(t1);
  for (std::uint32_t k = 0; k < n; ++k) {
    cells[k]->t0 = t0;
    cells[k]->t1 = t1;
    cells[k]->end = engine.shard(k).now();
    cells[k]->events = engine.shard(k).executed_events();
  }

  ExperimentResult result = merge(config, plan, cells);
  result.sim_wheel_cascades = engine.wheel_cascades();
  if (n > 1) {
    ShardSummary& s = result.shard_summary;
    s.shards = n;
    s.requested = plan.cells.requested;
    s.lookahead = hop;
    s.windows = engine.stats().windows;
    s.cross_shard_events = engine.stats().cross_shard_events;
    s.horizon_violations = engine.stats().horizon_violations;
    s.min_shard_events = ~0ULL;
    for (const auto& cell : cells) {
      s.min_shard_events = std::min(s.min_shard_events, cell->events);
      s.max_shard_events = std::max(s.max_shard_events, cell->events);
    }
  }
  return result;
}

#if defined(SST_WITH_URING)

/// Build and run real cell `k` start to finish on the calling thread:
/// IORING_SETUP_SINGLE_ISSUER binds each ring to the thread that opened it,
/// so opening, I/O and the drain all happen here. The drained cell is inert
/// (nothing in flight, its reactor stopped) and may be merged and destroyed
/// on any thread.
std::unique_ptr<Cell> run_real_cell(const ExperimentConfig& config, const ExperimentPlan& plan,
                                    std::uint32_t k, Bytes slice_bytes) {
  auto reactor = std::make_unique<exec::RealContext>();
  exec::RealContext& ctx = *reactor;
  const ShardSlice& slice = plan.cells.slices[k];
  auto cell = std::make_unique<Cell>(ctx, k, slice, config.slo.window);
  cell->own_ctx = std::move(reactor);

  // One slice of backend.path per physical device, all on the reactor's
  // one io_uring.
  std::vector<blockdev::UringBlockDevice*> devices;
  for (std::uint32_t d = 0; d < slice.dev_count; ++d) {
    const std::uint32_t global = slice.dev_begin + d;
    blockdev::UringParams params;
    params.path = config.backend.path;
    params.base_offset = static_cast<ByteOffset>(global) * slice_bytes;
    params.capacity = slice_bytes;
    params.queue_depth = config.backend.queue_depth;
    params.direct = config.backend.direct;
    params.label = "uring" + std::to_string(global);
    auto device = blockdev::UringBlockDevice::open(ctx, params);
    if (!device.ok()) reject_real(device.error().message);
    devices.push_back(device.value().get());
    cell->owned_base.push_back(std::move(device).value());
  }
  io::StackSpec stack_spec = config.topology.stack;
  if (plan.cell_count() > 1) {
    // The fault config is sliced like a sim shard's, treating every
    // physical device as its own controller.
    node::TopologySpec flat = config.topology;
    flat.node.num_controllers = flat.node.total_disks();
    flat.node.disks_per_controller = 1;
    stack_spec = flat.shard_slice(slice.dev_begin, slice.dev_count).stack;
  }
  build_cell(*cell, config, plan, stack_spec,
             std::vector<blockdev::BlockDevice*>(devices.begin(), devices.end()));

  if (cell->server) {
    // Pre-warm the extent slab to the steady-state working set and register
    // it with the reactor's ring: requests whose buffers land in these
    // extents use fixed (pre-pinned) buffers. Best-effort — registration
    // failure (e.g. locked-memory limits) just means plain READ/WRITE ops.
    core::BufferPool& pool = cell->server->scheduler().pool();
    {
      std::vector<std::unique_ptr<core::IoBuffer>> warm;
      for (std::uint32_t i = 0; i < config.backend.queue_depth; ++i) {
        auto buffer = pool.allocate(0, 0, config.scheduler->read_ahead, ctx.now());
        if (buffer == nullptr) break;
        warm.push_back(std::move(buffer));
      }
    }
    const auto regions = pool.extent_slab().regions();
    (void)devices.front()->register_buffers(regions);
  }

  for (std::uint32_t i = 0; i < plan.streams.size(); ++i) {
    if (plan.streams[i].home != k) continue;
    workload::StreamSpec spec = plan.streams[i].spec;
    // Stream placements were drawn against the simulated disk's capacity;
    // fold them into the (usually much smaller) real slice, preserving the
    // uniform request-aligned spread.
    const Bytes cap = cell->stack->devices().at(spec.device)->capacity();
    const Bytes slots = cap / spec.request_size;
    if (slots == 0) {
      reject_real("device slice smaller than one request (" +
                  std::to_string(spec.request_size) + " bytes)");
    }
    spec.start_offset = spec.start_offset / spec.request_size % slots * spec.request_size;
    if (spec.region_bytes != 0 && spec.start_offset + spec.region_bytes > cap) {
      spec.region_bytes = cap - spec.start_offset;
    }
    add_client(*cell, config, i, spec, cell->entry, cap);
  }
  start_cell(*cell, config, plan);

  ctx.run_until(config.warmup);
  begin_measurement(*cell);
  cell->t0 = ctx.now();
  cell->t1 = cell->t0 + config.measure;
  ctx.run_until(cell->t1);

  // Stop admitting work, then let in-flight I/O (and the scheduler's tail
  // of read-ahead) drain while every callback target is still alive.
  cell->draining = true;
  auto in_flight = [&devices]() {
    std::size_t total = 0;
    for (const blockdev::UringBlockDevice* device : devices) total += device->in_flight();
    return total;
  };
  while (in_flight() > 0) ctx.run_until(ctx.now() + msec(5));
  cell->end = ctx.now();
  cell->events = ctx.executed_tasks();
  return cell;
}

ExperimentResult drive_real(const ExperimentConfig& config, const ExperimentPlan& plan) {
  // Carve the backing file into one equal, 4096-aligned slice per physical
  // device — the real counterpart of "N disks".
  const std::uint32_t devices = config.topology.node.total_disks();
  struct stat st{};
  if (::stat(config.backend.path.c_str(), &st) != 0) {
    reject_real("cannot stat " + config.backend.path + ": " + std::string(strerror(errno)));
  }
  const Bytes slice_bytes = static_cast<Bytes>(st.st_size) / devices / 4096 * 4096;
  if (slice_bytes == 0) {
    reject_real(config.backend.path + " is too small for " + std::to_string(devices) +
                " device slices");
  }

  const std::uint32_t n = plan.cell_count();
  Cells cells(n);
  if (n == 1) {
    cells[0] = run_real_cell(config, plan, 0, slice_bytes);
  } else {
    // One pool thread per cell. ThreadPool tasks must not throw, so
    // failures are carried out as messages and rethrown here; a failed
    // cell is torn down on its own thread during unwinding.
    std::vector<std::string> errors(n);
    ThreadPool pool(n);
    for (std::uint32_t k = 0; k < n; ++k) {
      pool.submit([&, k]() {
        try {
          cells[k] = run_real_cell(config, plan, k, slice_bytes);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    pool.wait_idle();
    for (const std::string& error : errors) {
      if (!error.empty()) throw std::runtime_error(error);
    }
  }

  ExperimentResult result = merge(config, plan, cells);
  UringSummary& u = result.uring_summary;
  u.enabled = true;
  ReactorSummary& r = result.reactor_summary;
  r.enabled = true;
  r.reactors = n;
  r.requested = config.backend.reactors;
  for (const auto& cell : cells) {
    for (const auto& base : cell->owned_base) {
      const auto& device = static_cast<const blockdev::UringBlockDevice&>(*base);
      ++u.devices;
      if (device.using_direct()) ++u.direct_devices;
      accumulate(u, device.stats());
      u.per_device_completed.push_back(device.stats().completed);
    }
    accumulate(r, static_cast<const exec::RealContext&>(*cell->own_ctx).reactor_stats());
  }
  return result;
}

#endif  // SST_WITH_URING

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const ExperimentPlan plan = make_plan(config);
  if (!plan.real) return drive_sim(config, plan);
#if defined(SST_WITH_URING)
  return drive_real(config, plan);
#else
  reject_real("requires a build with -DSST_WITH_URING=ON");
#endif
}

}  // namespace sst::experiment
