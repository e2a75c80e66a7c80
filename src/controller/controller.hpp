// The controller model: hosts up to 8 disks behind one shared transfer
// path. Reads are looked up in the controller's extent cache; on a miss the
// controller issues one disk command covering the request plus its
// configured prefetch, installs the result, and then moves the *demanded*
// bytes across the controller-to-host path, which serializes all traffic at
// the controller's aggregate rate with a per-command overhead. That shared
// path is what caps an 8-disk node at ~450 MB/s in the paper's testbed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "controller/cache.hpp"
#include "controller/params.hpp"
#include "disk/disk.hpp"
#include "obs/tracer.hpp"
#include "exec/execution_context.hpp"

namespace sst::ctrl {

/// A command as submitted to a controller; `disk_index` addresses one of
/// the controller's channels. `on_complete` runs as the event at the time
/// the last byte reaches the host.
struct ControllerCommand {
  std::uint32_t disk_index = 0;
  Lba lba = 0;
  Lba sectors = 0;
  IoOp op = IoOp::kRead;
  RequestId id = kInvalidRequest;
  exec::TaskFn on_complete;
};

struct ControllerStats {
  std::uint64_t commands = 0;
  Bytes bytes_to_host = 0;
  SimTime bus_busy_time = 0;
};

class Controller {
 public:
  Controller(exec::ExecutionContext& simulator, ControllerParams params, ControllerId id);

  /// Attach a new disk on the next channel; returns its channel index.
  std::uint32_t attach_disk(disk::DiskParams disk_params);

  void submit(ControllerCommand cmd);

  [[nodiscard]] ControllerId id() const { return id_; }
  [[nodiscard]] exec::ExecutionContext& context() const { return sim_; }
  [[nodiscard]] std::size_t disk_count() const { return disks_.size(); }
  [[nodiscard]] disk::Disk& disk(std::uint32_t index) { return *disks_.at(index); }
  [[nodiscard]] const disk::Disk& disk(std::uint32_t index) const { return *disks_.at(index); }
  [[nodiscard]] const ControllerParams& params() const { return params_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] const CtrlCacheStats& cache_stats() const { return cache_.stats(); }

  void reset_stats();

  /// Attach a per-experiment tracer (nullptr detaches) to this controller
  /// and every attached disk; call after all disks are attached. The tracer
  /// must outlive the controller.
  void set_tracer(obs::Tracer* tracer);

 private:
  /// Serialize `bytes` over the controller-to-host path; `done` fires when
  /// the transfer completes.
  void transfer_to_host(Bytes bytes, exec::TaskFn done);
  void handle_read(ControllerCommand cmd);
  void handle_write(ControllerCommand cmd);

  exec::ExecutionContext& sim_;
  ControllerParams params_;
  ControllerId id_;
  ExtentCache cache_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  SimTime bus_free_at_ = 0;
  ControllerStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace sst::ctrl
