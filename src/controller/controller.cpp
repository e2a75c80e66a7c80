#include "controller/controller.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace sst::ctrl {

Controller::Controller(exec::ExecutionContext& simulator, ControllerParams params, ControllerId id)
    : sim_(simulator), params_(params), id_(id), cache_(params.cache_size) {}

std::uint32_t Controller::attach_disk(disk::DiskParams disk_params) {
  const auto channel = static_cast<std::uint32_t>(disks_.size());
  // DiskId is globally unique: (controller << 8) | channel keeps ids stable
  // and debuggable across multi-controller nodes.
  const DiskId disk_id = (id_ << 8) | channel;
  disks_.push_back(std::make_unique<disk::Disk>(sim_, disk_params, disk_id));
  return channel;
}

void Controller::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    tracer_->name_track(obs::controller_track(id_), "controller " + std::to_string(id_));
  }
  for (auto& d : disks_) d->set_tracer(tracer);
}

void Controller::transfer_to_host(Bytes bytes, exec::TaskFn done) {
  const SimTime now = sim_.now();
  const SimTime start = std::max(now, bus_free_at_);
  const auto xfer = static_cast<SimTime>(
      static_cast<double>(bytes) / params_.transfer_rate_bps * 1e9 + 0.5);
  const SimTime end = start + params_.command_overhead + xfer;
  // The path is serial (start >= bus_free_at_), so recording the span up
  // front keeps the controller track's timestamps monotone.
  if (tracer_ != nullptr) {
    tracer_->complete(obs::controller_track(id_), "controller", "xfer_to_host", start,
                      end, "bytes", static_cast<double>(bytes));
  }
  stats_.bus_busy_time += end - start;
  stats_.bytes_to_host += bytes;
  bus_free_at_ = end;
  sim_.schedule_at(end, std::move(done));
}

void Controller::submit(ControllerCommand cmd) {
  assert(cmd.disk_index < disks_.size());
  assert(cmd.sectors > 0);
  ++stats_.commands;
  if (cmd.op == IoOp::kRead) {
    handle_read(std::move(cmd));
  } else {
    handle_write(std::move(cmd));
  }
}

void Controller::handle_read(ControllerCommand cmd) {
  if (cache_.lookup(cmd.disk_index, cmd.lba, cmd.sectors, sim_.now())) {
    transfer_to_host(sectors_to_bytes(cmd.sectors), std::move(cmd.on_complete));
    return;
  }

  disk::Disk& target = *disks_[cmd.disk_index];
  const Lba disk_end = target.geometry().total_sectors();
  Lba fill = cmd.sectors;
  if (cache_.enabled() && params_.prefetch > 0) {
    fill = cmd.sectors + bytes_to_sectors(params_.prefetch);
  }
  fill = std::min<Lba>(fill, disk_end - cmd.lba);

  // Reserve buffer space before the read leaves for the disk: under
  // pressure this evicts older extents (even in-flight ones), which is the
  // cache-thrash mechanism of the paper's Fig. 8.
  const ExtentCache::ExtentId reservation =
      cache_.reserve(cmd.disk_index, cmd.lba, fill, cmd.sectors, sim_.now());

  disk::DiskCommand disk_cmd;
  disk_cmd.lba = cmd.lba;
  disk_cmd.sectors = fill;
  disk_cmd.op = IoOp::kRead;
  disk_cmd.id = cmd.id;
  // Capture what we need by value; `this` outlives the simulation run.
  disk_cmd.on_complete = [this, reservation, request = cmd.sectors,
                          client_cb = std::move(cmd.on_complete)]() mutable {
    // If the reservation was evicted in flight the prefetched tail is
    // dropped, but the demanded bytes still flow to the host.
    (void)cache_.mark_filled(reservation, sim_.now());
    transfer_to_host(sectors_to_bytes(request), std::move(client_cb));
  };
  target.submit(std::move(disk_cmd));
}

void Controller::handle_write(ControllerCommand cmd) {
  cache_.invalidate(cmd.disk_index, cmd.lba, cmd.sectors);
  // Host-to-controller transfer first, then the disk write.
  const Bytes bytes = sectors_to_bytes(cmd.sectors);
  transfer_to_host(bytes, [this, cmd = std::move(cmd)]() mutable {
    disk::DiskCommand disk_cmd;
    disk_cmd.lba = cmd.lba;
    disk_cmd.sectors = cmd.sectors;
    disk_cmd.op = IoOp::kWrite;
    disk_cmd.id = cmd.id;
    disk_cmd.on_complete = std::move(cmd.on_complete);
    disks_[cmd.disk_index]->submit(std::move(disk_cmd));
  });
}

void Controller::reset_stats() {
  stats_ = ControllerStats{};
  cache_.reset_stats();
  for (auto& d : disks_) d->reset_stats();
}

}  // namespace sst::ctrl
