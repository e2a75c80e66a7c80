#include "disk/disk.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/logging.hpp"

namespace sst::disk {

Disk::Disk(exec::ExecutionContext& simulator, DiskParams params, DiskId id)
    : sim_(simulator),
      params_(params),
      id_(id),
      geometry_(params.geometry),
      seek_(params.seek, geometry_.total_cylinders()),
      cache_(params.cache),
      queue_(make_scheduler(params.scheduler)) {}

void Disk::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    tracer_->name_track(obs::disk_track(id_), "disk " + std::to_string(id_));
  }
}

void Disk::submit(DiskCommand cmd) {
  assert(cmd.sectors > 0);
  assert(cmd.lba + cmd.sectors <= geometry_.total_sectors());
  materialize_background();
  queue_->push(QueuedCommand{std::move(cmd), sim_.now()});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  try_service();
}

void Disk::materialize_background() {
  if (!background_.active) return;
  background_.active = false;
  const SimTime now = sim_.now();
  if (now <= background_.since) return;
  const double gap_s = to_seconds(now - background_.since);
  const Lba cursor = background_.next_lba;
  if (cursor >= geometry_.total_sectors()) return;
  const double rate = geometry_.sequential_rate_bps(cursor);
  Lba sectors = static_cast<Lba>(gap_s * rate / static_cast<double>(kSectorSize));
  sectors = std::min(sectors, background_.budget_sectors);
  sectors = std::min(sectors, geometry_.total_sectors() - cursor);
  if (sectors == 0) return;

  if (tracer_ != nullptr) {
    tracer_->instant(obs::disk_track(id_), "disk", "background_fill", now, "sectors",
                     static_cast<double>(sectors));
  }
  cache_.extend_from(cursor, sectors, now);
  const SimTime used = geometry_.media_time(cursor, sectors);
  stats_.media_time += used;
  stats_.busy_time += used;
  stats_.bytes_from_media += sectors_to_bytes(sectors);
  head_lba_ = cursor + sectors;
  head_cylinder_ = geometry_.locate(head_lba_ - 1).cylinder;
}

void Disk::try_service() {
  if (busy_) return;
  auto next = queue_->pop_next(head_lba_);
  if (!next) return;
  service(std::move(*next));
}

void Disk::service(QueuedCommand qc) {
  busy_ = true;
  ++stats_.commands;
  const DiskCommand& cmd = qc.cmd;
  const SimTime start = sim_.now();
  queue_wait_.add(start >= qc.enqueued ? start - qc.enqueued : 0);
  SimTime ready = start + params_.command_overhead;

  SimTime request_done = ready;
  SimTime mechanism_done = ready;

  // The mechanism is strictly serial (the next command starts at this one's
  // mechanism_done), so the whole phase ladder can be recorded now with
  // future timestamps and per-track time stays monotone.
  const std::uint32_t trace_tid = obs::disk_track(id_);
  if (tracer_ != nullptr) tracer_->begin(trace_tid, "disk", "cmd", start);

  if (cmd.op == IoOp::kRead) {
    ++stats_.reads;
    stats_.bytes_requested += sectors_to_bytes(cmd.sectors);
    if (cache_.lookup(cmd.lba, cmd.sectors, start)) {
      // Cache hit: stream straight from buffer RAM at the interface rate.
      const SimTime xfer = static_cast<SimTime>(
          static_cast<double>(sectors_to_bytes(cmd.sectors)) / params_.interface_rate_bps * 1e9 +
          0.5);
      request_done = ready + xfer;
      mechanism_done = request_done;
      if (tracer_ != nullptr) {
        tracer_->complete(trace_tid, "disk", "cache_hit_xfer", ready, request_done,
                          "sectors", static_cast<double>(cmd.sectors));
      }
    } else {
      // Miss: position the head, then read request + read-ahead into a
      // cache segment. The host sees completion when the demanded sectors
      // are off the platter; the fill tail keeps the disk busy.
      //
      // Partial-hit continuation: if the head already sits inside the
      // requested range and the prefix behind it is cached (background
      // prefetch racing the client), serve the prefix from cache and keep
      // streaming from the head instead of realigning a full rotation.
      Lba read_start = cmd.lba;
      if (head_lba_ > cmd.lba && head_lba_ < cmd.lba + cmd.sectors &&
          cache_.contains(cmd.lba, head_lba_ - cmd.lba)) {
        read_start = head_lba_;
      }
      const Lba demand = cmd.lba + cmd.sectors - read_start;
      Lba fill = cache_.fill_sectors(demand);
      fill = std::min<Lba>(fill, geometry_.total_sectors() - read_start);
      const Chs target = geometry_.locate(read_start);
      const SimTime seek = seek_.seek_between(head_cylinder_, target.cylinder);
      // Exact sequential continuation: the firmware keeps streaming (track
      // buffer / zero-latency read), so no rotational realignment is paid.
      const bool continuation = read_start == head_lba_;
      const SimTime rot =
          continuation ? 0 : geometry_.rotational_wait(read_start, ready + seek);
      const SimTime demand_media = geometry_.media_time(read_start, demand);
      const SimTime fill_media = geometry_.media_time(read_start, fill);
      request_done = ready + seek + rot + demand_media;
      mechanism_done = ready + seek + rot + fill_media;

      if (tracer_ != nullptr) {
        SimTime at = ready;
        if (seek > 0) {
          tracer_->begin(trace_tid, "disk", "seek", at);
          tracer_->end(trace_tid, "disk", "seek", at + seek);
        }
        at += seek;
        if (rot > 0) {
          tracer_->begin(trace_tid, "disk", "rotation", at);
          tracer_->end(trace_tid, "disk", "rotation", at + rot);
        }
        at += rot;
        tracer_->begin(trace_tid, "disk", "read_media", at);
        tracer_->end(trace_tid, "disk", "read_media", request_done);
        if (mechanism_done > request_done) {
          tracer_->begin(trace_tid, "disk", "readahead_fill", request_done);
          tracer_->end(trace_tid, "disk", "readahead_fill", mechanism_done);
        }
      }

      stats_.seek_time += seek;
      stats_.rotation_time += rot;
      stats_.media_time += fill_media;
      stats_.bytes_from_media += sectors_to_bytes(fill);

      if (read_start == cmd.lba) {
        cache_.install(read_start, fill, demand, start);
      } else {
        // Continuation past a cached prefix: merge into the prefix segment.
        cache_.extend_from(read_start, fill, start);
      }
      const Lba end = read_start + fill;
      head_lba_ = end;
      head_cylinder_ = geometry_.locate(end - 1).cylinder;
    }
  } else {
    ++stats_.writes;
    stats_.bytes_requested += sectors_to_bytes(cmd.sectors);
    // Write-through: position and write exactly the request.
    const Chs target = geometry_.locate(cmd.lba);
    const SimTime seek = seek_.seek_between(head_cylinder_, target.cylinder);
    const SimTime rot = geometry_.rotational_wait(cmd.lba, ready + seek);
    const SimTime media = geometry_.media_time(cmd.lba, cmd.sectors);
    request_done = ready + seek + rot + media;
    mechanism_done = request_done;

    if (tracer_ != nullptr) {
      SimTime at = ready;
      if (seek > 0) {
        tracer_->begin(trace_tid, "disk", "seek", at);
        tracer_->end(trace_tid, "disk", "seek", at + seek);
      }
      at += seek;
      if (rot > 0) {
        tracer_->begin(trace_tid, "disk", "rotation", at);
        tracer_->end(trace_tid, "disk", "rotation", at + rot);
      }
      at += rot;
      tracer_->begin(trace_tid, "disk", "write_media", at);
      tracer_->end(trace_tid, "disk", "write_media", request_done);
    }

    stats_.seek_time += seek;
    stats_.rotation_time += rot;
    stats_.media_time += media;
    stats_.bytes_from_media += sectors_to_bytes(cmd.sectors);

    cache_.invalidate(cmd.lba, cmd.sectors);
    const Lba end = cmd.lba + cmd.sectors;
    head_lba_ = end;
    head_cylinder_ = geometry_.locate(end - 1).cylinder;
  }

  stats_.busy_time += mechanism_done - start;
  service_.add(request_done - start);
  if (tracer_ != nullptr) tracer_->end(trace_tid, "disk", "cmd", mechanism_done);

  // Completion fires when the host's data is available ...
  sim_.schedule_at(request_done, qc.cmd.on_complete ? std::move(qc.cmd.on_complete)
                                                     : exec::TaskFn([] {}));
  // ... but the next command starts only once the mechanism is free.
  const bool was_read = cmd.op == IoOp::kRead;
  sim_.schedule_at(mechanism_done, [this, was_read]() {
    busy_ = false;
    try_service();
    // Going idle after a read: let the firmware prefetch ahead of the head
    // until the next command arrives (bounded look-ahead).
    if (!busy_ && was_read && cache_.enabled() &&
        params_.cache.read_ahead != 0) {
      background_.active = true;
      background_.next_lba = head_lba_;
      background_.since = sim_.now();
      background_.budget_sectors = 2 * cache_.segment_capacity_sectors();
    }
  });
}

void Disk::reset_stats() {
  stats_ = DiskStats{};
  cache_.reset_stats();
  queue_wait_.reset();
  service_.reset();
}

}  // namespace sst::disk
