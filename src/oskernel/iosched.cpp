#include "oskernel/iosched.hpp"

#include <algorithm>
#include <cassert>

namespace sst::oskernel {

void IoScheduler::on_complete(std::uint32_t /*pid*/, Lba /*end_lba*/, SimTime /*now*/) {}

// ----------------------------------------------------------------- noop ----

void NoopScheduler::add(BlockIo io) {
  if (!queue_.empty()) {
    BlockIo& back = queue_.back();
    if (back.pid == io.pid && back.lba + back.sectors == io.lba) {
      back.sectors += io.sectors;
      back.on_complete = [a = std::move(back.on_complete), b = std::move(io.on_complete)]() {
        if (a) a();
        if (b) b();
      };
      return;
    }
  }
  queue_.push_back(std::move(io));
}

std::optional<BlockIo> NoopScheduler::select(SimTime /*now*/, Lba /*head*/) {
  if (queue_.empty()) return std::nullopt;
  BlockIo io = std::move(queue_.front());
  queue_.pop_front();
  return io;
}

// ------------------------------------------------------------- deadline ----

void DeadlineScheduler::add(BlockIo io) {
  fifo_.emplace_back(io.arrival + read_expire_, io.lba);
  sorted_.emplace(io.lba, std::move(io));
}

BlockIo DeadlineScheduler::take(std::multimap<Lba, BlockIo>::iterator it) {
  BlockIo io = std::move(it->second);
  sorted_.erase(it);
  return io;
}

std::optional<BlockIo> DeadlineScheduler::select(SimTime now, Lba head) {
  if (sorted_.empty()) return std::nullopt;
  // Expired head-of-FIFO wins over the elevator sweep.
  while (!fifo_.empty() && sorted_.find(fifo_.front().second) == sorted_.end()) {
    fifo_.pop_front();  // already dispatched via the elevator
  }
  if (!fifo_.empty() && fifo_.front().first <= now) {
    auto it = sorted_.find(fifo_.front().second);
    fifo_.pop_front();
    return take(it);
  }
  auto it = sorted_.lower_bound(head);
  if (it == sorted_.end()) it = sorted_.begin();  // wrap: one-way elevator
  return take(it);
}

// --------------------------------------------------------- anticipatory ----

AnticipatoryScheduler::AnticipatoryScheduler(SimTime antic_expire, Lba near_sectors)
    : antic_expire_(antic_expire), near_sectors_(near_sectors) {}

void AnticipatoryScheduler::add(BlockIo io) {
  // Update the process think-time estimate: time from its last completion
  // to this submission.
  auto& proc = procs_[io.pid];
  if (proc.seen && io.arrival >= proc.last_complete) {
    const double think = static_cast<double>(io.arrival - proc.last_complete);
    proc.think_ewma_ns = proc.think_ewma_ns * 0.75 + think * 0.25;
  }
  fifo_.emplace_back(io.arrival + msec(500), io.lba);
  sorted_.emplace(io.lba, std::move(io));
}

BlockIo AnticipatoryScheduler::take(std::multimap<Lba, BlockIo>::iterator it) {
  BlockIo io = std::move(it->second);
  sorted_.erase(it);
  return io;
}

std::optional<std::multimap<Lba, BlockIo>::iterator> AnticipatoryScheduler::find_near(
    std::uint32_t pid, Lba from) {
  for (auto it = sorted_.lower_bound(from); it != sorted_.end(); ++it) {
    if (it->first > from + near_sectors_) break;
    if (it->second.pid == pid) return it;
  }
  return std::nullopt;
}

std::optional<BlockIo> AnticipatoryScheduler::select(SimTime now, Lba head) {
  if (anticipating_) {
    if (auto near = find_near(antic_pid_, antic_from_)) {
      anticipating_ = false;
      ++antic_hits_;
      return take(*near);
    }
    if (now < antic_deadline_) return std::nullopt;  // keep waiting
    anticipating_ = false;
    ++antic_timeouts_;
  }
  if (sorted_.empty()) return std::nullopt;
  while (!fifo_.empty() && sorted_.find(fifo_.front().second) == sorted_.end()) {
    fifo_.pop_front();
  }
  if (!fifo_.empty() && fifo_.front().first <= now) {
    auto it = sorted_.find(fifo_.front().second);
    fifo_.pop_front();
    return take(it);
  }
  auto it = sorted_.lower_bound(head);
  if (it == sorted_.end()) it = sorted_.begin();
  return take(it);
}

void AnticipatoryScheduler::on_complete(std::uint32_t pid, Lba end_lba, SimTime now) {
  auto& proc = procs_[pid];
  proc.last_complete = now;
  proc.seen = true;
  // Anticipate only when this process historically comes back fast enough
  // for the wait to pay off (and nothing from it is already queued nearby,
  // in which case select() will grab it immediately anyway).
  if (proc.think_ewma_ns < static_cast<double>(antic_expire_)) {
    anticipating_ = true;
    antic_pid_ = pid;
    antic_from_ = end_lba;
    antic_deadline_ = now + antic_expire_;
  }
}

// ------------------------------------------------------------------ cfq ----

void CfqScheduler::add(BlockIo io) {
  auto& q = queues_[io.pid];
  if (q.empty()) rr_.push_back(io.pid);
  q.push_back(std::move(io));
  ++total_;
}

std::optional<BlockIo> CfqScheduler::select(SimTime /*now*/, Lba /*head*/) {
  if (total_ == 0) return std::nullopt;
  // Continue the active pid's turn while it has quantum and work left.
  if (has_active_) {
    auto it = queues_.find(active_pid_);
    if (served_in_turn_ < quantum_ && it != queues_.end() && !it->second.empty()) {
      BlockIo io = std::move(it->second.front());
      it->second.pop_front();
      --total_;
      ++served_in_turn_;
      if (it->second.empty()) queues_.erase(it);
      return io;
    }
    has_active_ = false;
  }
  // Start the next pid's turn.
  while (!rr_.empty()) {
    const std::uint32_t pid = rr_.front();
    rr_.pop_front();
    auto it = queues_.find(pid);
    if (it == queues_.end() || it->second.empty()) continue;
    BlockIo io = std::move(it->second.front());
    it->second.pop_front();
    --total_;
    if (it->second.empty()) {
      queues_.erase(it);
    } else {
      rr_.push_back(pid);  // more work: rejoin the rotation
    }
    has_active_ = true;
    active_pid_ = pid;
    served_in_turn_ = 1;
    return io;
  }
  return std::nullopt;
}

std::unique_ptr<IoScheduler> make_io_scheduler(IoSchedKind kind) {
  switch (kind) {
    case IoSchedKind::kNoop: return std::make_unique<NoopScheduler>();
    case IoSchedKind::kDeadline: return std::make_unique<DeadlineScheduler>();
    case IoSchedKind::kAnticipatory: return std::make_unique<AnticipatoryScheduler>();
    case IoSchedKind::kCfq: return std::make_unique<CfqScheduler>();
  }
  return std::make_unique<NoopScheduler>();
}

}  // namespace sst::oskernel
