#include "oskernel/kernel_io.hpp"

#include <algorithm>
#include <cassert>

namespace sst::oskernel {

KernelIo::KernelIo(exec::ExecutionContext& simulator, blockdev::BlockDevice& device,
                   KernelIoParams params)
    : sim_(simulator),
      device_(device),
      params_(params),
      sched_(make_io_scheduler(params.scheduler)),
      max_pages_(std::max<std::size_t>(16, params.page_cache_bytes / kPageSize)) {}

KernelIo::~KernelIo() { retry_event_.cancel(); }

void KernelIo::touch_lru(PageIndex page, Page& state) {
  if (state.in_lru) lru_.erase(state.lru_it);
  lru_.push_front(page);
  state.lru_it = lru_.begin();
  state.in_lru = true;
}

void KernelIo::evict_if_needed() {
  while (pages_.size() > max_pages_ && !lru_.empty()) {
    const PageIndex victim = lru_.back();
    const auto it = pages_.find(victim);
    assert(it != pages_.end());
    // LRU only holds present pages; in-flight pages are not evictable.
    lru_.pop_back();
    pages_.erase(it);
    ++stats_.pages_evicted;
  }
}

void KernelIo::read(std::uint32_t pid, ByteOffset offset, Bytes length, exec::TaskFn cb) {
  assert(length > 0);
  assert(offset + length <= device_.capacity());
  ++stats_.reads;

  const PageIndex first = offset / kPageSize;
  const PageIndex last = (offset + length - 1) / kPageSize;

  auto pending = std::make_shared<PendingRead>();
  pending->cb = std::move(cb);
  pending->pages_remaining = 0;

  for (PageIndex p = first; p <= last; ++p) {
    auto it = pages_.find(p);
    if (it != pages_.end()) {
      if (it->second.present) {
        ++stats_.page_hits;
        touch_lru(p, it->second);
      } else {
        ++stats_.page_waits;
        ++pending->pages_remaining;
        it->second.waiters.push_back(pending);
      }
    }
  }
  // Demand-issue the missing pages (contiguous runs become one request).
  issue_pages(pid, first, last, /*readahead=*/false, pending);

  run_readahead(pid, offset, length);
  evict_if_needed();

  if (pending->pages_remaining == 0) {
    // Fully cached: complete on the next simulator step (never inline, so
    // callers can treat completion as always asynchronous).
    sim_.schedule_after(0, [pending, this]() {
      if (pending->cb) pending->cb();
    });
  }
  try_dispatch();
}

void KernelIo::issue_pages(std::uint32_t pid, PageIndex first, PageIndex last, bool readahead,
                           const std::shared_ptr<PendingRead>& waiter) {
  PageIndex run_start = 0;
  bool in_run = false;
  auto flush_run = [&](PageIndex run_end) {
    if (!in_run) return;
    in_run = false;
    BlockIo io;
    io.lba = run_start * (kPageSize / kSectorSize);
    io.sectors = (run_end - run_start + 1) * (kPageSize / kSectorSize);
    io.pid = pid;
    io.arrival = sim_.now();
    io.on_complete = [this, run_start, run_end]() { on_io_complete(run_start, run_end); };
    ++stats_.ios_dispatched;
    stats_.bytes_io += sectors_to_bytes(io.sectors);
    if (readahead) stats_.bytes_readahead += sectors_to_bytes(io.sectors);
    sched_->add(std::move(io));
  };

  for (PageIndex p = first; p <= last; ++p) {
    auto it = pages_.find(p);
    if (it != pages_.end()) {
      flush_run(p - 1);
      continue;  // resident or already in flight
    }
    if (!readahead) ++stats_.page_misses;
    Page fresh;
    fresh.present = false;
    if (waiter) {
      ++waiter->pages_remaining;
      fresh.waiters.push_back(waiter);
    }
    pages_.emplace(p, std::move(fresh));
    if (!in_run) {
      run_start = p;
      in_run = true;
    }
  }
  flush_run(last);
}

void KernelIo::run_readahead(std::uint32_t pid, ByteOffset offset, Bytes length) {
  if (params_.max_readahead == 0) return;
  auto& state = readahead_[pid];
  const ByteOffset end = offset + length;

  const bool sequential = state.active && offset == state.expected_next;
  if (!sequential) {
    state.window = params_.initial_readahead;
    state.ra_end = end;
    state.active = true;
  }
  state.expected_next = end;

  // Top up when the demand cursor eats into the second half of the issued
  // window; each top-up doubles the window (up to the cap), so a steady
  // sequential reader keeps ~window bytes in flight ahead of itself.
  const Bytes ahead = state.ra_end > end ? state.ra_end - end : 0;
  if (ahead <= state.window / 2) {
    const ByteOffset target =
        std::min<ByteOffset>(end + state.window, device_.capacity());
    if (target > state.ra_end) {
      const PageIndex first = state.ra_end / kPageSize;
      const PageIndex last = (target - 1) / kPageSize;
      issue_pages(pid, first, last, /*readahead=*/true, nullptr);
      state.ra_end = target;
    }
    state.window = std::min<Bytes>(state.window * 2, params_.max_readahead);
  }
}

void KernelIo::try_dispatch() {
  if (device_busy_) return;
  retry_event_.cancel();
  auto io = sched_->select(sim_.now(), head_lba_);
  if (!io.has_value()) {
    const SimTime hint = sched_->wakeup_hint();
    if (!sched_->empty() && hint != kSimTimeMax) {
      retry_event_ = sim_.schedule_at(std::max(hint, sim_.now()), [this]() { try_dispatch(); });
    }
    return;
  }
  device_busy_ = true;
  blockdev::BlockRequest req;
  req.offset = sectors_to_bytes(io->lba);
  req.length = sectors_to_bytes(io->sectors);
  req.op = IoOp::kRead;
  const std::uint32_t pid = io->pid;
  const Lba end_lba = io->lba + io->sectors;
  req.on_complete = [this, cb = std::move(io->on_complete), pid, end_lba](SimTime t, IoStatus) {
    device_busy_ = false;
    head_lba_ = end_lba;
    sched_->on_complete(pid, end_lba, t);
    if (cb) cb();
    try_dispatch();
  };
  device_.submit(std::move(req));
}

void KernelIo::on_io_complete(PageIndex first, PageIndex last) {
  for (PageIndex p = first; p <= last; ++p) {
    auto it = pages_.find(p);
    if (it == pages_.end()) continue;  // evicted while in flight (rare)
    Page& page = it->second;
    page.present = true;
    touch_lru(p, page);
    for (auto& waiter : page.waiters) {
      assert(waiter->pages_remaining > 0);
      if (--waiter->pages_remaining == 0 && waiter->cb) {
        waiter->cb();
        waiter->cb = nullptr;
      }
    }
    page.waiters.clear();
  }
  evict_if_needed();
}

}  // namespace sst::oskernel
