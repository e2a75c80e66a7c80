// Kernel read path model: page cache + per-process adaptive read-ahead +
// pluggable I/O scheduler over one block device. This is the substrate for
// the paper's Figure 2 (xdd over Ext3 on Linux 2.6.11) baseline.
//
// Mechanics modelled:
//  - 4 KB pages in a global LRU; reads hit, wait on in-flight pages, or
//    miss and go to the scheduler as merged contiguous runs.
//  - Per-process read-ahead: windows grow from 16 KB to 128 KB on
//    sequential access and are topped up asynchronously when the demand
//    cursor enters the second half of the current window (pipelining).
//  - One request outstanding at the device (2.6-era single dispatch),
//    which is what gives the anticipatory scheduler its leverage.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/types.hpp"
#include "oskernel/iosched.hpp"
#include "exec/execution_context.hpp"

namespace sst::oskernel {

struct KernelIoParams {
  Bytes page_cache_bytes = 896 * MiB;  ///< the testbed's 1 GB minus kernel
  Bytes initial_readahead = 16 * KiB;
  Bytes max_readahead = 128 * KiB;  ///< 2.6-era default window cap
  IoSchedKind scheduler = IoSchedKind::kAnticipatory;
};

struct KernelIoStats {
  std::uint64_t reads = 0;
  std::uint64_t page_hits = 0;
  std::uint64_t page_misses = 0;   ///< demand pages needing new I/O
  std::uint64_t page_waits = 0;    ///< demand pages already in flight
  std::uint64_t ios_dispatched = 0;
  Bytes bytes_io = 0;
  Bytes bytes_readahead = 0;
  std::uint64_t pages_evicted = 0;
};

class KernelIo {
 public:
  static constexpr Bytes kPageSize = 4 * KiB;

  /// `device` must outlive the KernelIo.
  KernelIo(exec::ExecutionContext& simulator, blockdev::BlockDevice& device, KernelIoParams params);
  ~KernelIo();
  KernelIo(const KernelIo&) = delete;
  KernelIo& operator=(const KernelIo&) = delete;

  /// Buffered read: `cb` fires once every page of [offset, offset+length)
  /// is resident (the context's now() is the completion time). `pid`
  /// identifies the issuing process for read-ahead state and scheduler
  /// fairness.
  void read(std::uint32_t pid, ByteOffset offset, Bytes length, exec::TaskFn cb);

  [[nodiscard]] const KernelIoStats& stats() const { return stats_; }
  [[nodiscard]] IoScheduler& scheduler() { return *sched_; }
  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }

 private:
  using PageIndex = std::uint64_t;

  struct PendingRead {
    std::size_t pages_remaining = 0;
    exec::TaskFn cb;
  };

  struct Page {
    bool present = false;  ///< false while the I/O is in flight
    std::list<PageIndex>::iterator lru_it{};
    bool in_lru = false;
    std::vector<std::shared_ptr<PendingRead>> waiters;
  };

  struct ReadaheadState {
    ByteOffset expected_next = 0;
    Bytes window = 0;
    ByteOffset ra_end = 0;  ///< read-ahead issued up to here
    bool active = false;
  };

  void touch_lru(PageIndex page, Page& state);
  void evict_if_needed();
  /// Queue an I/O for pages [first, last] that are not resident/in-flight;
  /// contiguous missing pages become single scheduler requests.
  void issue_pages(std::uint32_t pid, PageIndex first, PageIndex last, bool readahead,
                   const std::shared_ptr<PendingRead>& waiter);
  void run_readahead(std::uint32_t pid, ByteOffset offset, Bytes length);
  void try_dispatch();
  void on_io_complete(PageIndex first, PageIndex last);

  exec::ExecutionContext& sim_;
  blockdev::BlockDevice& device_;
  KernelIoParams params_;
  std::unique_ptr<IoScheduler> sched_;
  std::size_t max_pages_;

  std::unordered_map<PageIndex, Page> pages_;
  std::list<PageIndex> lru_;  ///< front = most recent
  std::map<std::uint32_t, ReadaheadState> readahead_;

  bool device_busy_ = false;
  Lba head_lba_ = 0;
  exec::TaskHandle retry_event_;
  KernelIoStats stats_;
};

}  // namespace sst::oskernel
