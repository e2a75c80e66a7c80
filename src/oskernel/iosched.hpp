// Linux-2.6-era I/O scheduler models used as the paper's Figure-2 baseline:
// noop (FIFO + merge), deadline (elevator + expiries), anticipatory
// (deadline + per-process anticipation with think-time estimation), and CFQ
// (per-process round-robin with a request quantum). These sit under the
// kernel page cache (kernel_io.hpp) and above a BlockDevice.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/types.hpp"
#include "exec/task_fn.hpp"

namespace sst::oskernel {

enum class IoSchedKind : std::uint8_t { kNoop, kDeadline, kAnticipatory, kCfq };

[[nodiscard]] constexpr const char* to_string(IoSchedKind k) {
  switch (k) {
    case IoSchedKind::kNoop: return "noop";
    case IoSchedKind::kDeadline: return "deadline";
    case IoSchedKind::kAnticipatory: return "anticipatory";
    case IoSchedKind::kCfq: return "cfq";
  }
  return "?";
}

/// One block-layer request (reads only; the Figure-2 workload is read-only).
struct BlockIo {
  Lba lba = 0;
  Lba sectors = 0;
  std::uint32_t pid = 0;  ///< issuing process (stream)
  SimTime arrival = 0;
  exec::TaskFn on_complete;
};

class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void add(BlockIo io) = 0;

  /// Choose the next request to send to the device, or nullopt if the
  /// scheduler prefers to wait (anticipation); wakeup_hint() then tells the
  /// driver when to ask again.
  virtual std::optional<BlockIo> select(SimTime now, Lba head) = 0;

  /// Device completed a request from `pid` ending at `end_lba`.
  virtual void on_complete(std::uint32_t pid, Lba end_lba, SimTime now);

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Absolute time at which a nullopt select() should be retried.
  [[nodiscard]] virtual SimTime wakeup_hint() const { return kSimTimeMax; }
};

/// FIFO with back-merging of contiguous same-process requests.
class NoopScheduler final : public IoScheduler {
 public:
  void add(BlockIo io) override;
  std::optional<BlockIo> select(SimTime now, Lba head) override;
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

 private:
  std::deque<BlockIo> queue_;
};

/// One-way elevator over LBAs with a read-expiry FIFO (500 ms default).
class DeadlineScheduler final : public IoScheduler {
 public:
  explicit DeadlineScheduler(SimTime read_expire = msec(500)) : read_expire_(read_expire) {}

  void add(BlockIo io) override;
  std::optional<BlockIo> select(SimTime now, Lba head) override;
  [[nodiscard]] std::size_t size() const override { return sorted_.size(); }

 private:
  BlockIo take(std::multimap<Lba, BlockIo>::iterator it);

  SimTime read_expire_;
  std::multimap<Lba, BlockIo> sorted_;
  std::deque<std::pair<SimTime, Lba>> fifo_;  ///< (expiry, lba) arrival order
};

/// Deadline elevator plus anticipation: after a read from process P
/// completes, hold the disk idle up to `antic_expire` waiting for P's next
/// nearby read — but only for processes whose estimated think time makes
/// anticipation likely to pay off (the think-time EWMA is the mechanism
/// that lets AS degrade gracefully as process counts grow).
class AnticipatoryScheduler final : public IoScheduler {
 public:
  explicit AnticipatoryScheduler(SimTime antic_expire = msec(6),
                                 Lba near_sectors = bytes_to_sectors(2 * MiB));

  void add(BlockIo io) override;
  std::optional<BlockIo> select(SimTime now, Lba head) override;
  void on_complete(std::uint32_t pid, Lba end_lba, SimTime now) override;
  [[nodiscard]] std::size_t size() const override { return sorted_.size(); }
  [[nodiscard]] SimTime wakeup_hint() const override {
    return anticipating_ ? antic_deadline_ : kSimTimeMax;
  }

  [[nodiscard]] std::uint64_t anticipation_hits() const { return antic_hits_; }
  [[nodiscard]] std::uint64_t anticipation_timeouts() const { return antic_timeouts_; }

 private:
  struct ProcessState {
    SimTime last_complete = 0;
    double think_ewma_ns = 0.0;
    bool seen = false;
  };

  BlockIo take(std::multimap<Lba, BlockIo>::iterator it);
  [[nodiscard]] std::optional<std::multimap<Lba, BlockIo>::iterator> find_near(
      std::uint32_t pid, Lba from);

  SimTime antic_expire_;
  Lba near_sectors_;
  std::multimap<Lba, BlockIo> sorted_;
  std::deque<std::pair<SimTime, Lba>> fifo_;
  std::map<std::uint32_t, ProcessState> procs_;

  bool anticipating_ = false;
  std::uint32_t antic_pid_ = 0;
  Lba antic_from_ = 0;
  SimTime antic_deadline_ = 0;
  std::uint64_t antic_hits_ = 0;
  std::uint64_t antic_timeouts_ = 0;
};

/// Per-process queues served round-robin, `quantum` requests per turn.
class CfqScheduler final : public IoScheduler {
 public:
  explicit CfqScheduler(std::uint32_t quantum = 4) : quantum_(quantum) {}

  void add(BlockIo io) override;
  std::optional<BlockIo> select(SimTime now, Lba head) override;
  [[nodiscard]] std::size_t size() const override { return total_; }

 private:
  std::uint32_t quantum_;
  std::map<std::uint32_t, std::deque<BlockIo>> queues_;
  std::deque<std::uint32_t> rr_;  ///< pids with queued work, service order
  std::uint32_t active_pid_ = 0;
  std::uint32_t served_in_turn_ = 0;
  bool has_active_ = false;
  std::size_t total_ = 0;
};

[[nodiscard]] std::unique_ptr<IoScheduler> make_io_scheduler(IoSchedKind kind);

}  // namespace sst::oskernel
