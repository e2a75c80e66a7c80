// On-disk command queue scheduling policies. Commodity drives of the
// paper's era service mostly in arrival order (FCFS); LOOK and SSTF are
// provided for the ablation benches and the oskernel baselines reuse the
// same ordering logic. Queued commands live in pooled slots threaded into
// an intrusive list (FCFS: arrival order; LOOK/SSTF: sorted by LBA), so
// push/pop allocate nothing once the pool is warm.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/intrusive_list.hpp"
#include "common/slab.hpp"
#include "common/types.hpp"
#include "disk/params.hpp"
#include "exec/task_fn.hpp"

namespace sst::disk {

/// A command as submitted to a disk: sector extent + operation. The
/// completion callback runs as the simulator event at the finish time, so
/// handlers read the finish time from the context's now().
struct DiskCommand {
  Lba lba = 0;
  Lba sectors = 0;
  IoOp op = IoOp::kRead;
  RequestId id = kInvalidRequest;
  exec::TaskFn on_complete;
};

struct QueuedCommand {
  DiskCommand cmd;
  SimTime enqueued = 0;
};

/// Strategy interface for picking the next command to service.
class CommandScheduler {
 public:
  virtual ~CommandScheduler() = default;
  virtual void push(QueuedCommand qc) = 0;
  /// Remove and return the next command given the current head position.
  virtual std::optional<QueuedCommand> pop_next(Lba head_lba) = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }

 protected:
  /// Pooled queue slot: the command plus its intrusive linkage.
  struct CommandSlot {
    QueuedCommand qc;
    IntrusiveHook<CommandSlot> hook;
  };
  using CommandList = IntrusiveList<CommandSlot, &CommandSlot::hook>;

  CommandSlot* acquire(QueuedCommand qc) {
    CommandSlot* const slot = slab_.acquire();
    slot->qc = std::move(qc);
    return slot;
  }

  /// Move the command out of `slot`, unlink it from `queue` and recycle it.
  QueuedCommand take(CommandList& queue, CommandSlot* slot) {
    QueuedCommand qc = std::move(slot->qc);
    queue.remove(*slot);
    slot->qc.cmd.on_complete = nullptr;  // drop captures on recycled slots
    slab_.release(slot);
    return qc;
  }

 private:
  Slab<CommandSlot> slab_;
};

/// First-come first-served.
class FcfsScheduler final : public CommandScheduler {
 public:
  void push(QueuedCommand qc) override;
  std::optional<QueuedCommand> pop_next(Lba head_lba) override;
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

 private:
  CommandList queue_;
};

/// Shared machinery for the LBA-sorted policies: the queue is kept in
/// ascending LBA order, equal LBAs in arrival order (insertion scans from
/// the tail — ascending arrivals make that O(1) amortized).
class SortedScheduler : public CommandScheduler {
 public:
  void push(QueuedCommand qc) override;
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

 protected:
  /// First slot with lba >= key (lower bound), or nullptr.
  [[nodiscard]] CommandSlot* first_at_or_above(Lba key) const;
  /// Last slot with lba <= key, or nullptr.
  [[nodiscard]] CommandSlot* last_at_or_below(Lba key) const;

  CommandList queue_;
};

/// LOOK elevator: sweeps upward through LBAs, reverses when nothing lies
/// ahead in the sweep direction.
class ElevatorScheduler final : public SortedScheduler {
 public:
  std::optional<QueuedCommand> pop_next(Lba head_lba) override;

 private:
  bool ascending_ = true;
};

/// Shortest seek (LBA distance) first. Starvation-prone; included for the
/// ablation study, not as a recommended default.
class SstfScheduler final : public SortedScheduler {
 public:
  std::optional<QueuedCommand> pop_next(Lba head_lba) override;
};

[[nodiscard]] std::unique_ptr<CommandScheduler> make_scheduler(SchedulerKind kind);

}  // namespace sst::disk
