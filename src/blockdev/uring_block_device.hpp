// Real-I/O block device: io_uring + (attempted) O_DIRECT over a slice of a
// regular file or block device. This is the one BlockDevice implementation
// that performs actual disk I/O; everything above it — scheduler, staging
// area, clients — is the same code that runs against the simulated stack,
// scheduled on exec::RealContext instead of the simulator.
//
// The header is portable (no kernel headers leak out of the pimpl); the
// implementation is only compiled when the build enables -DSST_WITH_URING=ON,
// so referencing UringBlockDevice::open() without it is a link error. Use
// uring_backend_available() to branch at runtime. The kernel must be Linux
// 5.11 or newer (IORING_FEAT_EXT_ARG); open() fails naming it otherwise.
//
// I/O model:
//  - One ring per context: the first open() on a RealContext sets up an
//    io_uring and installs it as the context's CompletionDriver; later
//    opens on that context attach their file to the same ring, and the ring
//    goes away with its last device. The reactor blocks in that ring alone.
//  - Bounded in-flight depth per device: at most `queue_depth` of a
//    device's operations are inside the ring; further submissions park in
//    the device's FIFO backlog and enter as its completions arrive. The
//    ring's completion queue is sized for the summed depths, so no CQE can
//    overflow (open() refuses a device that would exceed it).
//  - Batched submission: submit() only *stages* SQEs into the submission
//    ring (pushing the batch early only when the SQ is full). The reactor's
//    blocking poll submits the staged batch and waits for completions in
//    one io_uring_enter(GETEVENTS | EXT_ARG) bounded by the next timer, so
//    the steady-state hot path is one syscall per batch, not per request.
//  - Setup flags: IORING_SETUP_COOP_TASKRUN | SINGLE_ISSUER | DEFER_TASKRUN
//    are requested, dropping the newest on EINVAL for older kernels;
//    stats().setup_flags reports what the ring got. SINGLE_ISSUER binds the
//    ring to the thread that opened it: open, submit and run the context
//    there.
//  - O_DIRECT is attempted first and silently degrades to buffered I/O when
//    the filesystem refuses it (tmpfs) or a request is not 4096-aligned
//    (pointer, offset and length all must be).
//  - Buffers registered via register_buffers() (typically the staging area's
//    extent-slab regions) are io_uring fixed buffers of the shared ring:
//    requests whose data pointer falls inside a registered region submit
//    READ_FIXED / WRITE_FIXED and skip the per-op pin/unpin.
//  - Requests without a data pointer borrow a recycled ring-owned scratch
//    buffer and go through the ring like any other request.
//  - Short reads/writes are transparently resubmitted for the remainder,
//    and transient kernel results (-EAGAIN/-EINTR) are retried a bounded
//    number of times; any other completion error, and any SQE the kernel
//    refuses, surfaces as IoStatus::kMediaError.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "exec/real_context.hpp"

namespace sst::blockdev {

struct UringParams {
  /// Backing file, pre-formatted with the deterministic content pattern
  /// (scripts/mkpattern.py) when read verification matters.
  std::string path;
  ByteOffset base_offset = 0;  ///< first byte of this device's slice
  /// Slice size in bytes; 0 = everything from base_offset to end of file.
  /// Must be sector aligned.
  Bytes capacity = 0;
  /// Bounded in-flight depth of this device; the first device opened on a
  /// context also sizes the shared ring's submission queue with it.
  std::uint32_t queue_depth = 64;
  bool direct = true;              ///< try O_DIRECT before buffered I/O
  /// Pattern seed reported through seed() so integrity checks can verify
  /// reads against a mkpattern.py-formatted file. Note the pattern is a
  /// whole-file property: a slice at base_offset B holds the pattern for
  /// absolute offsets [B, B+capacity).
  std::uint64_t seed = 0;
  std::string label = "uring0";
  /// No effect. Devices on one context always share its one ring; the
  /// field remains so existing callers that set it still compile.
  bool multiplex = false;
};

/// Size of UringStats::batch_size_log2: bucket i counts flushed batches of
/// [2^i, 2^(i+1)) SQEs, with the last bucket open-ended.
inline constexpr std::size_t kUringBatchBuckets = 8;

/// Per-device counters, plus ring-level ones (enter_syscalls through
/// batch_size_log2) that a ring counts once and reports only on the device
/// that opened it — zero on the devices that attached later — so sums over
/// a context's devices stay exact.
struct UringStats {
  std::uint64_t submitted = 0;         ///< requests accepted by submit()
  std::uint64_t completed = 0;         ///< requests fully completed
  std::uint64_t errors = 0;            ///< completions with a kernel error
  std::uint64_t short_resubmits = 0;   ///< short read/write continuations
  std::uint64_t transient_retries = 0; ///< -EAGAIN/-EINTR resubmits
  std::uint64_t fixed_buffer_ops = 0;  ///< ops that used a registered buffer
  std::uint64_t direct_ops = 0;        ///< ops issued through the O_DIRECT fd
  std::uint64_t backlog_peak = 0;      ///< max requests parked beyond queue_depth
  std::uint64_t enter_syscalls = 0;    ///< io_uring_enter calls (ring-level)
  std::uint64_t flush_batches = 0;     ///< enters that carried >= 1 SQE
  std::uint64_t sqes_flushed = 0;      ///< SQEs pushed by those enters
  std::uint64_t batch_size_max = 0;    ///< largest single flushed batch
  /// Histogram of flushed batch sizes: bucket i counts batches in
  /// [2^i, 2^(i+1)), last bucket open-ended.
  std::array<std::uint64_t, kUringBatchBuckets> batch_size_log2{};
  std::uint32_t setup_flags = 0;       ///< IORING_SETUP_* the shared ring got

  /// enter_syscalls per completed request. io_uring_enter is the only
  /// syscall the reactor makes while I/O is in flight, so over a context's
  /// devices this is its whole syscall cost per request (one enter per
  /// request ~= 1.0+; deep batched pipelines reach well below 0.2).
  [[nodiscard]] double syscalls_per_request() const {
    return completed > 0 ? static_cast<double>(enter_syscalls) /
                               static_cast<double>(completed)
                         : 0.0;
  }

  /// Field list for merge and export (common/stat_fields.hpp); the ring's
  /// setup_flags is a fact, not a counter.
  template <class V, class... S>
  static void fields(V& v, S&... s) {
    v.sum("submitted", s.submitted...);
    v.sum("completed", s.completed...);
    v.sum("errors", s.errors...);
    v.sum("short_resubmits", s.short_resubmits...);
    v.sum("transient_retries", s.transient_retries...);
    v.sum("fixed_buffer_ops", s.fixed_buffer_ops...);
    v.sum("direct_ops", s.direct_ops...);
    v.peak("backlog_peak", s.backlog_peak...);
    v.sum("enter_syscalls", s.enter_syscalls...);
    v.sum("flush_batches", s.flush_batches...);
    v.sum("sqes_flushed", s.sqes_flushed...);
    v.peak("batch_size_max", s.batch_size_max...);
    v.ratio("syscalls_per_request", s.syscalls_per_request()...);
    v.buckets("batch_size_log2", s.batch_size_log2...);
  }
};

class UringBlockDevice final : public BlockDevice {
 public:
  /// Open the backing file and attach it to `ctx`'s ring, setting the ring
  /// up (and installing it as the context's CompletionDriver) on the first
  /// open. Fails (as a value, no exceptions) when the file can't be opened,
  /// the slice exceeds the file, the kernel rejects io_uring setup or is
  /// older than 5.11, the ring's completion queue can't take this device's
  /// depth, or `ctx` already has a driver that is not a ring. The device
  /// must not outlive the context.
  [[nodiscard]] static Result<std::unique_ptr<UringBlockDevice>> open(
      exec::RealContext& ctx, UringParams params);

  /// Drains this device's requests (running the context's reactor poll, so
  /// other devices' completions are delivered too) before detaching.
  ~UringBlockDevice() override;

  /// Asserts sector alignment and slice bounds like every other device.
  /// Never completes inline: every request, including one without a data
  /// pointer, completes from the ring. A data-less request transfers
  /// through a ring-owned scratch buffer (4096-aligned, zero-initialised
  /// when first allocated, recycled per size), so timing-only callers —
  /// raw clients, the server's direct paths — cost what a real read costs.
  /// A data-less write stores whatever that buffer holds.
  void submit(BlockRequest request) override;

  [[nodiscard]] Bytes capacity() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t seed() const;

  /// This device's requests submitted and not yet completed (in the ring
  /// or parked in its backlog).
  [[nodiscard]] std::size_t in_flight() const;

  /// Register memory regions (e.g. ExtentSlab::regions()) as fixed buffers
  /// of the shared ring. Once per ring, before I/O is in flight: a repeat
  /// call on any device of the ring returns an "already registered" error.
  /// At most 1024 regions are registered (the kernel iovec limit), the rest
  /// simply stay unfixed. Best-effort: on error the ring keeps working
  /// without fixed buffers.
  Status register_buffers(const std::vector<std::pair<std::byte*, Bytes>>& regions);

  /// This device's counters; the ring-level ones are filled in only on the
  /// device that opened the ring (see UringStats).
  [[nodiscard]] const UringStats& stats() const;
  /// True when the backing file accepted O_DIRECT (tmpfs doesn't; those
  /// runs transparently use buffered I/O instead).
  [[nodiscard]] bool using_direct() const;

 private:
  struct Impl;  ///< one device: its file, depth cap, backlog and counters
  struct Ring;  ///< the context's one io_uring, shared by its devices
  explicit UringBlockDevice(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// True when the library was built with -DSST_WITH_URING=ON. When false,
/// UringBlockDevice is declared but not defined — don't call open().
[[nodiscard]] constexpr bool uring_backend_available() {
#if defined(SST_WITH_URING)
  return true;
#else
  return false;
#endif
}

}  // namespace sst::blockdev
