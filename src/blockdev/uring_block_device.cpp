// io_uring block device, implemented against the raw kernel ABI
// (<linux/io_uring.h> + syscalls) so no userspace liburing is required.
// Every device opened on one exec::RealContext shares that context's one
// ring (UringBlockDevice::Ring), which is also the context's
// CompletionDriver. Single-threaded like the rest of the execution model:
// submissions and completions both happen on the reactor thread, so the
// ring barriers are only against the kernel, never against another
// userspace thread.
#include "blockdev/uring_block_device.hpp"

#if !defined(SST_WITH_URING)
#error "uring_block_device.cpp must only be compiled with SST_WITH_URING"
#endif

#include <fcntl.h>
#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

// Modern setup flags, defined locally when the build host's kernel headers
// predate them — availability is detected at runtime (io_uring_setup
// rejects unknown flags with EINVAL and we fall back), so compiling against
// old headers must not silently disable the fast path.
#ifndef IORING_SETUP_COOP_TASKRUN
#define IORING_SETUP_COOP_TASKRUN (1U << 8)
#endif
#ifndef IORING_SETUP_SINGLE_ISSUER
#define IORING_SETUP_SINGLE_ISSUER (1U << 12)
#endif
#ifndef IORING_SETUP_DEFER_TASKRUN
#define IORING_SETUP_DEFER_TASKRUN (1U << 13)
#endif

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <string>
#include <unordered_map>

namespace sst::blockdev {

namespace {

/// O_DIRECT wants pointer, file offset and length aligned to the logical
/// block size; 4096 covers every modern device.
constexpr std::uint64_t kDirectAlign = 4096;
/// Kernel limit on registered-buffer iovecs (UIO_MAXIOV).
constexpr std::size_t kMaxRegisteredRegions = 1024;
/// sqe.len is 32-bit; cap each SQE well below the wrap point and let the
/// short-transfer continuation pick up the remainder. 1 GiB keeps O_DIRECT
/// alignment (multiple of 4096) for any aligned request.
constexpr Bytes kMaxSqeBytes = Bytes{1} << 30;
/// Transient kernel results (-EAGAIN/-EINTR) are resubmitted up to this
/// many times per request before surfacing as a media error.
constexpr std::uint32_t kMaxTransientRetries = 8;
/// Smallest completion queue a ring gets. Every in-ring request has at most
/// one CQE outstanding and each device caps its in-ring requests at its
/// queue_depth, so a CQ at least the attached devices' summed depths can
/// never overflow; open() refuses a device that would break that.
constexpr unsigned kMinCqEntries = 4096;

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags,
                       const void* arg, std::size_t argsz) {
  return static_cast<int>(
      syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

unsigned load_acquire(unsigned* ptr) {
  return std::atomic_ref<unsigned>(*ptr).load(std::memory_order_acquire);
}

void store_release(unsigned* ptr, unsigned value) {
  std::atomic_ref<unsigned>(*ptr).store(value, std::memory_order_release);
}

bool aligned_for_direct(const BlockRequest& request, ByteOffset file_offset) {
  return (reinterpret_cast<std::uintptr_t>(request.data) % kDirectAlign) == 0 &&
         (file_offset % kDirectAlign) == 0 && (request.length % kDirectAlign) == 0;
}

/// Ring-owned buffers for data-less requests: a real device cannot
/// transfer into nothing, so a request without a data pointer borrows a
/// 4096-aligned (O_DIRECT-capable), zero-initialised buffer for its stay in
/// the ring. Buffers are recycled per size, so a closed loop stops
/// allocating after its first lap.
class ScratchPool {
 public:
  std::byte* acquire(Bytes size) {
    std::vector<std::byte*>& free_list = free_[size];
    if (!free_list.empty()) {
      std::byte* buffer = free_list.back();
      free_list.pop_back();
      return buffer;
    }
    const Bytes rounded = (size + kDirectAlign - 1) / kDirectAlign * kDirectAlign;
    void* mem = std::aligned_alloc(kDirectAlign, rounded);
    if (mem == nullptr) throw std::bad_alloc();
    std::memset(mem, 0, rounded);
    owned_.emplace_back(static_cast<std::byte*>(mem));
    return owned_.back().get();
  }

  void release(std::byte* buffer, Bytes size) { free_[size].push_back(buffer); }

 private:
  struct FreeDeleter {
    void operator()(std::byte* ptr) const { std::free(ptr); }
  };
  std::unordered_map<Bytes, std::vector<std::byte*>> free_;
  std::vector<std::unique_ptr<std::byte, FreeDeleter>> owned_;
};

}  // namespace

/// One device: its backing file, its depth cap and backlog, its counters.
struct UringBlockDevice::Impl {
  std::shared_ptr<Ring> ring;
  UringParams params;
  Bytes capacity = 0;
  int direct_fd = -1;    ///< -1 when the filesystem refused O_DIRECT
  int buffered_fd = -1;  ///< always valid; serves unaligned requests
  std::size_t inflight = 0;  ///< this device's requests inside the ring
  /// FIFO of accepted requests waiting for one of this device's ring slots.
  std::deque<BlockRequest> backlog;
  UringStats stats;

  ~Impl() {
    if (direct_fd >= 0) close(direct_fd);
    if (buffered_fd >= 0) close(buffered_fd);
  }
};

/// The context's one io_uring: every device opened on the context stages
/// its SQEs here, and the reactor blocks in it.
struct UringBlockDevice::Ring final : exec::CompletionDriver,
                                      std::enable_shared_from_this<Ring> {
  exec::RealContext* ctx = nullptr;
  int ring_fd = -1;
  bool defer_taskrun = false;  ///< ring got IORING_SETUP_DEFER_TASKRUN
  unsigned sq_entries = 0;
  unsigned cq_entries = 0;
  /// SQEs written into the SQ ring but not yet pushed to the kernel.
  unsigned staged = 0;
  /// Summed queue_depth of the attached devices: the most requests (and so
  /// CQEs) that can be inside the ring at once.
  std::size_t reserved_depth = 0;
  /// Device that opened the ring and reports its ring-level counters;
  /// nullptr once that device is gone.
  const Impl* reporter = nullptr;
  /// Ring-level counters (enter_syscalls through batch_size_log2, and
  /// setup_flags); the per-device fields stay zero.
  UringStats counters;

  // Ring mappings. With IORING_FEAT_SINGLE_MMAP the SQ and CQ rings share
  // one mapping; sqes are always their own.
  void* sq_ring_mem = MAP_FAILED;
  std::size_t sq_ring_bytes = 0;
  void* cq_ring_mem = MAP_FAILED;
  std::size_t cq_ring_bytes = 0;
  void* sqe_mem = MAP_FAILED;
  std::size_t sqe_bytes = 0;

  // Raw ring pointers into the mappings.
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  io_uring_sqe* sqes = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;

  /// One record per request inside the ring, addressed by user_data.
  struct Pending {
    Impl* dev = nullptr;  ///< device the request was submitted to
    BlockRequest request;
    Bytes done = 0;  ///< bytes already transferred (short-op continuation)
    int buf_index = -1;
    std::uint32_t next_free = UINT32_MAX;
    std::uint32_t retries = 0;  ///< consecutive -EAGAIN/-EINTR resubmits
    bool alive = false;
    bool scratch = false;  ///< `request.data` is borrowed from `scratch_pool`
  };
  std::vector<Pending> pending;
  std::uint32_t free_head = UINT32_MAX;
  std::size_t inflight = 0;  ///< live `pending` entries, all devices
  /// Requests whose SQE the kernel refused. They complete with kMediaError
  /// from the next reap, never inside submit().
  std::vector<std::uint32_t> refused;
  ScratchPool scratch_pool;

  struct Region {
    std::byte* base = nullptr;
    Bytes length = 0;
  };
  std::vector<Region> regions;  ///< sorted by base; index == buf_index
  bool buffers_registered = false;

  /// Set up a ring with an SQ of `entries` and install it as `context`'s
  /// driver.
  static Result<std::shared_ptr<Ring>> create(exec::RealContext& context, unsigned entries) {
    auto ring = std::make_shared<Ring>();
    ring->ctx = &context;
    if (Status status = ring->setup(entries); !status.ok()) return status.error();
    context.set_driver(ring.get());
    return ring;
  }

  ~Ring() override {
    if (ctx->driver() == this) ctx->set_driver(nullptr);
    if (sqe_mem != MAP_FAILED) munmap(sqe_mem, sqe_bytes);
    if (cq_ring_mem != MAP_FAILED && cq_ring_mem != sq_ring_mem) {
      munmap(cq_ring_mem, cq_ring_bytes);
    }
    if (sq_ring_mem != MAP_FAILED) munmap(sq_ring_mem, sq_ring_bytes);
    if (ring_fd >= 0) close(ring_fd);
  }

  Status setup(unsigned entries) {
    // Runtime feature detection with graceful fallback: each attempt drops
    // the newest flag, so an old kernel (EINVAL on unknown setup flags)
    // ends at a plain ring. The completion queue is sized explicitly
    // (IORING_SETUP_CQSIZE) for every attempt.
    const unsigned coop = IORING_SETUP_COOP_TASKRUN;
    const unsigned single = IORING_SETUP_SINGLE_ISSUER;
    const unsigned defer = IORING_SETUP_DEFER_TASKRUN;
    io_uring_params setup{};
    for (const unsigned flags : {coop | single | defer, coop | single, coop, 0U}) {
      setup = io_uring_params{};
      setup.flags = flags | IORING_SETUP_CQSIZE;
      setup.cq_entries = std::max(kMinCqEntries, 2 * entries);
      ring_fd = sys_io_uring_setup(entries, &setup);
      if (ring_fd >= 0) {
        counters.setup_flags = setup.flags;
        defer_taskrun = (flags & defer) != 0;
        break;
      }
      if (errno != EINVAL) break;  // only unknown-flag rejections fall back
    }
    if (ring_fd < 0) {
      return make_error("io_uring_setup failed: " + std::string(strerror(errno)));
    }
    if ((setup.features & IORING_FEAT_EXT_ARG) == 0) {
      return make_error(
          "uring: the kernel lacks IORING_FEAT_EXT_ARG (timed completion waits); "
          "Linux 5.11 or newer is required");
    }
    sq_entries = setup.sq_entries;
    cq_entries = setup.cq_entries;

    sq_ring_bytes = setup.sq_off.array + setup.sq_entries * sizeof(unsigned);
    cq_ring_bytes = setup.cq_off.cqes + setup.cq_entries * sizeof(io_uring_cqe);
    if ((setup.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      sq_ring_bytes = cq_ring_bytes = std::max(sq_ring_bytes, cq_ring_bytes);
    }
    sq_ring_mem = mmap(nullptr, sq_ring_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (sq_ring_mem == MAP_FAILED) {
      return make_error("io_uring SQ ring mmap failed: " + std::string(strerror(errno)));
    }
    if ((setup.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      cq_ring_mem = sq_ring_mem;
    } else {
      cq_ring_mem = mmap(nullptr, cq_ring_bytes, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_CQ_RING);
      if (cq_ring_mem == MAP_FAILED) {
        return make_error("io_uring CQ ring mmap failed: " + std::string(strerror(errno)));
      }
    }
    sqe_bytes = setup.sq_entries * sizeof(io_uring_sqe);
    sqe_mem = mmap(nullptr, sqe_bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (sqe_mem == MAP_FAILED) {
      return make_error("io_uring SQE mmap failed: " + std::string(strerror(errno)));
    }

    auto* sq_base = static_cast<std::uint8_t*>(sq_ring_mem);
    sq_head = reinterpret_cast<unsigned*>(sq_base + setup.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq_base + setup.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sq_base + setup.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq_base + setup.sq_off.array);
    sqes = static_cast<io_uring_sqe*>(sqe_mem);
    auto* cq_base = static_cast<std::uint8_t*>(cq_ring_mem);
    cq_head = reinterpret_cast<unsigned*>(cq_base + setup.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq_base + setup.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cq_base + setup.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(cq_base + setup.cq_off.cqes);
    return Status::success();
  }

  std::uint32_t acquire_pending() {
    if (free_head != UINT32_MAX) {
      const std::uint32_t index = free_head;
      free_head = pending[index].next_free;
      return index;
    }
    pending.emplace_back();
    return static_cast<std::uint32_t>(pending.size() - 1);
  }

  /// Registered region containing [data, data+length), or -1.
  int region_of(const std::byte* data, Bytes length) const {
    if (!buffers_registered) return -1;
    auto it = std::upper_bound(regions.begin(), regions.end(), data,
                               [](const std::byte* ptr, const Region& region) {
                                 return ptr < region.base;
                               });
    if (it == regions.begin()) return -1;
    --it;
    if (data >= it->base && data + length <= it->base + it->length) {
      return static_cast<int>(it - regions.begin());
    }
    return -1;
  }

  /// Stage the continuation of `pending[index]` into the SQ ring without
  /// telling the kernel; the reactor's blocking poll submits the staged
  /// batch. A full SQ (several devices' bursts) is pushed first.
  void stage_sqe(std::uint32_t index) {
    if (staged == sq_entries) flush();
    Pending& entry = pending[index];
    Impl& dev = *entry.dev;
    const BlockRequest& request = entry.request;
    const ByteOffset file_offset = dev.params.base_offset + request.offset + entry.done;
    std::byte* data = request.data + entry.done;
    const Bytes remaining = request.length - entry.done;
    // sqe.len is only 32 bits wide: issue at most kMaxSqeBytes per SQE and
    // let reap()'s short-transfer continuation submit the rest.
    const Bytes chunk = std::min(remaining, kMaxSqeBytes);

    const bool use_direct = dev.direct_fd >= 0 && aligned_for_direct(request, file_offset) &&
                            (reinterpret_cast<std::uintptr_t>(data) % kDirectAlign) == 0 &&
                            (remaining % kDirectAlign) == 0;
    if (use_direct) ++dev.stats.direct_ops;

    const unsigned tail = load_acquire(sq_tail);
    const unsigned slot = tail & sq_mask;
    io_uring_sqe& sqe = sqes[slot];
    std::memset(&sqe, 0, sizeof(sqe));
    sqe.fd = use_direct ? dev.direct_fd : dev.buffered_fd;
    sqe.off = file_offset;
    sqe.addr = reinterpret_cast<std::uint64_t>(data);
    sqe.len = static_cast<std::uint32_t>(chunk);
    sqe.user_data = index;
    if (entry.buf_index >= 0) {
      sqe.opcode = request.op == IoOp::kRead ? IORING_OP_READ_FIXED : IORING_OP_WRITE_FIXED;
      sqe.buf_index = static_cast<std::uint16_t>(entry.buf_index);
      ++dev.stats.fixed_buffer_ops;
    } else {
      sqe.opcode = request.op == IoOp::kRead ? IORING_OP_READ : IORING_OP_WRITE;
    }
    sq_array[slot] = slot;
    store_release(sq_tail, tail + 1);
    ++staged;
  }

  /// Record one successful enter that pushed `batch` SQEs.
  void note_batch(unsigned batch) {
    if (batch == 0) return;
    ++counters.flush_batches;
    counters.sqes_flushed += batch;
    counters.batch_size_max = std::max<std::uint64_t>(counters.batch_size_max, batch);
    std::size_t bucket = 0;
    while ((batch >> (bucket + 1)) != 0 && bucket + 1 < kUringBatchBuckets) {
      ++bucket;
    }
    ++counters.batch_size_log2[bucket];
  }

  /// The kernel refused the staged SQEs: rewind the SQ tail past them and
  /// queue each request for a kMediaError completion on the next reap —
  /// the completion path can't see a request the kernel never took.
  void refuse_staged() {
    const unsigned tail = load_acquire(sq_tail);
    for (unsigned j = 0; j < staged; ++j) {
      const unsigned slot = (tail - staged + j) & sq_mask;
      refused.push_back(static_cast<std::uint32_t>(sqes[slot].user_data));
    }
    store_release(sq_tail, tail - staged);
    staged = 0;
  }

  /// Push every staged SQE to the kernel without waiting: one
  /// io_uring_enter for the whole batch (more only when the kernel takes
  /// part of it). With DEFER_TASKRUN the enter also carries GETEVENTS (with
  /// min_complete = 0 it never blocks) so deferred completions post in the
  /// same syscall.
  void flush() {
    std::uint32_t transient = 0;
    while (staged > 0) {
      const unsigned wait_flags = defer_taskrun ? IORING_ENTER_GETEVENTS : 0;
      const int rc = sys_io_uring_enter(ring_fd, staged, 0, wait_flags, nullptr, 0);
      ++counters.enter_syscalls;
      if (rc < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN && transient++ < kMaxTransientRetries) continue;
        // Hard submission failure (resource exhaustion, ring gone): fail
        // everything the kernel didn't take.
        refuse_staged();
        return;
      }
      staged -= static_cast<unsigned>(rc);
      note_batch(static_cast<unsigned>(rc));
    }
  }

  /// Move one accepted request of `dev` into the ring (staged; not yet
  /// submitted).
  void start(Impl& dev, BlockRequest request) {
    const std::uint32_t index = acquire_pending();
    Pending& entry = pending[index];
    entry.dev = &dev;
    entry.request = std::move(request);
    entry.scratch = entry.request.data == nullptr;
    if (entry.scratch) {
      entry.request.data = scratch_pool.acquire(entry.request.length);
    }
    entry.done = 0;
    entry.retries = 0;
    entry.buf_index = region_of(entry.request.data, entry.request.length);
    entry.alive = true;
    ++inflight;
    ++dev.inflight;
    stage_sqe(index);
  }

  /// Take `pending[index]` out of the ring, returning any borrowed scratch
  /// buffer, admit the device's oldest parked request into the freed slot,
  /// then run the completion callback.
  void finish(std::uint32_t index, IoStatus status) {
    Pending& entry = pending[index];
    Impl& dev = *entry.dev;
    BlockRequest done = std::move(entry.request);
    if (entry.scratch) {
      scratch_pool.release(done.data, done.length);
      done.data = nullptr;
    }
    entry.request = BlockRequest{};
    entry.dev = nullptr;
    entry.alive = false;
    entry.next_free = free_head;
    free_head = index;
    --inflight;
    --dev.inflight;
    ++dev.stats.completed;
    if (status != IoStatus::kOk) ++dev.stats.errors;
    if (!dev.backlog.empty()) {
      BlockRequest next = std::move(dev.backlog.front());
      dev.backlog.pop_front();
      start(dev, std::move(next));
    }
    if (done.on_complete) done.on_complete(ctx->now(), status);
  }

  /// Handle every refused request and every ready CQE; returns the number
  /// of completion events handled (a short transfer's CQE counts, though
  /// its request continues). Completion callbacks run here and may call
  /// submit() reentrantly — the backlog/depth accounting keeps that safe.
  std::size_t reap() {
    std::size_t events = 0;
    while (!refused.empty()) {
      std::vector<std::uint32_t> batch;
      batch.swap(refused);
      for (const std::uint32_t index : batch) {
        ++events;
        finish(index, IoStatus::kMediaError);
      }
    }
    for (;;) {
      const unsigned head = load_acquire(cq_head);
      const unsigned tail = load_acquire(cq_tail);
      if (head == tail) break;
      const io_uring_cqe cqe = cqes[head & cq_mask];
      store_release(cq_head, head + 1);
      ++events;

      const auto index = static_cast<std::uint32_t>(cqe.user_data);
      assert(index < pending.size() && pending[index].alive);
      Pending& entry = pending[index];
      if (cqe.res > 0 && entry.done + static_cast<Bytes>(cqe.res) < entry.request.length) {
        // Short transfer: continue where it stopped.
        entry.done += static_cast<Bytes>(cqe.res);
        entry.retries = 0;  // forward progress resets the transient budget
        ++entry.dev->stats.short_resubmits;
        stage_sqe(index);
        continue;
      }
      if ((cqe.res == -EAGAIN || cqe.res == -EINTR) &&
          entry.retries < kMaxTransientRetries) {
        // Transient kernel result, not a media failure: resubmit the same
        // continuation (bounded, so a persistently unready fd still errors).
        ++entry.retries;
        ++entry.dev->stats.transient_retries;
        stage_sqe(index);
        continue;
      }
      finish(index, cqe.res <= 0 ? IoStatus::kMediaError : IoStatus::kOk);
    }
    return events;
  }

  /// Submit the staged batch and block until completions or `max_wait` ns
  /// in a single io_uring_enter (GETEVENTS | EXT_ARG with a timeout), so
  /// the steady-state reactor turn costs one syscall per batch.
  /// min_complete scales with the pipeline (a quarter of the in-flight
  /// requests, capped) instead of waking per completion: completions that
  /// trickle one at a time would otherwise cost one enter each. The closed
  /// loop refills what the wait drains, the remaining three quarters keep
  /// the devices busy meanwhile, and the timeout still returns at the
  /// caller's deadline, so timers never slip.
  void submit_and_wait(SimTime max_wait) {
    // Every staged SQE rides this enter, so afterwards all `inflight`
    // requests are kernel-side — the wait target is safe to derive from it.
    const auto wait_nr =
        static_cast<unsigned>(std::clamp<std::size_t>(inflight / 4, 1, 32));
    for (;;) {
      __kernel_timespec ts{};
      ts.tv_sec = static_cast<long long>(max_wait / 1'000'000'000ULL);
      ts.tv_nsec = static_cast<long long>(max_wait % 1'000'000'000ULL);
      io_uring_getevents_arg arg{};
      arg.ts = reinterpret_cast<std::uint64_t>(&ts);
      const int rc = sys_io_uring_enter(
          ring_fd, staged, wait_nr, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
          sizeof(arg));
      ++counters.enter_syscalls;
      if (rc >= 0) {
        // rc = SQEs the kernel consumed before (and regardless of) the
        // wait outcome.
        staged -= static_cast<unsigned>(rc);
        note_batch(static_cast<unsigned>(rc));
        if (staged > 0) flush();  // partial consume (rare): push the rest
        return;
      }
      if (errno == EINTR) continue;
      if (errno == ETIME) return;  // deadline, nothing submitted (staged was 0)
      // Submission-side error: route through flush(), which owns the
      // retry/refuse handling, then let the caller re-poll.
      flush();
      return;
    }
  }

  // exec::CompletionDriver
  std::size_t poll(SimTime max_wait) override {
    std::size_t events = reap();
    if (events == 0 && inflight > 0 && max_wait > 0) {
      submit_and_wait(max_wait);
      events = reap();
    }
    return events;
  }

  [[nodiscard]] std::size_t in_flight() const override { return inflight; }
};

Result<std::unique_ptr<UringBlockDevice>> UringBlockDevice::open(exec::RealContext& ctx,
                                                                 UringParams params) {
  if (params.path.empty()) return make_error("uring: backing file path is empty");
  if (params.queue_depth == 0) return make_error("uring: queue_depth must be >= 1");

  auto impl = std::make_unique<Impl>();

  impl->buffered_fd = ::open(params.path.c_str(), O_RDWR | O_CLOEXEC);
  if (impl->buffered_fd < 0) {
    return make_error("uring: cannot open " + params.path + ": " +
                      std::string(strerror(errno)));
  }
  if (params.direct) {
    // tmpfs (and some filesystems) refuse O_DIRECT; that's fine, the
    // buffered fd serves everything and using_direct() reports false.
    impl->direct_fd = ::open(params.path.c_str(), O_RDWR | O_DIRECT | O_CLOEXEC);
  }

  struct stat st{};
  if (fstat(impl->buffered_fd, &st) != 0) {
    return make_error("uring: fstat failed: " + std::string(strerror(errno)));
  }
  const auto file_size = static_cast<Bytes>(st.st_size);
  if (params.base_offset % kSectorSize != 0) {
    return make_error("uring: base_offset must be sector aligned");
  }
  Bytes capacity = params.capacity;
  if (capacity == 0) {
    if (file_size <= params.base_offset) {
      return make_error("uring: " + params.path + " is smaller than base_offset");
    }
    capacity = (file_size - params.base_offset) / kSectorSize * kSectorSize;
  } else if (params.base_offset + capacity > file_size) {
    return make_error("uring: slice exceeds " + params.path + " (file is " +
                      std::to_string(file_size) + " bytes)");
  }
  if (capacity == 0 || capacity % kSectorSize != 0) {
    return make_error("uring: capacity must be a positive multiple of the sector size");
  }
  impl->capacity = capacity;
  impl->params = std::move(params);

  // Attach to the context's ring, setting it up on the first open.
  std::shared_ptr<Ring> ring;
  if (exec::CompletionDriver* driver = ctx.driver(); driver != nullptr) {
    auto* existing = dynamic_cast<Ring*>(driver);
    if (existing == nullptr) {
      return make_error("uring: the context already has a completion driver that is not a ring");
    }
    ring = existing->shared_from_this();
  } else {
    auto created = Ring::create(ctx, impl->params.queue_depth);
    if (!created.ok()) return created.error();
    ring = std::move(created).value();
    ring->reporter = impl.get();
  }
  if (ring->reserved_depth + impl->params.queue_depth > ring->cq_entries) {
    return make_error("uring: queue depths on one ring would exceed its " +
                      std::to_string(ring->cq_entries) + "-entry completion queue");
  }
  ring->reserved_depth += impl->params.queue_depth;
  impl->stats.setup_flags = ring->counters.setup_flags;
  impl->ring = std::move(ring);
  return std::unique_ptr<UringBlockDevice>(new UringBlockDevice(std::move(impl)));
}

UringBlockDevice::UringBlockDevice(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

UringBlockDevice::~UringBlockDevice() {
  // Drain rather than abandon: completion callbacks own buffers. Each poll
  // blocks in the combined submit+wait, so a deep backlog drains at one
  // syscall per completion batch.
  Ring& ring = *impl_->ring;
  while (impl_->inflight > 0 || !impl_->backlog.empty()) ring.poll(msec(50));
  ring.reserved_depth -= impl_->params.queue_depth;
  if (ring.reporter == impl_.get()) ring.reporter = nullptr;
}

void UringBlockDevice::submit(BlockRequest request) {
  assert(request.length > 0);
  assert(request.offset % kSectorSize == 0);
  assert(request.length % kSectorSize == 0);
  assert(request.offset + request.length <= impl_->capacity);

  ++impl_->stats.submitted;
  if (impl_->inflight >= impl_->params.queue_depth) {
    impl_->backlog.push_back(std::move(request));
    impl_->stats.backlog_peak = std::max<std::uint64_t>(impl_->stats.backlog_peak,
                                                        impl_->backlog.size());
    return;
  }
  impl_->ring->start(*impl_, std::move(request));
}

Bytes UringBlockDevice::capacity() const { return impl_->capacity; }

std::string UringBlockDevice::name() const { return impl_->params.label; }

std::uint64_t UringBlockDevice::seed() const { return impl_->params.seed; }

std::size_t UringBlockDevice::in_flight() const {
  return impl_->inflight + impl_->backlog.size();
}

Status UringBlockDevice::register_buffers(
    const std::vector<std::pair<std::byte*, Bytes>>& regions) {
  Ring& ring = *impl_->ring;
  if (ring.buffers_registered) return make_error("uring: buffers already registered");
  if (ring.inflight > 0) return make_error("uring: cannot register with I/O in flight");
  if (regions.empty()) return Status::success();

  std::vector<Ring::Region> sorted;
  sorted.reserve(std::min(regions.size(), kMaxRegisteredRegions));
  for (const auto& [base, length] : regions) {
    if (sorted.size() == kMaxRegisteredRegions) break;
    if (base != nullptr && length > 0) sorted.push_back({base, length});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Ring::Region& a, const Ring::Region& b) { return a.base < b.base; });

  std::vector<iovec> iovecs(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    iovecs[i].iov_base = sorted[i].base;
    iovecs[i].iov_len = sorted[i].length;
  }
  const int rc = sys_io_uring_register(ring.ring_fd, IORING_REGISTER_BUFFERS, iovecs.data(),
                                       static_cast<unsigned>(iovecs.size()));
  if (rc < 0) {
    return make_error("uring: buffer registration failed: " + std::string(strerror(errno)));
  }
  ring.regions = std::move(sorted);
  ring.buffers_registered = true;
  return Status::success();
}

const UringStats& UringBlockDevice::stats() const {
  UringStats& stats = impl_->stats;
  const Ring& ring = *impl_->ring;
  if (ring.reporter == impl_.get()) {
    const UringStats& c = ring.counters;
    stats.enter_syscalls = c.enter_syscalls;
    stats.flush_batches = c.flush_batches;
    stats.sqes_flushed = c.sqes_flushed;
    stats.batch_size_max = c.batch_size_max;
    stats.batch_size_log2 = c.batch_size_log2;
  }
  return stats;
}

bool UringBlockDevice::using_direct() const { return impl_->direct_fd >= 0; }

}  // namespace sst::blockdev
