#include "mem_block_device.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace sst::blockdev {

MemBlockDevice::MemBlockDevice(exec::ExecutionContext& simulator, Bytes capacity, std::uint64_t seed,
                               SimTime fixed_latency, double rate_bps)
    : sim_(simulator),
      store_(capacity),
      seed_(seed),
      fixed_latency_(fixed_latency),
      rate_bps_(rate_bps) {
  fill_pattern(seed_, 0, store_.data(), capacity);
}

void MemBlockDevice::submit(BlockRequest request) {
  assert(request.length > 0);
  assert(request.offset % kSectorSize == 0);
  assert(request.length % kSectorSize == 0);
  assert(request.offset + request.length <= capacity());

  // Perform the data movement now (simulated state change is atomic at
  // submission; timing only affects the completion callback).
  if (request.op == IoOp::kWrite && request.data != nullptr) {
    std::memcpy(&store_[request.offset], request.data, request.length);
  }

  const SimTime start = std::max(sim_.now(), busy_until_);
  const auto xfer = static_cast<SimTime>(
      static_cast<double>(request.length) / rate_bps_ * 1e9 + 0.5);
  const SimTime end = start + fixed_latency_ + xfer;
  busy_until_ = end;

  sim_.schedule_at(end, [this, offset = request.offset, length = request.length,
                         data = request.data, op = request.op,
                         cb = std::move(request.on_complete)]() {
    if (op == IoOp::kRead && data != nullptr) {
      std::memcpy(data, &store_[offset], length);
    }
    if (cb) cb(sim_.now(), IoStatus::kOk);
  });
}

}  // namespace sst::blockdev
