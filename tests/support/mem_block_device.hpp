// RAM-backed BlockDevice with a simple fixed-latency + rate service model
// and real byte storage. Used by data-integrity tests (writes followed by
// reads must round-trip through every scheduler layer) and by tests that
// want fast, deterministic devices without the full disk model.
#pragma once

#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "exec/execution_context.hpp"

namespace sst::blockdev {

class MemBlockDevice final : public BlockDevice {
 public:
  /// Content is initialised to the pattern for `seed`, so reads verify even
  /// before any write.
  MemBlockDevice(exec::ExecutionContext& simulator, Bytes capacity, std::uint64_t seed,
                 SimTime fixed_latency = usec(100), double rate_bps = 200e6);

  void submit(BlockRequest request) override;

  [[nodiscard]] Bytes capacity() const override { return static_cast<Bytes>(store_.size()); }
  [[nodiscard]] std::string name() const override { return "mem"; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Direct (un-timed) access for test assertions.
  [[nodiscard]] const std::byte* raw(ByteOffset offset) const { return &store_[offset]; }

 private:
  exec::ExecutionContext& sim_;
  std::vector<std::byte> store_;
  std::uint64_t seed_;
  SimTime fixed_latency_;
  double rate_bps_;
  SimTime busy_until_ = 0;
};

}  // namespace sst::blockdev
