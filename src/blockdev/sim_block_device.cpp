#include "blockdev/sim_block_device.hpp"

#include <cassert>

namespace sst::blockdev {

SimBlockDevice::SimBlockDevice(ctrl::Controller& controller, std::uint32_t disk_index,
                               std::uint64_t seed)
    : controller_(controller), disk_index_(disk_index), seed_(seed) {
  assert(disk_index < controller.disk_count());
}

Bytes SimBlockDevice::capacity() const {
  return controller_.disk(disk_index_).geometry().capacity_bytes();
}

std::string SimBlockDevice::name() const {
  return "sim:ctrl" + std::to_string(controller_.id()) + ":disk" + std::to_string(disk_index_);
}

void SimBlockDevice::submit(BlockRequest request) {
  assert(request.length > 0);
  assert(request.offset % kSectorSize == 0);
  assert(request.length % kSectorSize == 0);
  assert(request.offset + request.length <= capacity());

  ctrl::ControllerCommand cmd;
  cmd.disk_index = disk_index_;
  cmd.lba = request.offset / kSectorSize;
  cmd.sectors = request.length / kSectorSize;
  cmd.op = request.op;
  cmd.id = request.id;
  cmd.on_complete = [this, offset = request.offset, length = request.length,
                     data = request.data, op = request.op,
                     cb = std::move(request.on_complete)]() {
    if (op == IoOp::kRead && data != nullptr) {
      fill_pattern(seed_, offset, data, length);
    }
    if (cb) cb(controller_.context().now(), IoStatus::kOk);
  };
  controller_.submit(std::move(cmd));
}

}  // namespace sst::blockdev
