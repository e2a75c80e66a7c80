// Asynchronous block-device abstraction. The core stream scheduler is
// written against this interface so the same code drives (a) the simulated
// controller/disk hierarchy used for every paper experiment and (b) the
// io_uring real-I/O device; tests add RAM-backed and delaying devices
// (tests/support/).
//
// Requests optionally carry a data pointer. Devices that model timing only
// still honour it: reads fill the buffer with the device's deterministic
// content pattern so callers can verify end-to-end data paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/completion.hpp"
#include "common/types.hpp"

namespace sst::blockdev {

struct BlockRequest {
  ByteOffset offset = 0;  ///< byte offset, sector aligned
  Bytes length = 0;       ///< byte count, sector aligned, > 0
  IoOp op = IoOp::kRead;
  RequestId id = kInvalidRequest;
  /// Optional data buffer of `length` bytes: destination for reads, source
  /// for writes. May be null when the caller only needs timing.
  std::byte* data = nullptr;
  /// Fires when the request completes, with the completion time and the
  /// outcome (IoStatus::kOk unless a fault-injection/recovery layer is in
  /// the stack); see common/completion.hpp.
  IoCompletion on_complete;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Enqueue an asynchronous request. Implementations assert alignment and
  /// bounds; completion order follows the device's service discipline.
  virtual void submit(BlockRequest request) = 0;

  [[nodiscard]] virtual Bytes capacity() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Deterministic content byte for `offset` on a device seeded with `seed`.
/// Cheap enough to verify megabytes in tests, and position-dependent so any
/// offset shift in a buffer-management path is caught immediately.
[[nodiscard]] inline std::byte pattern_byte(std::uint64_t seed, ByteOffset offset) {
  std::uint64_t x = seed ^ (offset / 8);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::byte>((x >> (8 * (offset % 8))) & 0xFF);
}

/// Fill `[data, data+length)` with the pattern for `[offset, ...)`.
inline void fill_pattern(std::uint64_t seed, ByteOffset offset, std::byte* data, Bytes length) {
  for (Bytes i = 0; i < length; ++i) data[i] = pattern_byte(seed, offset + i);
}

/// True when the buffer matches the pattern (first mismatch offset written
/// to *mismatch when provided).
[[nodiscard]] inline bool check_pattern(std::uint64_t seed, ByteOffset offset,
                                        const std::byte* data, Bytes length,
                                        ByteOffset* mismatch = nullptr) {
  for (Bytes i = 0; i < length; ++i) {
    if (data[i] != pattern_byte(seed, offset + i)) {
      if (mismatch != nullptr) *mismatch = offset + i;
      return false;
    }
  }
  return true;
}

}  // namespace sst::blockdev
