// Process-wide heap allocation counter (see alloc_counter.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls since process start, all threads.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench
