// Test-side io_uring availability probe. Suites that drive the real
// backend skip (GTEST_SKIP) instead of failing when the kernel refuses
// io_uring_setup outright: ENOSYS (no io_uring in this kernel) or EPERM
// (disabled by sysctl or a seccomp/container policy). Any other outcome
// runs the suite, so a genuinely broken ring still fails loudly.
#pragma once

#include <linux/io_uring.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>

namespace sst::testing_support {

inline bool kernel_refuses_io_uring() {
  io_uring_params params{};
  const long fd = ::syscall(__NR_io_uring_setup, 1, &params);
  if (fd >= 0) {
    ::close(static_cast<int>(fd));
    return false;
  }
  return errno == ENOSYS || errno == EPERM;
}

}  // namespace sst::testing_support
