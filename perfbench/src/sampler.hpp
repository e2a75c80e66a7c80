// Program-counter sampler used by the traced sim run to split the storage node's
// span time between the controller and the disk model. Both run on one
// execution context and call each other directly, so no public boundary
// separates them; instead a SIGALRM timer samples the interrupted program
// counter while a node span is open, and each sample is attributed to the
// sst::ctrl or sst::disk function it landed in (symbols read from this
// executable's own ELF symbol table).
#pragma once

#include <cstdint>

namespace perfbench {

/// Which node component a sampled program counter belongs to.
struct NodeSplit {
  std::uint64_t controller = 0;
  std::uint64_t disk = 0;
  std::uint64_t other = 0;  ///< libc, engine glue, unresolved
};

class NodeSampler {
 public:
  /// Arms a timer firing every `interval_us`. One sampler at a time; the
  /// process must be single-threaded while it runs.
  explicit NodeSampler(unsigned interval_us);
  ~NodeSampler();
  NodeSampler(const NodeSampler&) = delete;
  NodeSampler& operator=(const NodeSampler&) = delete;

  /// Mark whether the calling thread is inside a node span (read by the
  /// signal handler).
  static void set_in_node(bool in_node);

  /// Disarm the timer and classify the samples taken inside node spans.
  [[nodiscard]] NodeSplit finish();

 private:
  bool finished_ = false;
};

}  // namespace perfbench
