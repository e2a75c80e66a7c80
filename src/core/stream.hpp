// A detected sequential stream and the client requests travelling through
// it. Owned by the StreamScheduler; this header only defines the data
// carried per stream so tests can inspect scheduler state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/completion.hpp"
#include "common/intrusive_list.hpp"
#include "common/slab.hpp"
#include "common/types.hpp"
#include "core/buffer_pool.hpp"

namespace sst::obs {
struct RequestTrace;
}  // namespace sst::obs

namespace sst::core {

/// A request as received from a client by the storage server.
struct ClientRequest {
  RequestId id = kInvalidRequest;
  std::uint32_t device = 0;
  ByteOffset offset = 0;
  Bytes length = 0;
  IoOp op = IoOp::kRead;
  /// Optional destination buffer (filled when the scheduler materializes).
  std::byte* data = nullptr;
  /// Optional zero-copy sink: staged data is handed over by reference (one
  /// StagedSlice per extent touched, before on_complete fires) instead of
  /// being copied. Only data served from staged buffers arrives here;
  /// clients that need bytes on the fallback-direct path use `data`.
  DataSink on_data;
  IoCompletion on_complete;
  SimTime arrival = 0;
  /// Latency-attribution record, owned by the experiment's LatencyAttributor;
  /// null when attribution is off. Layers stamp their own field.
  obs::RequestTrace* trace = nullptr;
};

/// A parked client request: a pooled slot carrying the request plus the
/// intrusive linkage threading it into its stream's pending list. Slots
/// come from a RequestSlab; unlink before releasing.
struct PendingRequest {
  ClientRequest req;
  IntrusiveHook<PendingRequest> hook;
};

/// Pool of PendingRequest slots (pointer-stable, allocation-free when
/// warm). `release` drops the completion closure so recycled slots hold no
/// stale captures.
class RequestSlab {
 public:
  [[nodiscard]] PendingRequest* acquire(ClientRequest request) {
    PendingRequest* slot = slab_.acquire();
    slot->req = std::move(request);
    return slot;
  }

  void release(PendingRequest* slot) {
    slot->req.on_complete = nullptr;
    slot->req.on_data = nullptr;
    slab_.release(slot);
  }

 private:
  Slab<PendingRequest> slab_;
};

using PendingList = IntrusiveList<PendingRequest, &PendingRequest::hook>;

enum class StreamState : std::uint8_t {
  kIdle,        ///< detected, nothing staged, not scheduled
  kCandidate,   ///< waiting for a dispatch-set slot
  kDispatched,  ///< issuing read-ahead requests to its disk
  kBuffered,    ///< rotated out; staged data lives in the buffered set
};

[[nodiscard]] constexpr const char* to_string(StreamState s) {
  switch (s) {
    case StreamState::kIdle: return "idle";
    case StreamState::kCandidate: return "candidate";
    case StreamState::kDispatched: return "dispatched";
    case StreamState::kBuffered: return "buffered";
  }
  return "?";
}

struct StreamStats {
  std::uint64_t client_requests = 0;
  std::uint64_t buffer_hits = 0;     ///< served from staged data on arrival
  std::uint64_t disk_reads = 0;      ///< read-ahead requests issued
  Bytes bytes_served = 0;
  Bytes bytes_prefetched = 0;
  std::uint64_t residencies = 0;     ///< times the stream entered the dispatch set
};

struct Stream {
  StreamId id = kInvalidStream;
  std::uint32_t device = 0;
  StreamState state = StreamState::kIdle;

  ByteOffset range_start = 0;   ///< where the detected run began
  ByteOffset prefetch_pos = 0;  ///< next device offset to read ahead
  ByteOffset served_upto = 0;   ///< high-water mark of completed client data

  /// Client requests waiting for data, kept sorted by offset (closed-loop
  /// clients are nearly in order; insertion scans from the tail). Nodes are
  /// pooled RequestSlab slots owned by the scheduler.
  PendingList pending;
  /// Staged and in-flight read-ahead buffers, ordered by offset.
  std::vector<std::unique_ptr<IoBuffer>> buffers;
  /// Candidate-queue linkage (DispatchSet); linked iff state == kCandidate.
  IntrusiveHook<Stream> candidate_hook;

  std::uint32_t issued_in_residency = 0;
  std::uint32_t inflight = 0;  ///< disk requests outstanding
  bool at_device_end = false;  ///< prefetch reached the end of the device
  /// Evicted because its backing device failed: out of every scheduling set
  /// and unclaimed from the index, kept only until in-flight completions
  /// drain (a zombie), then retired.
  bool evicted = false;
  SimTime last_activity = 0;
  SimTime dispatched_at = 0;  ///< start of the current residency (for tracing)

  /// Rewind detection: a client that wraps to the start of its region keeps
  /// matching this stream but lands behind the prefetch cursor. A short run
  /// of consecutive behind-the-cursor sequential reads re-aims the cursor.
  std::uint32_t fallback_streak = 0;
  ByteOffset last_fallback_end = 0;

  StreamStats stats;

  /// Requests at or beyond this offset are not this stream's (they would
  /// restart detection). Two full read-aheads of slack tolerates clients
  /// running ahead with multiple outstanding requests.
  [[nodiscard]] ByteOffset match_end(Bytes read_ahead) const {
    return prefetch_pos + 2 * read_ahead;
  }

  [[nodiscard]] Bytes staged_bytes() const {
    Bytes total = 0;
    for (const auto& b : buffers) total += b->valid();
    return total;
  }
};

}  // namespace sst::core
