#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include "../support/mem_block_device.hpp"
#include "sim/simulator.hpp"

namespace sst::workload {
namespace {

struct Harness {
  sim::Simulator sim;
  blockdev::MemBlockDevice dev{sim, 16 * MiB, 5, usec(300), 100e6};

  RequestSink device_sink() {
    return [this](core::ClientRequest req) {
      blockdev::BlockRequest io;
      io.offset = req.offset;
      io.length = req.length;
      io.op = req.op;
      io.data = req.data;
      io.on_complete = std::move(req.on_complete);
      dev.submit(std::move(io));
    };
  }
};

TEST(TraceRecorder, CapturesMetadataAndLatency) {
  Harness h;
  TraceRecorder recorder(h.sim, h.device_sink());
  StreamSpec spec;
  spec.request_size = 16 * KiB;
  spec.num_requests = 4;
  StreamClient client(h.sim, recorder.sink(), spec, h.dev.capacity());
  client.start();
  h.sim.run();
  ASSERT_EQ(recorder.records().size(), 4u);
  EXPECT_EQ(recorder.completed_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = recorder.records()[i];
    EXPECT_EQ(r.offset, i * 16 * KiB);
    EXPECT_EQ(r.length, 16 * KiB);
    EXPECT_TRUE(r.completed());
    EXPECT_GT(r.latency, 0u);
  }
}

TEST(TraceRecorder, PreservesInnerCompletion) {
  Harness h;
  TraceRecorder recorder(h.sim, h.device_sink());
  auto sink = recorder.sink();
  int done = 0;
  core::ClientRequest req;
  req.offset = 0;
  req.length = 4 * KiB;
  req.on_complete = [&done](SimTime, IoStatus) { ++done; };
  sink(std::move(req));
  h.sim.run();
  EXPECT_EQ(done, 1);
}

TEST(TraceRecorder, ClearResets) {
  Harness h;
  TraceRecorder recorder(h.sim, h.device_sink());
  auto sink = recorder.sink();
  core::ClientRequest req;
  req.offset = 0;
  req.length = 4 * KiB;
  sink(std::move(req));
  h.sim.run();
  recorder.clear();
  EXPECT_TRUE(recorder.records().empty());
  EXPECT_EQ(recorder.completed_count(), 0u);
}

TEST(TraceText, RoundTrip) {
  std::vector<TraceRecord> records(3);
  records[0] = {usec(10), 0, 0, 4 * KiB, IoOp::kRead, usec(100)};
  records[1] = {usec(20), 1, 64 * KiB, 8 * KiB, IoOp::kWrite, usec(200)};
  records[2] = {usec(30), 0, 128 * KiB, 4 * KiB, IoOp::kRead, kSimTimeMax};  // incomplete
  const auto text = trace_to_text(records);
  const auto parsed = trace_from_text(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.value()[i].issue_time, records[i].issue_time);
    EXPECT_EQ(parsed.value()[i].device, records[i].device);
    EXPECT_EQ(parsed.value()[i].offset, records[i].offset);
    EXPECT_EQ(parsed.value()[i].length, records[i].length);
    EXPECT_EQ(parsed.value()[i].op, records[i].op);
    EXPECT_EQ(parsed.value()[i].latency, records[i].latency);
  }
}

TEST(TraceText, RejectsMalformedLine) {
  EXPECT_FALSE(trace_from_text("10 0 0 bad R -\n").ok());
  EXPECT_FALSE(trace_from_text("10 0 0 4096 X -\n").ok());
  EXPECT_FALSE(trace_from_text("10 0 0 4096 R notanumber\n").ok());
}

TEST(TraceText, SkipsCommentsAndBlankLines) {
  const auto parsed = trace_from_text("# header\n\n10 0 0 4096 R 99\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].latency, 99u);
}

TEST(TraceReplay, ClosedLoopReplaysAll) {
  Harness h;
  std::vector<TraceRecord> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back({usec(static_cast<std::uint64_t>(i) * 10), 0,
                     static_cast<ByteOffset>(i) * 32 * KiB, 16 * KiB, IoOp::kRead, 0});
  }
  TraceReplayer replayer(h.sim, h.device_sink(), trace, ReplayMode::kClosedLoop,
                         /*window=*/2);
  replayer.start();
  h.sim.run();
  EXPECT_TRUE(replayer.done());
  EXPECT_EQ(replayer.completed(), 10u);
  EXPECT_EQ(replayer.latency().count(), 10u);
}

TEST(TraceReplay, OriginalTimingHonoursGaps) {
  Harness h;
  std::vector<TraceRecord> trace;
  trace.push_back({msec(100), 0, 0, 4 * KiB, IoOp::kRead, 0});
  trace.push_back({msec(150), 0, 64 * KiB, 4 * KiB, IoOp::kRead, 0});
  TraceReplayer replayer(h.sim, h.device_sink(), trace, ReplayMode::kOriginalTiming);
  replayer.start();
  h.sim.run();
  EXPECT_TRUE(replayer.done());
  // First record shifted to t=0; the second issued 50 ms later, so the
  // simulation ends at >= 50 ms.
  EXPECT_GE(h.sim.now(), msec(50));
  EXPECT_LT(h.sim.now(), msec(100));
}

TEST(TraceReplay, RecordThenReplayMatchesAccessPattern) {
  // Record a run, replay the trace, and verify the replayed requests touch
  // the same extents.
  Harness h;
  TraceRecorder recorder(h.sim, h.device_sink());
  StreamSpec spec;
  spec.request_size = 8 * KiB;
  spec.num_requests = 6;
  StreamClient client(h.sim, recorder.sink(), spec, h.dev.capacity());
  client.start();
  h.sim.run();

  sim::Simulator sim2;
  blockdev::MemBlockDevice dev2(sim2, 16 * MiB, 5, usec(300), 100e6);
  std::vector<std::pair<ByteOffset, Bytes>> replayed;
  RequestSink sink2 = [&](core::ClientRequest req) {
    replayed.emplace_back(req.offset, req.length);
    blockdev::BlockRequest io;
    io.offset = req.offset;
    io.length = req.length;
    io.on_complete = std::move(req.on_complete);
    dev2.submit(std::move(io));
  };
  TraceReplayer replayer(sim2, sink2, recorder.records(), ReplayMode::kClosedLoop);
  replayer.start();
  sim2.run();
  ASSERT_EQ(replayed.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(replayed[i].first, recorder.records()[i].offset);
    EXPECT_EQ(replayed[i].second, recorder.records()[i].length);
  }
}

TEST(TraceReplay, EmptyTraceIsDone) {
  Harness h;
  TraceReplayer replayer(h.sim, h.device_sink(), {}, ReplayMode::kClosedLoop);
  replayer.start();
  h.sim.run();
  EXPECT_TRUE(replayer.done());
}

}  // namespace
}  // namespace sst::workload
