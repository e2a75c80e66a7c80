#include "workload/trace.hpp"

#include <cassert>
#include <charconv>
#include <sstream>

#include "exec/execution_context.hpp"

namespace sst::workload {

TraceRecorder::TraceRecorder(exec::ExecutionContext& simulator, RequestSink downstream)
    : sim_(simulator), downstream_(std::move(downstream)) {}

RequestSink TraceRecorder::sink() {
  return [this](core::ClientRequest req) {
    const std::size_t index = records_.size();
    TraceRecord record;
    record.issue_time = sim_.now();
    record.device = req.device;
    record.offset = req.offset;
    record.length = req.length;
    record.op = req.op;
    records_.push_back(record);
    req.on_complete = [this, index, issued = sim_.now(),
                       inner = std::move(req.on_complete)](SimTime t, IoStatus s) {
      records_[index].latency = t - issued;
      ++completed_;
      if (inner) inner(t, s);
    };
    downstream_(std::move(req));
  };
}

void TraceRecorder::clear() {
  records_.clear();
  completed_ = 0;
}

std::string trace_to_text(const std::vector<TraceRecord>& records) {
  std::ostringstream os;
  os << "# streamstore trace v1: issue_ns device offset length op latency_ns\n";
  for (const auto& r : records) {
    os << r.issue_time << ' ' << r.device << ' ' << r.offset << ' ' << r.length << ' '
       << (r.op == IoOp::kRead ? 'R' : 'W') << ' ';
    if (r.completed()) {
      os << r.latency;
    } else {
      os << '-';
    }
    os << '\n';
  }
  return os.str();
}

Result<std::vector<TraceRecord>> trace_from_text(std::string_view text) {
  std::vector<TraceRecord> records;
  std::istringstream is{std::string(text)};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::uint64_t issue = 0;
    std::uint32_t device = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    char op = 0;
    std::string latency_text;
    if (!(ls >> issue)) continue;  // blank line
    if (!(ls >> device >> offset >> length >> op >> latency_text)) {
      return make_error("malformed trace line " + std::to_string(lineno) + ": '" + line +
                        "'");
    }
    if (op != 'R' && op != 'W') {
      return make_error("bad op on trace line " + std::to_string(lineno));
    }
    TraceRecord r;
    r.issue_time = issue;
    r.device = device;
    r.offset = offset;
    r.length = length;
    r.op = op == 'R' ? IoOp::kRead : IoOp::kWrite;
    if (latency_text != "-") {
      std::uint64_t latency = 0;
      const auto [ptr, ec] = std::from_chars(
          latency_text.data(), latency_text.data() + latency_text.size(), latency);
      if (ec != std::errc{} || ptr != latency_text.data() + latency_text.size()) {
        return make_error("bad latency on trace line " + std::to_string(lineno));
      }
      r.latency = latency;
    }
    records.push_back(r);
  }
  return records;
}

TraceReplayer::TraceReplayer(exec::ExecutionContext& simulator, RequestSink sink,
                             std::vector<TraceRecord> trace, ReplayMode mode,
                             std::uint32_t window)
    : sim_(simulator),
      sink_(std::move(sink)),
      trace_(std::move(trace)),
      mode_(mode),
      window_(window) {
  assert(window_ >= 1);
}

void TraceReplayer::issue_record(std::size_t index) {
  const TraceRecord& r = trace_[index];
  core::ClientRequest req;
  req.id = index;
  req.device = r.device;
  req.offset = r.offset;
  req.length = r.length;
  req.op = r.op;
  req.arrival = sim_.now();
  const SimTime issued = sim_.now();
  req.on_complete = [this, issued](SimTime t, IoStatus) {
    ++completed_;
    --in_flight_;
    latency_.add(t - issued);
    if (mode_ == ReplayMode::kClosedLoop) issue_next_closed();
  };
  ++issued_;
  ++in_flight_;
  sink_(std::move(req));
}

void TraceReplayer::issue_next_closed() {
  while (issued_ < trace_.size() && in_flight_ < window_) {
    issue_record(issued_);
  }
}

void TraceReplayer::start() {
  if (trace_.empty()) return;
  if (mode_ == ReplayMode::kClosedLoop) {
    issue_next_closed();
    return;
  }
  // Original timing: schedule each record at its recorded issue time,
  // shifted so the first record fires immediately.
  const SimTime base = trace_.front().issue_time;
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    const SimTime when = now + (trace_[i].issue_time - base);
    sim_.schedule_at(when, [this, i]() { issue_record(i); });
  }
}

}  // namespace sst::workload
