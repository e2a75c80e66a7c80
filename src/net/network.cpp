#include "net/network.hpp"

#include <algorithm>

namespace sst::net {

void Channel::send(Bytes payload_bytes, exec::TaskFn deliver) {
  const Bytes wire_bytes = payload_bytes + params_.header_bytes;
  const auto serialize = static_cast<SimTime>(
      static_cast<double>(wire_bytes) / params_.bandwidth_bps * 1e9 + 0.5);
  const SimTime start = std::max(sim_.now(), busy_until_);
  const SimTime sent = start + params_.per_message_overhead + serialize;
  busy_until_ = sent;
  ++stats_.messages;
  stats_.bytes_transferred += wire_bytes;
  stats_.busy_time += sent - start;
  // Arrival = serialization done + propagation + receive-side processing.
  const SimTime arrival = sent + params_.latency + params_.per_message_overhead;
  sim_.schedule_at(arrival, std::move(deliver));
}

RemoteSink::RemoteSink(exec::ExecutionContext& simulator, workload::RequestSink server,
                       LinkParams params)
    : sim_(simulator),
      server_(std::move(server)),
      params_(params),
      uplink_(simulator, params),
      downlink_(simulator, params) {}

workload::RequestSink RemoteSink::sink() {
  return [this](core::ClientRequest req) {
    SimTime spike_delay = 0;
    if (fault_ != nullptr) {
      const fault::FaultDecision decision =
          fault_->decide(fault_device_, req.offset, req.length, req.op);
      switch (decision.action) {
        case fault::FaultAction::kHang:
          // Lost in transit: no completion, ever.
          ++fault_stats_.dropped;
          return;
        case fault::FaultAction::kMediaError: {
          // Transport failure: the error response still crosses the wire.
          ++fault_stats_.transport_errors;
          auto cb = std::move(req.on_complete);
          downlink_.send(0, [cb = std::move(cb), this]() {
            if (cb) cb(sim_.now(), IoStatus::kTimeout);
          });
          return;
        }
        case fault::FaultAction::kSpike:
          ++fault_stats_.spiked;
          spike_delay = decision.extra_delay;
          break;
        case fault::FaultAction::kNone:
          break;
      }
    }

    // Request descriptors are small; write payloads travel uplink.
    const Bytes up_payload = req.op == IoOp::kWrite ? req.length : 0;
    const Bytes down_payload =
        (req.op == IoOp::kRead && params_.responses_carry_data) ? req.length : 0;

    // Splice the downlink hop into the completion path (the I/O status
    // travels back across the wire with the response).
    req.on_complete = [this, down_payload,
                       cb = std::move(req.on_complete)](SimTime,
                                                        IoStatus status) mutable {
      const SimTime entered = sim_.now();
      downlink_.send(down_payload, [cb = std::move(cb), status, entered, this]() {
        response_transit_.add(sim_.now() - entered);
        if (cb) cb(sim_.now(), status);
      });
    };

    // Carry the whole request across the uplink, then hand to the server.
    // A spike stalls the message before it reaches the wire (switch queue,
    // TCP retransmit), so the uplink only sees it after the delay.
    exec::TaskFn deliver = [this, req = std::move(req)]() mutable { server_(std::move(req)); };
    if (spike_delay > 0) {
      sim_.schedule_after(spike_delay,
                          [this, up_payload, deliver = std::move(deliver)]() mutable {
                            uplink_.send(up_payload, std::move(deliver));
                          });
    } else {
      uplink_.send(up_payload, std::move(deliver));
    }
  };
}

}  // namespace sst::net
