// Completion callback for asynchronous I/O: `void(SimTime, IoStatus)` held
// in the shared inline callable (common/inline_fn.hpp).
//
// The timestamp is the now() of the ExecutionContext that owns the
// completing device (exec/execution_context.hpp), read at the moment the
// callback fires: virtual nanoseconds under the simulated backend,
// monotonic wall-clock nanoseconds since context construction under the
// real io_uring backend. Handlers must not assume virtual time — compare
// against the same context's now(), never across contexts. Status values
// are likewise backend-agnostic: IoStatus::kMediaError carries injected
// faults in simulation and real syscall/short-transfer failures from the
// uring backend. Completions fire exactly once per request and may fire in
// any order across requests. Handlers must not assume which stack frame
// invokes them: simulated devices always defer to the event loop, but the
// real backend completes degenerate requests (no data buffer, failed
// submission) inline from submit(), so a handler that resubmits must
// tolerate re-entrancy.
#pragma once

#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace sst {

using IoCompletion = InlineFn<void(SimTime, IoStatus)>;

}  // namespace sst
