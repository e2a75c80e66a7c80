// The unit of deferred work for both execution contexts.
//
// The discrete-event Simulator and the wall-clock RealContext store every
// scheduled task as a TaskFn in their slot slabs. It is the shared inline
// callable (common/inline_fn.hpp): closures up to InlineFn::kInlineBytes
// are stored in place, so scheduling and dispatching them allocates
// nothing.
#pragma once

#include "common/inline_fn.hpp"

namespace sst::exec {

using TaskFn = InlineFn<void()>;

}  // namespace sst::exec
