// The traced run: per-layer metrics, apart from the timed run.
#pragma once

#include <cstdint>

#include "harness.h"
#include "workload.h"

namespace e2ebench {

/// Replays the workload through each layer's public functions under the
/// benchmark's own spans, reads the node's ei.* spans, and measures the net
/// floor and the cost of tracing.  Spans are written to .bench_out/.
RunResult run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     bool coalesce);

}  // namespace e2ebench
