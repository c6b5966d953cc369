// Per-layer timing legs of a traced run. They run after the load phase, with
// the service stopped, on the workload's initial graph and update stream
// (replays) or on the final served graph and forest (single-layer calls).
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "inputs.hpp"
#include "measure.hpp"

namespace perfbench {

// `batch` is the service's mean batch size over the load phase; replays
// push the stream through at that size. Every timed call is also logged as
// a span.
MetricTable run_layer_legs(const Inputs& in, const pardfs::Graph& final_graph,
                           std::span<const Vertex> final_parent,
                           std::size_t batch, std::uint64_t seed, SpanLog& log);

}  // namespace perfbench
