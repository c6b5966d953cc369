// The load phase: drives a ShardRouter with a workload's generated inputs
// from the benchmark's client threads for a fixed wall-clock time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "measure.hpp"
#include "service/shard_router.hpp"

namespace perfbench {

struct LoadResult {
  double seconds = 0.0;         // wall time from the first send to the last ack
  double update_seconds = 0.0;  // of which the writers ran
  // Queries answered while read_qps is measured, and for how long: the
  // reader-only clients' slices, or the whole load when there are none.
  std::uint64_t rated_reads = 0;
  double read_seconds = 0.0;
  std::vector<double> ack_us;        // accepted updates, submit -> ack
  std::vector<double> merge_ack_us;  // the subset that were cross-block inserts
  std::uint64_t attempted = 0;       // updates submitted
  std::uint64_t applied = 0;         // acked with a version
  std::uint64_t failed = 0;          // acked with a status, or late past the timeout
  std::uint64_t reads = 0;           // snapshot queries answered
  std::uint64_t reads_checked = 0;   // of which cross-checked against the snapshot
  std::vector<std::size_t> consumed; // per writer stream: updates submitted
  std::vector<std::string> violations;
  std::vector<Span> spans;           // empty unless traced
  pardfs::service::ServiceStats mid_stats;  // router.stats() halfway through the updates
};

// Workloads with reader-only clients run in cycles of about kCycleS: the
// writers for (1 - kReadShare) of a cycle, then the readers alone, so the
// two do not take CPU time from each other and both sample the whole run.
constexpr double kCycleS = 2.5;
constexpr double kReadShare = 0.2;

// Runs the workload's clients against `router` for `seconds`. With `traced`,
// every call into a layer is timed into spans (queries on a sample of the
// read batches). The router is left running; the caller stops it.
LoadResult run_load(pardfs::service::ShardRouter& router, const Inputs& in,
                    double seconds, bool traced);

}  // namespace perfbench
