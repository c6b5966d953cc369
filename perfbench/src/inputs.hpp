// Seeded input generation for the service benchmark.
//
// Every input a run feeds the service is generated here, before any timing
// starts: the workload's initial graph (fixed per workload) and, from the
// seed, each client's update stream and query stream. The program under test only ever sees these generated updates and
// queries. Update streams have a fixed length per workload (independent of
// how fast the service drains them), and each is feasible against a private
// mirror of the graph, so no accepted update is ever rejected on a clean run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/reduction.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using pardfs::GraphUpdate;
using pardfs::Vertex;

enum class Workload : std::uint8_t { kUpdateStorm, kShardedSessions };

const char* workload_name(Workload w);
// False when `name` is not a workload.
bool parse_workload(const std::string& name, Workload* out);

// Snapshot query vocabulary. A read batch cycles through the five point
// queries, with one kPathToRoot closing the batch.
enum QueryKind : std::uint8_t {
  kIsAncestor,
  kLca,
  kSameComponent,
  kRootOf,
  kDepth,
  kPathToRoot,
  kNumQueryKinds,
};
const char* query_kind_name(QueryKind k);

struct Query {
  QueryKind kind = kRootOf;
  Vertex u = 0;
  Vertex v = 0;
};

// Why an update is in a stream; the sharded workload times cross-shard
// merges (kCrossInsert) apart from the rest. kBlockJoin links two blocks on
// one shard; kCrossDelete removes either kind of cross-block edge.
enum class UpdateTag : std::uint8_t { kLocal, kCrossInsert, kCrossDelete, kBlockJoin };

// One writing client's fixed-length update stream.
struct UpdateStream {
  std::vector<GraphUpdate> updates;
  std::vector<UpdateTag> tags;  // parallel to updates
  // Alive-vertex and edge count of the mirror after the first i updates,
  // relative to the initial graph (size updates.size() + 1): the expected
  // served counts for any consumed prefix.
  std::vector<std::int64_t> vertex_delta;
  std::vector<std::int64_t> edge_delta;
};

// Shape of a workload at a given scale (the benchmark's fixed parameters).
struct WorkloadParams {
  Vertex n = 0;                  // initial vertex count
  std::size_t shards = 1;        // ServiceConfig::num_shards
  std::size_t writers = 1;       // clients that submit updates
  std::size_t readers = 0;       // sharded_sessions: reader-only clients
  std::size_t stream_length = 0; // updates per writer stream
  std::size_t window = 0;        // update_storm: updates in flight per window
  std::size_t queries_per_batch = 0;
  std::size_t reader_batch = 0;     // sharded_sessions reader: queries per block
  Vertex block = 0;              // sharded_sessions: ring-plus-chord block size
  double update_probability = 0.0;  // sharded_sessions: per session
  // CPUs the service and the load run on (0 = all). sharded_sessions uses
  // one, so that every hand-off between a client and a shard writer is a
  // context switch on a running CPU, with no sleeping vCPU to wake, and a
  // hypervisor that takes the CPU stops the whole service at once instead
  // of one lock holder, so host CPU steal moves the numbers far less
  // (README.md).
  std::size_t load_cpus = 0;
};

// `tiny` shrinks every size for smoke tests; the workload shapes stay.
WorkloadParams workload_params(Workload w, bool tiny);

struct Inputs {
  Workload workload = Workload::kUpdateStorm;
  WorkloadParams params;
  pardfs::Graph initial;
  std::vector<UpdateStream> writers;
  // One query stream per client, writers first, then the reader-only
  // clients. Streams are consumed cyclically: queries are read-only, so
  // repeating one is always valid.
  std::vector<std::vector<Query>> queries;
  // sharded_sessions: per writer, whether session i (mod size) submits an
  // update after its reads.
  std::vector<std::vector<std::uint8_t>> session_updates;
};

Inputs make_inputs(Workload w, std::uint64_t seed, bool tiny);

// FNV-1a over every generated byte that reaches the service (graph edges,
// updates, queries, session flags): equal seeds must hash equal.
std::uint64_t hash_inputs(const Inputs& in);

}  // namespace perfbench
