// Property-based fuzz gauntlet — the adversarial correctness net over the
// whole update stack (ROADMAP "scenario diversity" item).
//
// A run is a deterministic-per-seed interleaving of random updates and
// queries over one graph family, driven through one of the two entry
// points:
//   * core    — DynamicDfs::apply_batch with combined k-update batches;
//   * service — the full writer/snapshot path of a 1-shard ShardRouter
//               (paused-writer protocol, per-update drain so replay is
//               exact);
//   * sharded — a num_shards ShardRouter in lock-step with a 1-shard
//               reference: every update applies synchronously to both, and
//               the assembled sharded forest must equal the unsharded
//               snapshot byte for byte after every batch (the shard-count
//               invariance contract of service/shard_router.hpp);
//   * chaos   — the sharded differential with a seeded fault plan armed
//               (testing/chaos.hpp): writer crashes, merge aborts, stalls
//               and admission sheds fire mid-run, every update is driven
//               through the client retry loop (workload.hpp's
//               submit_with_retry) until definitive, and after every batch
//               the recovered forest must STILL equal the un-faulted 1-shard
//               reference byte for byte — the journal-replay recovery proof
//               of DESIGN.md §13. With PARDFS_ENABLE_CHAOS compiled out the
//               plan never fires and the entry degenerates to `sharded`.
// After every batch the harness re-checks the invariants that define the
// algorithm (arXiv:1502.02481's valid-DFS-forest + total-query semantics):
//   1. tree/validation::validate_dfs_forest against a *mirror* graph the
//      generator maintains independently of the engine;
//   2. a differential check against a simple reference backend — a fresh
//      baseline/static_dfs recompute on the mirror (the à-la-1810.01726
//      "simplest possible rebuild"): both forests must induce the same
//      component partition;
//   3. sampled snapshot/tree queries (parent, reachability, LCA, depth,
//      ancestorhood, path-to-root) against brute-force walks of the parent
//      array, plus articulation/bridge answers against the
//      remove-one-vertex/edge oracle on the mirror.
// On any mismatch the result carries a replay line (`pardfs_fuzz --seed=…`)
// reproducing the failing run. A debug corruption hook (corrupt_at) flips a
// parent entry before the checks of one batch, proving end-to-end that the
// oracle actually catches corruption and the replay line is usable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/edge.hpp"

namespace pardfs::testing {

enum class FuzzFamily : std::uint8_t {
  kRandom,      // gen::random_connected, mixed updates
  kPowerLaw,    // gen::barabasi_albert, hub-heavy updates
  kGrid,        // gen::grid, bounded-degree updates
  kDynamicMap,  // service::WorkloadDriver dynamic_map obstacle churn
};

enum class FuzzEntry : std::uint8_t { kCore, kService, kSharded, kChaos };

const char* family_name(FuzzFamily f);
const char* entry_name(FuzzEntry e);
bool parse_family(std::string_view name, FuzzFamily& out);
bool parse_entry(std::string_view name, FuzzEntry& out);

struct FuzzOptions {
  std::uint64_t seed = 1;
  FuzzFamily family = FuzzFamily::kRandom;
  FuzzEntry entry = FuzzEntry::kCore;
  Vertex n = 96;               // initial graph scale
  int batches = 32;            // update batches per run
  int max_batch = 8;           // batch size drawn uniformly from [1, max_batch]
  int queries_per_batch = 24;  // sampled tree/snapshot queries per batch
  int cut_checks_per_batch = 3;  // brute-force articulation/bridge samples
  // Shard count for the sharded/chaos entries (ignored by core/service). The
  // run drives this many shards against a 1-shard reference differentially.
  int num_shards = 4;
  // Seed of the chaos entry's fault plan (independent of `seed`, so the soak
  // can run several fault schedules over the SAME update stream). Ignored by
  // the other entries.
  std::uint64_t chaos_seed = 1;
  // Faults drawn into the chaos plan per run.
  int chaos_faults = 6;
  // Debug hook: corrupt the checked parent array before the checks of this
  // batch index (-1 = never). The run must FAIL with a replay line.
  int corrupt_at = -1;
  // Pin the SIMD dispatch (util/simd) to the scalar reference for this run.
  // The effective mode (this flag OR an ambient scalar pin already in
  // force) is captured in the replay line, so a failure replays under the
  // dispatch decision it was found under.
  bool force_scalar = false;
};

struct FuzzResult {
  bool ok = true;
  std::string failure;  // first mismatch, with batch index and detail
  std::string replay;   // "pardfs_fuzz --seed=…" line reproducing the run
  // Snapshot of the obs registry's fuzz counters at failure time
  // ("pardfs_fuzz_batches_total=… pardfs_fuzz_queries_total=…"). Replaying
  // the seed in a fresh process must reproduce these counts exactly, so a
  // replay that diverges from the original run is detectable before the
  // oracle even fires. Empty on ok runs and under PARDFS_NO_METRICS.
  std::string obs_counters;
  std::uint64_t batches = 0;
  std::uint64_t updates = 0;
  std::uint64_t queries = 0;

  explicit operator bool() const { return ok; }
};

// One deterministic run. Same options => same stream, same forests, same
// verdict, at any thread count (the engine's determinism contract).
FuzzResult run_fuzz(const FuzzOptions& options);

// The CI soak matrix: `seeds` consecutive seeds starting at seed_base, over
// every family in {random, power_law, grid, dynamic_map} and all three
// fault-free entry points (core, service, sharded) plus the chaos entry
// under kChaosSchedulesPerSeed distinct fault schedules, `batches` batches
// each. Stops at the first failure (its result is returned); otherwise
// returns an ok result with the accumulated totals.
inline constexpr int kChaosSchedulesPerSeed = 3;
FuzzResult run_soak(std::uint64_t seed_base, int seeds, int batches, Vertex n,
                    bool force_scalar = false);

// The replay line run_fuzz/run_soak would print for `options`.
std::string replay_line(const FuzzOptions& options);

}  // namespace pardfs::testing
