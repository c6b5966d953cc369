#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/dynamic_dfs.hpp"
#include "obs/metrics.hpp"
#include "pram/parallel.hpp"
#include "service/journal.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

#if defined(PARDFS_HAVE_OPENMP)
#include <omp.h>
#endif

namespace perfbench {

using pardfs::DynamicDfs;
using pardfs::Graph;

namespace {

// A replay leg runs at least kReplayBatches batches and kReplayUpdates
// updates, so even single-update batches cross a few epoch rebases.
constexpr std::size_t kReplayBatches = 16;
constexpr std::size_t kReplayUpdates = 256;
constexpr std::size_t kJournalBatches = 256; // the journal's checkpoint period
constexpr int kReps = 7;                     // repetitions of single-layer calls
constexpr std::size_t kProbeSources = 4096;

// The writers' streams interleaved one update at a time: still sequentially
// feasible, because writers own disjoint parts of the graph.
std::vector<GraphUpdate> replay_stream(const Inputs& in, std::size_t length) {
  std::vector<GraphUpdate> out;
  for (std::size_t i = 0; out.size() < length; ++i) {
    bool any = false;
    for (const UpdateStream& s : in.writers) {
      if (i < s.updates.size() && out.size() < length) {
        out.push_back(s.updates[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

// Runs `stream` through a private engine in batches of `batch`, timing
// each apply_batch call.
std::vector<double> replay_leg(const Inputs& in, const std::vector<GraphUpdate>& stream,
                               std::size_t batch, int threads, SpanKind kind,
                               SpanLog& log) {
  DynamicDfs engine(in.initial, pardfs::RerootStrategy::kPaper, nullptr, threads);
  std::vector<double> us;
  for (std::size_t b = 0; (b + 1) * batch <= stream.size(); ++b) {
    const std::span<const GraphUpdate> slice(stream.data() + b * batch, batch);
    const std::uint64_t t0 = now_ns();
    (void)engine.apply_batch(slice);
    const std::uint64_t t1 = now_ns();
    log.add(kind, t0, t1);
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  return us;
}

// Runs `fn` kReps times, logging and returning each duration in `unit_ns`.
template <typename Fn>
std::vector<double> repeat(SpanKind kind, double unit_ns, SpanLog& log, Fn&& fn) {
  std::vector<double> out;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    log.add(kind, t0, t1);
    out.push_back(static_cast<double>(t1 - t0) / unit_ns);
  }
  return out;
}

// Runs `fn` with this thread's worker team set to `team`: the pram facade's
// cap (index-build dispatch, reduce teams) and the OpenMP default of the
// plain parallel-for loops. The facade's default (0) and the process's
// OpenMP default are restored afterwards.
template <typename Fn>
auto with_team(int team, Fn&& fn) {
  pardfs::pram::set_num_threads(team);
#if defined(PARDFS_HAVE_OPENMP)
  const int omp_team = omp_get_max_threads();
  omp_set_num_threads(team);
#endif
  auto result = fn();
#if defined(PARDFS_HAVE_OPENMP)
  omp_set_num_threads(omp_team);
#endif
  pardfs::pram::set_num_threads(0);
  return result;
}

std::uint64_t counter(const char* name) {
  return pardfs::obs::Registry::global().counter(name).value();
}

// A graph with `capacity` ids, every one dead: the empty side of a
// component migration.
Graph all_dead(Vertex capacity) {
  Graph g(capacity);
  for (Vertex v = 0; v < capacity; ++v) g.remove_vertex(v);
  return g;
}

}  // namespace

MetricTable run_layer_legs(const Inputs& in, const Graph& final_graph,
                           std::span<const Vertex> final_parent,
                           std::size_t batch, std::uint64_t seed, SpanLog& log) {
  MetricTable m;
  auto put = [&m](const std::string& name, double value, const char* unit,
                  std::uint64_t samples, const char* module) {
    m[name] = Metric{value, unit, samples, module};
  };
  auto put_median = [&](const std::string& name, std::vector<double> v,
                        const char* unit, const char* module) {
    const auto n = v.size();
    put(name, quantile(v, 0.5), unit, n, module);
  };
  batch = std::max<std::size_t>(batch, 1);
  const std::vector<GraphUpdate> stream =
      replay_stream(in, std::max(kReplayBatches * batch, kReplayUpdates));
  const std::vector<GraphUpdate> journal_stream = replay_stream(in, kJournalBatches * batch);
  const char* kCore = "core/dynamic_dfs";

  // ---- core/dynamic_dfs: the replay leg at the team a deployment gets by
  // default (one worker per hardware thread), then at a team of one.
  const int default_team = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const pardfs::UpdatePhaseBreakdown before = DynamicDfs::phase_breakdown();
  const std::uint64_t rounds0 = counter("pardfs_reroot_rounds_total");
  const std::uint64_t qbatches0 = counter("pardfs_reroot_query_batches_total");
  std::vector<double> tn = with_team(default_team, [&] {
    return replay_leg(in, stream, batch, 0, SpanKind::kApplyBatch, log);
  });
  const pardfs::UpdatePhaseBreakdown after = DynamicDfs::phase_breakdown();
  const double legs = static_cast<double>(std::max<std::size_t>(tn.size(), 1));
  put("core.patch_us", (after.patch_us - before.patch_us) / legs, "us", tn.size(), kCore);
  put("core.reroot_us", (after.reroot_us - before.reroot_us) / legs, "us", tn.size(), kCore);
  put("core.index_rebuild_us", (after.index_rebuild_us - before.index_rebuild_us) / legs,
      "us", tn.size(), kCore);
  put("core.rebase_us", (after.rebase_us - before.rebase_us) / legs, "us", tn.size(), kCore);
  put("core.reroot_rounds",
      static_cast<double>(counter("pardfs_reroot_rounds_total") - rounds0), "count", 0, kCore);
  put("core.query_batches",
      static_cast<double>(counter("pardfs_reroot_query_batches_total") - qbatches0), "count",
      0, kCore);
  const double tn_us = quantile(tn, 0.5);
  put("core.apply_batch_us", tn_us, "us", tn.size(), kCore);
  put("core.replay_batch_size", static_cast<double>(batch), "count", 0, kCore);

  std::vector<double> t1 = with_team(1, [&] {
    return replay_leg(in, stream, batch, 1, SpanKind::kApplyBatchT1, log);
  });
  const double t1_us = quantile(t1, 0.5);
  put("core.apply_batch_us_t1", t1_us, "us", t1.size(), "parallel efficiency");
  put("core.parallel_speedup", tn_us > 0.0 ? t1_us / tn_us : 0.0, "x", 0,
      "parallel efficiency");

  // ---- tree/tree_index on the final forest.
  const std::span<const std::uint8_t> alive = final_graph.alive();
  pardfs::TreeIndex index;
  put_median("tree.index_build_us", with_team(default_team, [&] {
               return repeat(SpanKind::kIndexBuild, 1e3, log, [&] {
                 index.build(final_parent, alive, pardfs::TreeBuildMode::kAuto);
               });
             }),
             "us", "tree/tree_index");
  put_median("tree.index_build_serial_us",
             repeat(SpanKind::kIndexBuildSerial, 1e3, log,
                    [&] { index.build(final_parent, alive, pardfs::TreeBuildMode::kSerial); }),
             "us", "tree/tree_index");

  // ---- core/adjacency_oracle (D) over the final graph and forest.
  pardfs::AdjacencyOracle oracle;
  put_median("oracle.build_ms",
             repeat(SpanKind::kOracleBuild, 1e6, log, [&] { oracle.build(final_graph, index); }),
             "ms", "core/adjacency_oracle");
  pardfs::Rng rng(seed ^ 0x0DDBA11CAFEF00DULL);
  auto random_alive = [&] {
    for (;;) {
      const auto v = static_cast<Vertex>(
          rng.below(static_cast<std::uint64_t>(final_graph.capacity())));
      if (final_graph.is_alive(v)) return v;
    }
  };
  {
    // Probe a root-to-deepest-sampled-vertex path from random sources.
    Vertex bottom = random_alive();
    for (int i = 0; i < 64; ++i) {
      const Vertex x = random_alive();
      if (index.depth(x) > index.depth(bottom)) bottom = x;
    }
    const pardfs::PathSeg seg{index.root_of(bottom), bottom};
    std::vector<Vertex> sources(kProbeSources);
    for (Vertex& s : sources) s = random_alive();
    std::vector<std::optional<pardfs::Edge>> out(kProbeSources);
    put_median("oracle.probe_ns",
               repeat(SpanKind::kOracleProbe, static_cast<double>(kProbeSources), log,
                      [&] {
                        oracle.query_vertex_batch(sources.data(), sources.size(), seg,
                                                  pardfs::PathEnd::kTop, out.data());
                      }),
               "ns", "core/adjacency_oracle");
  }

  // ---- core/dynamic_dfs sharding ops: move one component back and forth.
  {
    DynamicDfs home(final_graph);
    DynamicDfs away(all_dead(final_graph.capacity()));
    const Vertex v = random_alive();
    std::vector<double> extract_ms, adopt_ms;
    for (int r = 0; r < kReps; ++r) {
      DynamicDfs& from = r % 2 == 0 ? home : away;
      DynamicDfs& to = r % 2 == 0 ? away : home;
      std::uint64_t t0 = now_ns();
      DynamicDfs::ComponentTransfer t = from.extract_component(v);
      std::uint64_t t1 = now_ns();
      log.add(SpanKind::kExtract, t0, t1);
      extract_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      t0 = now_ns();
      to.adopt_component(std::move(t));
      t1 = now_ns();
      log.add(SpanKind::kAdopt, t0, t1);
      adopt_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
    put_median("core.extract_component_ms", std::move(extract_ms), "ms", kCore);
    put_median("core.adopt_component_ms", std::move(adopt_ms), "ms", kCore);
  }

  // ---- service/journal: checkpoint the final state; replay 256 batches.
  {
    pardfs::service::UpdateJournal journal(in.initial, {});
    put_median("journal.checkpoint_ms",
               repeat(SpanKind::kCheckpoint, 1e6, log,
                      [&] { journal.checkpoint(final_graph, final_parent, 1, 0); }),
               "ms", "service/journal");
    pardfs::service::UpdateJournal log_of_batches(in.initial, {});
    std::size_t recorded = 0;
    for (; (recorded + 1) * batch <= journal_stream.size(); ++recorded) {
      log_of_batches.record_apply(
          std::span<const GraphUpdate>(journal_stream.data() + recorded * batch, batch),
          recorded + 2, (recorded + 1) * batch);
    }
    const std::uint64_t t0 = now_ns();
    (void)log_of_batches.replay();
    const std::uint64_t t1 = now_ns();
    log.add(SpanKind::kReplay, t0, t1);
    put("journal.replay_ms", static_cast<double>(t1 - t0) * 1e-6, "ms", recorded,
        "service/journal");
  }

  // ---- baseline/static_dfs: the recompute-from-scratch comparator (E1).
  std::vector<double> static_ms = repeat(SpanKind::kStaticDfs, 1e6, log, [&] {
    const auto parent = pardfs::static_dfs(final_graph);
    if (parent.size() != static_cast<std::size_t>(final_graph.capacity())) std::abort();
  });
  const double static_median = quantile(static_ms, 0.5);
  put("baseline.static_dfs_ms", static_median, "ms", static_ms.size(), "baseline/static_dfs");
  const double per_update_us = tn_us / static_cast<double>(batch);
  put("core.update_vs_recompute", per_update_us > 0.0 ? static_median * 1e3 / per_update_us : 0.0,
      "x", 0, "baseline/static_dfs");
  return m;
}

}  // namespace perfbench
