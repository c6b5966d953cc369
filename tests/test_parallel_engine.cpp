// The rerooting engine's determinism contract: one update stream, any
// process team, byte-identical forests and stats. The engine steps its
// rounds on the calling thread, but the array loops around it (D build, CSR
// counts, LCA fill) fork the process team (TeamSizeGuard), so this pins
//   * the final parent array at teams 1/2/4/8 (single-update path and the
//     combined batch path, vertex inserts included),
//   * every RerootStats counter (round counts included),
//   * the (pos, u, v) total order of best_edge_to_chain, which must not
//     depend on piece-iteration order.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/dynamic_dfs.hpp"
#include "core/fault_tolerant.hpp"
#include "core/rerooter_internal.hpp"
#include "service/workload.hpp"
#include "team_size.hpp"
#include "tree/validation.hpp"

namespace pardfs {
namespace {

using FingerPrint = std::array<std::uint64_t, 13>;

FingerPrint pack(const RerootStats& s) {
  return {s.global_rounds, s.query_batches,  s.components_processed,
          s.vertices_traversed, s.disintegrating, s.path_halving,
          s.disconnecting,      s.heavy_l,        s.heavy_p,
          s.heavy_r,            s.heavy_special,  s.fallbacks,
          s.max_phase};
}

struct StreamResult {
  std::vector<Vertex> parent;
  std::vector<FingerPrint> stats;  // one per applied update / batch

  bool operator==(const StreamResult& o) const {
    return parent == o.parent && stats == o.stats;
  }
};

// Drives `count` updates of the scenario stream through a fresh DynamicDfs
// with the process team pinned to `team`, `chunk` updates at a time
// (chunk 1 = the per-update path, larger = the combined batch path).
StreamResult drive(service::Scenario scenario, Vertex n, int count,
                   std::size_t chunk, int team) {
  const TeamSizeGuard team_size(team);
  const service::WorkloadSpec spec{scenario, n, 77};
  service::WorkloadDriver driver(spec);
  DynamicDfs dfs(service::make_initial_graph(spec));
  StreamResult result;
  std::vector<GraphUpdate> batch;
  for (int applied = 0; applied < count;) {
    batch.clear();
    for (std::size_t j = 0; j < chunk && applied < count; ++j, ++applied) {
      batch.push_back(driver.next());
    }
    if (chunk == 1) {
      dfs.apply(batch.front());
    } else {
      dfs.apply_batch(batch);
    }
    result.stats.push_back(pack(dfs.last_stats()));
  }
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  EXPECT_TRUE(val.ok) << val.reason;
  result.parent.assign(dfs.parent().begin(), dfs.parent().end());
  return result;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<service::Scenario, std::size_t>> {};

TEST_P(ParallelDeterminism, SameTreeAndStatsAtAnyThreadCount) {
  const auto [scenario, chunk] = GetParam();
  const StreamResult serial = drive(scenario, 128, 80, chunk, 1);
  for (const int team : {2, 4, 8}) {
    const StreamResult parallel = drive(scenario, 128, 80, chunk, team);
    ASSERT_EQ(serial.parent, parallel.parent)
        << "parent array diverged at team " << team;
    ASSERT_EQ(serial.stats, parallel.stats)
        << "RerootStats diverged at team " << team;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StarAndSocial, ParallelDeterminism,
    ::testing::Combine(::testing::Values(service::Scenario::kAdversarialStar,
                                         service::Scenario::kSocialMix),
                       ::testing::Values(std::size_t{1}, std::size_t{8})),
    [](const auto& info) {
      return std::string(service::scenario_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == 1 ? "_single" : "_batch");
    });

TEST(ParallelEngine, FaultTolerantPathDeterministicAcrossThreadCounts) {
  // The fault-tolerant wrapper drives the same engine through non-identity
  // oracle views (every query decomposes over the base tree); its rounds
  // must honor the same contract.
  const auto run_ft = [](int team) {
    const TeamSizeGuard team_size(team);
    const service::WorkloadSpec spec{service::Scenario::kAdversarialStar, 96, 5};
    service::WorkloadDriver driver(spec);
    FaultTolerantDfs ft(service::make_initial_graph(spec));
    std::vector<FingerPrint> stats;
    for (int i = 0; i < 6; ++i) {  // within the k <= log n batch budget
      ft.apply_incremental(driver.next());
      stats.push_back(pack(ft.last_stats()));
    }
    const auto val = validate_dfs_forest(ft.graph(), ft.parent());
    EXPECT_TRUE(val.ok) << val.reason;
    return std::make_pair(
        std::vector<Vertex>(ft.parent().begin(), ft.parent().end()), stats);
  };
  const auto serial = run_ft(1);
  for (const int team : {2, 4, 8}) {
    const auto parallel = run_ft(team);
    ASSERT_EQ(serial.first, parallel.first)
        << "fault-tolerant parent array diverged at team " << team;
    ASSERT_EQ(serial.second, parallel.second)
        << "fault-tolerant RerootStats diverged at team " << team;
  }
}

TEST(ParallelEngine, BatchesWithVertexInsertsDeterministicAcrossThreadCounts) {
  // Vertex inserts are admitted up front and join the combined pass
  // (DESIGN.md §7.1). At n = 4096 the array loops fork (pram::kSerialGrain)
  // and the pass runs the per-round machinery above the serial cutoff; its
  // forest and stats must not depend on the team size.
  struct Run {
    std::vector<Vertex> parent;
    std::vector<FingerPrint> stats;
    std::vector<std::size_t> shape;  // per batch: segments, rebuilds, new ids
    std::size_t combined_with_inserts = 0;
  };
  const auto run = [](int team) {
    const TeamSizeGuard team_size(team);
    const service::WorkloadSpec spec{service::Scenario::kSocialMix, 4096, 13};
    service::WorkloadDriver driver(spec);
    DynamicDfs dfs(service::make_initial_graph(spec));
    Run r;
    for (int b = 0; b < 10; ++b) {
      std::vector<GraphUpdate> batch;
      for (int j = 0; j < 12; ++j) batch.push_back(driver.next());
      const BatchStats bs = dfs.apply_batch(batch);
      r.stats.push_back(pack(dfs.last_stats()));
      r.shape.push_back(bs.segments);
      r.shape.push_back(bs.index_rebuilds);
      r.shape.insert(r.shape.end(), bs.new_vertices.begin(), bs.new_vertices.end());
      if (bs.segments > 0 && !bs.new_vertices.empty()) ++r.combined_with_inserts;
    }
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    EXPECT_TRUE(val.ok) << val.reason;
    r.parent.assign(dfs.parent().begin(), dfs.parent().end());
    return r;
  };
  const Run serial = run(1);
  ASSERT_GT(serial.combined_with_inserts, 0u)
      << "the stream must put vertex inserts into combined passes";
  for (const int team : {2, 4, 8}) {
    const Run parallel = run(team);
    ASSERT_EQ(serial.parent, parallel.parent)
        << "parent array diverged at team " << team;
    ASSERT_EQ(serial.stats, parallel.stats)
        << "RerootStats diverged at team " << team;
    ASSERT_EQ(serial.shape, parallel.shape)
        << "batch shape diverged at team " << team;
  }
}

// ---- best_edge_to_chain total order ---------------------------------------

struct ChainFixture {
  // Tree: 0 - 1 - 2 with leaves 3, 4 under 2 and 5 under 2; extra graph
  // edges give the leaves back edges into the chain [2, 1, 0].
  Graph g{6};
  std::vector<Vertex> parent;
  TreeIndex index;
  AdjacencyOracle oracle;

  ChainFixture() {
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(2, 4);
    g.add_edge(2, 5);
    g.add_edge(3, 1);  // pieces {3} and {4} both reach chain vertex 1:
    g.add_edge(4, 1);  // equal pos, tie must fall to the smaller source u
    g.add_edge(5, 0);  // piece {5} reaches vertex 0 = the largest pos
    parent = static_dfs(g);
    index.build(parent);
    oracle.build(g, index);
  }

  detail::ChainHit best(std::vector<Piece> pieces) {
    const OracleView view(&oracle, &index, /*identity=*/true);
    detail::EngineCtx ctx(index, view);
    const std::vector<Vertex> chain = {2, 1, 0};
    const std::vector<detail::Run> runs = detail::split_runs(index, chain);
    ctx.index_chain(chain);
    return detail::best_edge_to_chain(ctx, pieces, chain, runs);
  }
};

TEST(ParallelEngine, BestEdgeToChainTieBreaksOnSourceId) {
  ChainFixture f;
  ASSERT_EQ(f.parent[3], 2);  // the assumed tree shape (DFS goes 0,1,2,...)
  const std::vector<Piece> order_a = {Piece::subtree(3), Piece::subtree(4)};
  const std::vector<Piece> order_b = {Piece::subtree(4), Piece::subtree(3)};
  const detail::ChainHit a = f.best(order_a);
  const detail::ChainHit b = f.best(order_b);
  ASSERT_TRUE(a.valid());
  // Equal chain position (both hit vertex 1): the smaller source wins,
  // independent of piece-iteration order.
  EXPECT_EQ(a.edge.u, 3);
  EXPECT_EQ(a.edge.v, 1);
  EXPECT_EQ(b.edge.u, a.edge.u);
  EXPECT_EQ(b.edge.v, a.edge.v);
  EXPECT_EQ(b.pos, a.pos);
}

TEST(ParallelEngine, BestEdgeToChainPositionDominatesSourceId) {
  ChainFixture f;
  // Piece {5} hits vertex 0 (pos 2) — beats the pos-1 hits of the smaller
  // sources 3 and 4.
  const detail::ChainHit hit =
      f.best({Piece::subtree(3), Piece::subtree(4), Piece::subtree(5)});
  ASSERT_TRUE(hit.valid());
  EXPECT_EQ(hit.edge.u, 5);
  EXPECT_EQ(hit.edge.v, 0);
  EXPECT_EQ(hit.pos, 2);
}

}  // namespace
}  // namespace pardfs
