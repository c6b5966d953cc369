// Long-run and degenerate-input stress: large graphs, drain-to-empty /
// grow-to-clique trajectories, tiny graphs, heavy vertex churn — validity
// asserted after every single update — plus the service workload scenarios
// pushed through the batch path and through a live 1-shard ShardRouter.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "service/shard_router.hpp"
#include "service/workload.hpp"
#include "team_size.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

TEST(Stress, LargeGraphMixedChurn) {
  Rng rng(9001);
  Graph g = gen::random_connected(1500, 3000, rng);
  DynamicDfs dfs(std::move(g));
  for (int step = 0; step < 30; ++step) {
    gen::Update u;
    ASSERT_TRUE(gen::random_update(dfs.graph(), rng, 1, 1, 0.3, 0.3, u));
    switch (u.kind) {
      case gen::UpdateKind::kInsertEdge: dfs.insert_edge(u.u, u.v); break;
      case gen::UpdateKind::kDeleteEdge: dfs.delete_edge(u.u, u.v); break;
      case gen::UpdateKind::kInsertVertex: dfs.insert_vertex(u.neighbors); break;
      case gen::UpdateKind::kDeleteVertex: dfs.delete_vertex(u.u); break;
    }
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "step " << step << ": " << val.reason;
    ASSERT_LE(dfs.last_stats().global_rounds, 256u) << "rounds must stay polylog";
  }
}

TEST(Stress, DrainGraphToEmpty) {
  Rng rng(9002);
  Graph g = gen::random_connected(30, 60, rng);
  DynamicDfs dfs(std::move(g));
  // Delete every edge, then every vertex.
  while (dfs.graph().num_edges() > 0) {
    const auto edges = dfs.graph().edges();
    dfs.delete_edge(edges.front().u, edges.front().v);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << val.reason;
  }
  for (Vertex v = 0; v < 30; ++v) {
    if (!dfs.graph().is_alive(v)) continue;
    dfs.delete_vertex(v);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << val.reason;
  }
  EXPECT_EQ(dfs.graph().num_vertices(), 0);
}

TEST(Stress, GrowPathToClique) {
  const Vertex n = 24;
  DynamicDfs dfs(gen::path(n));
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (dfs.graph().has_edge(u, v)) continue;
      dfs.insert_edge(u, v);
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << "(" << u << "," << v << "): " << val.reason;
    }
  }
  EXPECT_EQ(dfs.graph().num_edges(), static_cast<std::int64_t>(n) * (n - 1) / 2);
}

TEST(Stress, TinyGraphs) {
  // 1 vertex.
  DynamicDfs one(Graph(1));
  EXPECT_EQ(one.parent_of(0), kNullVertex);
  one.delete_vertex(0);
  EXPECT_EQ(one.graph().num_vertices(), 0);
  // 2 vertices, flip the single edge repeatedly.
  DynamicDfs two(Graph(2));
  for (int i = 0; i < 5; ++i) {
    two.insert_edge(0, 1);
    ASSERT_TRUE(validate_dfs_forest(two.graph(), two.parent()).ok);
    two.delete_edge(0, 1);
    ASSERT_TRUE(validate_dfs_forest(two.graph(), two.parent()).ok);
  }
}

TEST(Stress, RebuildFromIsolatedVertices) {
  // All-isolated start; stitch a random tree vertex by vertex via
  // vertex insertions carrying edges.
  DynamicDfs dfs(Graph(1));
  Rng rng(9003);
  for (int i = 0; i < 40; ++i) {
    const Vertex cap = dfs.graph().capacity();
    std::vector<Vertex> nbrs;
    // 1-3 random alive neighbors.
    for (std::uint64_t t = 0, want = 1 + rng.below(3); t < 8 && nbrs.size() < want;
         ++t) {
      const Vertex c = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(cap)));
      if (dfs.graph().is_alive(c) &&
          std::find(nbrs.begin(), nbrs.end(), c) == nbrs.end()) {
        nbrs.push_back(c);
      }
    }
    dfs.insert_vertex(nbrs);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "insert " << i << ": " << val.reason;
  }
  EXPECT_EQ(dfs.graph().num_vertices(), 41);
}

TEST(Stress, AlternatingSplitMerge) {
  // Two cliques joined by one bridge; churn the bridge.
  const Vertex half = 12;
  Graph g(2 * half);
  for (Vertex i = 0; i < half; ++i)
    for (Vertex j = i + 1; j < half; ++j) {
      g.add_edge(i, j);
      g.add_edge(half + i, half + j);
    }
  g.add_edge(0, half);
  DynamicDfs dfs(std::move(g));
  for (int round = 0; round < 8; ++round) {
    dfs.delete_edge(0, half);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
    ASSERT_NE(dfs.root_of(0), dfs.root_of(half));
    const Vertex a = static_cast<Vertex>((round + 1) % half);
    const Vertex b = static_cast<Vertex>(half + (round * 5 + 3) % half);
    dfs.insert_edge(a, b);  // distinct from the canonical bridge (0, half)
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
    ASSERT_EQ(dfs.root_of(0), dfs.root_of(half));
    // Restore the canonical bridge, then remove the temporary one.
    dfs.insert_edge(0, half);
    dfs.delete_edge(a, b);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
}

TEST(Stress, WorkloadScenariosThroughBatches) {
  // Every service scenario, driven straight through apply_batch in chunks,
  // validity checked after every batch.
  using service::Scenario;
  for (const Scenario scenario :
       {Scenario::kReadHeavy, Scenario::kInsertChurn,
        Scenario::kAdversarialStar, Scenario::kSocialMix}) {
    const service::WorkloadSpec spec{scenario, 128,
                                     41 + static_cast<std::uint64_t>(scenario)};
    service::WorkloadDriver driver(spec);
    DynamicDfs dfs(service::make_initial_graph(spec));
    for (int batch = 0; batch < 25; ++batch) {
      std::vector<GraphUpdate> updates;
      for (int i = 0; i < 8; ++i) updates.push_back(driver.next());
      dfs.apply_batch(updates);
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << service::scenario_name(scenario) << " batch "
                          << batch << ": " << val.reason;
    }
    ASSERT_EQ(dfs.graph().num_edges(), driver.graph().num_edges());
    ASSERT_EQ(dfs.graph().num_vertices(), driver.graph().num_vertices());
  }
}

TEST(Stress, WorkloadDriverClampsTinyScales) {
  // make_initial_graph clamps tiny n; the driver's scenario arithmetic must
  // use the same clamp (an unclamped star spec of n=1 used to divide by 0).
  for (Vertex n : {1, 2, 7}) {
    const service::WorkloadSpec spec{service::Scenario::kAdversarialStar, n, 3};
    service::WorkloadDriver driver(spec);
    DynamicDfs dfs(service::make_initial_graph(spec));
    for (int i = 0; i < 40; ++i) dfs.apply(driver.next());
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
    ASSERT_EQ(dfs.graph().num_edges(), driver.graph().num_edges());
  }
}

TEST(Stress, ServiceSurvivesAdversarialStarWithReaders) {
  // The worst-case scenario for rerooting, served live: 4 readers hammer
  // snapshots while the star center churns. (The 8-reader consistency
  // acceptance test lives in test_service.cpp; this one leans on volume.)
  const service::WorkloadSpec spec{service::Scenario::kAdversarialStar, 192, 7};
  service::WorkloadDriver driver(spec);
  service::ShardRouter svc(service::make_initial_graph(spec));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(99 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const service::SnapshotPtr snap = svc.shard_snapshot(0);
        const Vertex u = static_cast<Vertex>(rng.below(snap->capacity()));
        if (snap->contains(u)) {
          std::size_t work = snap->path_to_root(u).size();
          work += snap->same_component(0, u) ? 1 : 0;
          volatile std::size_t sink = work;
          (void)sink;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_NE(svc.apply_sync(driver.next()), service::UpdateTicket::kRejected);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  svc.stop();
  EXPECT_GT(reads.load(), 0u);
  const auto val = validate_dfs_forest(svc.core(0).graph(), svc.core(0).parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

TEST(Stress, ParallelEngineBatchChurn) {
  // The rerooting engine driven hard through the combined batch path with
  // the process team pinned to 4 — the scenario the TSAN CI job must see
  // race-free.
  using service::Scenario;
  const TeamSizeGuard team_size(4);
  for (const Scenario scenario :
       {Scenario::kAdversarialStar, Scenario::kSocialMix}) {
    const service::WorkloadSpec spec{scenario, 160,
                                     91 + static_cast<std::uint64_t>(scenario)};
    service::WorkloadDriver driver(spec);
    DynamicDfs dfs(service::make_initial_graph(spec));
    for (int batch = 0; batch < 20; ++batch) {
      std::vector<GraphUpdate> updates;
      for (int i = 0; i < 8; ++i) updates.push_back(driver.next());
      dfs.apply_batch(updates);
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << service::scenario_name(scenario) << " batch "
                          << batch << ": " << val.reason;
    }
  }
}

TEST(Stress, ParallelEngineServiceUnderReaders) {
  // The engine inside the writer thread, process team pinned to 4, while
  // readers hammer snapshots: writer + readers all live at once.
  const TeamSizeGuard team_size(4);
  const service::WorkloadSpec spec{service::Scenario::kAdversarialStar, 192, 13};
  service::WorkloadDriver driver(spec);
  service::ShardRouter svc(service::make_initial_graph(spec), service::ServiceConfig{});
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(133 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const service::SnapshotPtr snap = svc.shard_snapshot(0);
        const Vertex u = static_cast<Vertex>(rng.below(snap->capacity()));
        if (snap->contains(u)) {
          volatile Vertex sink = snap->root_of(u);
          (void)sink;
        }
      }
    });
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_NE(svc.apply_sync(driver.next()), service::UpdateTicket::kRejected);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  svc.stop();
  const auto val = validate_dfs_forest(svc.core(0).graph(), svc.core(0).parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

TEST(Stress, SequentialStrategyAlsoCorrectUnderChurn) {
  Rng rng(9004);
  Graph g = gen::random_connected(80, 120, rng);
  DynamicDfs dfs(std::move(g), RerootStrategy::kSequentialL);
  for (int step = 0; step < 40; ++step) {
    gen::Update u;
    ASSERT_TRUE(gen::random_update(dfs.graph(), rng, 1, 1, 0.2, 0.2, u));
    switch (u.kind) {
      case gen::UpdateKind::kInsertEdge: dfs.insert_edge(u.u, u.v); break;
      case gen::UpdateKind::kDeleteEdge: dfs.delete_edge(u.u, u.v); break;
      case gen::UpdateKind::kInsertVertex: dfs.insert_vertex(u.neighbors); break;
      case gen::UpdateKind::kDeleteVertex: dfs.delete_vertex(u.u); break;
    }
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
}

}  // namespace
}  // namespace pardfs
