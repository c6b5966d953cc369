// Property sweep: after EVERY update of a long random sequence, the
// maintained forest must be a valid DFS forest of the current graph, for
// many seeds, densities, update mixes and both strategies. This is the
// library's main correctness gauntlet.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "team_size.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

struct MixParam {
  const char* name;
  double ins_e, del_e, ins_v, del_v;
};

class DynamicSweep
    : public ::testing::TestWithParam<std::tuple<int, int, MixParam, RerootStrategy>> {};

TEST_P(DynamicSweep, ForestStaysValid) {
  const auto [seed, density, mix, strategy] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const Vertex n = 60;
  Graph g = gen::random_connected(n, static_cast<std::int64_t>(density) * n, rng);
  DynamicDfs dfs(g, strategy);
  for (int step = 0; step < 120; ++step) {
    gen::Update u;
    if (!gen::random_update(dfs.graph(), rng, mix.ins_e, mix.del_e, mix.ins_v,
                            mix.del_v, u)) {
      break;
    }
    switch (u.kind) {
      case gen::UpdateKind::kInsertEdge:
        dfs.insert_edge(u.u, u.v);
        break;
      case gen::UpdateKind::kDeleteEdge:
        dfs.delete_edge(u.u, u.v);
        break;
      case gen::UpdateKind::kInsertVertex:
        dfs.insert_vertex(u.neighbors);
        break;
      case gen::UpdateKind::kDeleteVertex:
        dfs.delete_vertex(u.u);
        break;
    }
    const auto validation = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(validation.ok)
        << "seed=" << seed << " density=" << density << " mix=" << mix.name
        << " step=" << step << ": " << validation.reason;
  }
}

constexpr MixParam kMixes[] = {
    {"edges_only", 1.0, 1.0, 0.0, 0.0},
    {"mostly_deletes", 0.2, 1.0, 0.1, 0.5},
    {"mostly_inserts", 1.0, 0.2, 0.5, 0.1},
    {"full_mix", 1.0, 1.0, 0.5, 0.5},
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicSweep,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(0, 1, 4),
                       ::testing::ValuesIn(kMixes),
                       ::testing::Values(RerootStrategy::kPaper,
                                         RerootStrategy::kSequentialL)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, MixParam, RerootStrategy>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param).name +
             (std::get<3>(info.param) == RerootStrategy::kPaper ? "_paper"
                                                                : "_seql");
    });

// Family sweep: the same per-update validity property at n=96 over the graph
// families the fuzz soak exercises (random, grid, Barabási–Albert), with a
// delete-heavy axis and a process team of 4 (TeamSizeGuard) — the forest
// must stay valid AND be identical to the team-1 run at every step.
struct FamilyParam {
  const char* name;
  Graph (*make)(Vertex n, Rng& rng);
};

Graph make_random_family(Vertex n, Rng& rng) {
  return gen::random_connected(n, 2 * static_cast<std::int64_t>(n), rng);
}
Graph make_grid_family(Vertex n, Rng&) {
  Vertex rows = 2;
  while ((rows + 1) * (rows + 1) <= n) ++rows;
  return gen::grid(rows, n / rows);
}
Graph make_ba_family(Vertex n, Rng& rng) {
  return gen::barabasi_albert(n, 3, rng);
}

constexpr FamilyParam kFamilies[] = {
    {"random", make_random_family},
    {"grid", make_grid_family},
    {"barabasi_albert", make_ba_family},
};

class FamilySweep
    : public ::testing::TestWithParam<std::tuple<int, FamilyParam, MixParam>> {};

TEST_P(FamilySweep, ForestValidAndThreadCountInvariant) {
  const auto [seed, family, mix] = GetParam();
  const Vertex n = 96;
  Rng graph_rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
  const Graph initial = family.make(n, graph_rng);
  TeamSizeGuard team_size(1);
  DynamicDfs serial(initial);
  team_size.set(4);
  DynamicDfs parallel(initial);
  Graph mirror = initial;
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
  for (int step = 0; step < 100; ++step) {
    gen::Update u;
    if (!gen::random_update(mirror, rng, mix.ins_e, mix.del_e, mix.ins_v,
                            mix.del_v, u)) {
      break;
    }
    gen::apply_update(mirror, u);
    for (const auto& [dfs, team] : {std::pair{&serial, 1}, std::pair{&parallel, 4}}) {
      team_size.set(team);
      switch (u.kind) {
        case gen::UpdateKind::kInsertEdge:
          dfs->insert_edge(u.u, u.v);
          break;
        case gen::UpdateKind::kDeleteEdge:
          dfs->delete_edge(u.u, u.v);
          break;
        case gen::UpdateKind::kInsertVertex:
          dfs->insert_vertex(u.neighbors);
          break;
        case gen::UpdateKind::kDeleteVertex:
          dfs->delete_vertex(u.u);
          break;
      }
    }
    const auto validation = validate_dfs_forest(mirror, serial.parent());
    ASSERT_TRUE(validation.ok) << "seed=" << seed << " family=" << family.name
                               << " mix=" << mix.name << " step=" << step
                               << ": " << validation.reason;
    ASSERT_TRUE(std::ranges::equal(serial.parent(), parallel.parent()))
        << "seed=" << seed << " family=" << family.name << " step=" << step
        << ": forest differs between teams 1 and 4";
  }
}

constexpr MixParam kFamilyMixes[] = {
    {"delete_heavy", 0.15, 1.0, 0.05, 0.8},
    {"full_mix", 1.0, 1.0, 0.5, 0.5},
};

INSTANTIATE_TEST_SUITE_P(
    Families, FamilySweep,
    ::testing::Combine(::testing::Range(0, 4), ::testing::ValuesIn(kFamilies),
                       ::testing::ValuesIn(kFamilyMixes)),
    [](const ::testing::TestParamInfo<std::tuple<int, FamilyParam, MixParam>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param).name + "_" + std::get<2>(info.param).name;
    });

// Exhaustive micro sweep: every single-edge update on every connected graph
// over a set of small seeds — catches corner cases the random walk misses.
TEST(DynamicExhaustive, AllSingleEdgeUpdatesOnSmallGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const Vertex n = static_cast<Vertex>(4 + rng.below(5));  // 4..8 vertices
    const std::int64_t extra = static_cast<std::int64_t>(rng.below(6));
    const Graph g = gen::random_connected(n, extra, rng);
    // Every possible edge deletion.
    for (const Edge& e : g.edges()) {
      DynamicDfs dfs(g);
      dfs.delete_edge(e.u, e.v);
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << "trial " << trial << " delete (" << e.u << "," << e.v
                          << "): " << val.reason;
    }
    // Every possible edge insertion.
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (g.has_edge(u, v)) continue;
        DynamicDfs dfs(g);
        dfs.insert_edge(u, v);
        const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
        ASSERT_TRUE(val.ok) << "trial " << trial << " insert (" << u << "," << v
                            << "): " << val.reason;
      }
    }
    // Every possible vertex deletion.
    for (Vertex v = 0; v < n; ++v) {
      DynamicDfs dfs(g);
      dfs.delete_vertex(v);
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << "trial " << trial << " delete vertex " << v << ": "
                          << val.reason;
    }
  }
}

// Adversarial families under targeted updates.
TEST(DynamicAdversarial, BroomChurn) {
  Graph g = gen::broom(200, 20);
  DynamicDfs dfs(std::move(g));
  // Repeatedly cut the handle and repair it through a bristle.
  for (int round = 0; round < 10; ++round) {
    dfs.delete_edge(10, 11);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
    dfs.insert_edge(10, 11);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
}

TEST(DynamicAdversarial, HairyPathChurn) {
  Graph g = gen::hairy_path(20, 5);
  DynamicDfs dfs(std::move(g));
  Rng rng(2718);
  for (int step = 0; step < 60; ++step) {
    gen::Update u;
    ASSERT_TRUE(gen::random_update(dfs.graph(), rng, 1, 1, 0, 0, u));
    if (u.kind == gen::UpdateKind::kInsertEdge) {
      dfs.insert_edge(u.u, u.v);
    } else {
      dfs.delete_edge(u.u, u.v);
    }
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "step " << step << ": " << val.reason;
  }
}

TEST(DynamicAdversarial, CliqueVertexChurn) {
  Graph g = gen::clique(20);
  DynamicDfs dfs(std::move(g));
  for (Vertex v = 0; v < 10; ++v) {
    dfs.delete_vertex(v);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "after deleting " << v << ": " << val.reason;
  }
  EXPECT_EQ(dfs.graph().num_vertices(), 10);
}

}  // namespace
}  // namespace pardfs
