// WorkloadDriver contracts: byte-identical streams per seed (benchmarks and
// the fuzz harness replay them), the mirror-feasibility guarantee (a single
// producer never sees kRejected — including the dynamic_map scenario, whose
// delete/restore churn is the easiest place to get id bookkeeping wrong),
// and the dynamic_map cell-grid invariants.
#include "service/workload.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "service/shard_router.hpp"
#include "tree/validation.hpp"

namespace pardfs::service {
namespace {

constexpr Scenario kAllScenarios[] = {
    Scenario::kReadHeavy, Scenario::kInsertChurn, Scenario::kAdversarialStar,
    Scenario::kSocialMix, Scenario::kDynamicMap,
};

bool same_update(const GraphUpdate& a, const GraphUpdate& b) {
  return a.kind == b.kind && a.u == b.u && a.v == b.v &&
         a.neighbors == b.neighbors;
}

TEST(Workload, StreamsAreDeterministicPerSeed) {
  for (const Scenario scenario : kAllScenarios) {
    const WorkloadSpec spec{scenario, 64, 42};
    WorkloadDriver a(spec);
    WorkloadDriver b(spec);
    for (int i = 0; i < 300; ++i) {
      const GraphUpdate ua = a.next();
      const GraphUpdate ub = b.next();
      ASSERT_TRUE(same_update(ua, ub))
          << scenario_name(scenario) << " diverged at step " << i;
    }
    EXPECT_EQ(a.graph().num_vertices(), b.graph().num_vertices());
    EXPECT_EQ(a.graph().num_edges(), b.graph().num_edges());
  }
}

TEST(Workload, DifferentSeedsDiverge) {
  WorkloadDriver a({Scenario::kSocialMix, 64, 1});
  WorkloadDriver b({Scenario::kSocialMix, 64, 2});
  bool diverged = false;
  for (int i = 0; i < 50 && !diverged; ++i) {
    diverged = !same_update(a.next(), b.next());
  }
  EXPECT_TRUE(diverged);
}

TEST(Workload, DynamicMapGridShape) {
  const WorkloadSpec spec{Scenario::kDynamicMap, 96, 7};
  WorkloadDriver driver(spec);
  ASSERT_GT(driver.map_rows(), 0);
  ASSERT_GT(driver.map_cols(), 0);
  EXPECT_GE(driver.map_rows() * driver.map_cols(), 96);
  // Initially every cell is open and holds its row-major vertex id.
  for (Vertex r = 0; r < driver.map_rows(); ++r) {
    for (Vertex c = 0; c < driver.map_cols(); ++c) {
      EXPECT_EQ(driver.cell_vertex(r, c), r * driver.map_cols() + c);
    }
  }
}

TEST(Workload, DynamicMapCellsTrackTheMirror) {
  const WorkloadSpec spec{Scenario::kDynamicMap, 80, 11};
  WorkloadDriver driver(spec);
  for (int i = 0; i < 400; ++i) driver.next();
  const Graph& g = driver.graph();
  // Every open cell's vertex is alive; blocked cells contribute nothing —
  // so open cells and alive vertices are in bijection.
  Vertex open = 0;
  for (Vertex r = 0; r < driver.map_rows(); ++r) {
    for (Vertex c = 0; c < driver.map_cols(); ++c) {
      const Vertex id = driver.cell_vertex(r, c);
      if (id == kNullVertex) continue;
      ++open;
      ASSERT_TRUE(g.is_alive(id)) << "cell (" << r << "," << c << ")";
    }
  }
  EXPECT_EQ(open, g.num_vertices());
  EXPECT_GT(open, 0);
}

// The mirror-feasibility contract through the real service: a single
// producer streaming driver updates must never be rejected, and every
// published forest must validate against the driver's mirror.
TEST(Workload, DynamicMapFeedsServiceWithoutRejections) {
  const WorkloadSpec spec{Scenario::kDynamicMap, 96, 20260808};
  WorkloadDriver driver(spec);
  ServiceConfig config;
  config.serve_cuts = true;
  ShardRouter svc(make_initial_graph(spec), config);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t version = svc.apply_sync(driver.next());
    ASSERT_NE(version, UpdateTicket::kRejected) << "update " << i;
  }
  svc.stop();
  EXPECT_EQ(svc.stats().updates_rejected, 0u);
  EXPECT_EQ(svc.stats().updates_applied, 300u);
  // After stop() the mirror and the served graph agree exactly.
  const SnapshotPtr snap = svc.shard_snapshot(0);
  EXPECT_EQ(snap->num_vertices(), driver.graph().num_vertices());
  EXPECT_EQ(snap->num_edges(), driver.graph().num_edges());
  const auto val = validate_dfs_forest(driver.graph(), snap->parent());
  EXPECT_TRUE(val.ok) << val.reason;
  EXPECT_TRUE(snap->serves_cuts());
}

}  // namespace
}  // namespace pardfs::service
