// DynamicDfs::apply_batch — the combined k-update reduction (Theorem 13's
// batch handling): validity after every batch, equivalence with the
// sequential per-update path at the graph level, and the amortization pins
// (one index rebuild per segment plus one for vertex-id admission, zero for
// pure back-edge batches).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "pram/cost_model.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

GraphUpdate to_graph_update(const gen::Update& u) {
  switch (u.kind) {
    case gen::UpdateKind::kInsertEdge:
      return GraphUpdate::insert_edge(u.u, u.v);
    case gen::UpdateKind::kDeleteEdge:
      return GraphUpdate::delete_edge(u.u, u.v);
    case gen::UpdateKind::kInsertVertex:
      return GraphUpdate::insert_vertex(u.neighbors);
    case gen::UpdateKind::kDeleteVertex:
      return GraphUpdate::delete_vertex(u.u);
  }
  return GraphUpdate::insert_edge(u.u, u.v);
}

// A feasible mixed update stream, pre-generated against a mirror graph.
std::vector<GraphUpdate> make_stream(const Graph& initial, int count,
                                     std::uint64_t seed, double ins_v = 0.2,
                                     double del_v = 0.2) {
  Graph mirror = initial;
  Rng rng(seed);
  std::vector<GraphUpdate> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    gen::Update u;
    if (!gen::random_update(mirror, rng, 1.0, 1.0, ins_v, del_v, u)) break;
    gen::apply_update(mirror, u);
    out.push_back(to_graph_update(u));
  }
  return out;
}

TEST(Batch, SingleIndexRebuildForStructuralEdgeBatch) {
  Rng rng(101);
  Graph g = gen::random_connected(256, 700, rng);
  DynamicDfs dfs(std::move(g));
  const std::size_t base_rebuilds = dfs.epoch_rebuilds();
  const std::size_t index_rebuilds = dfs.index_rebuilds();

  // k tree-edge deletions (always structural), k <= epoch period.
  std::vector<GraphUpdate> batch;
  Graph mirror = dfs.graph();
  std::vector<Vertex> parent(dfs.parent().begin(), dfs.parent().end());
  for (Vertex v = 0; v < dfs.graph().capacity() &&
                     batch.size() < std::min<std::size_t>(dfs.epoch_period(), 6);
       ++v) {
    const Vertex p = parent[static_cast<std::size_t>(v)];
    if (p == kNullVertex) continue;
    batch.push_back(GraphUpdate::delete_edge(p, v));
    mirror.remove_edge(p, v);
  }
  ASSERT_GE(batch.size(), 2u);

  const BatchStats stats = dfs.apply_batch(batch);
  EXPECT_EQ(stats.updates, batch.size());
  EXPECT_EQ(stats.structural, batch.size());
  EXPECT_EQ(stats.segments, 1u) << "one combined pass for the whole batch";
  EXPECT_EQ(stats.index_rebuilds, 1u) << "exactly one O(n) index rebuild";
  EXPECT_EQ(dfs.index_rebuilds(), index_rebuilds + 1);
  EXPECT_EQ(dfs.epoch_rebuilds(), base_rebuilds) << "no epoch close forced";
  EXPECT_EQ(dfs.graph().num_edges(), mirror.num_edges());
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

TEST(Batch, PureBackEdgeBatchRebuildsNothing) {
  // On a path graph every (a, b) with a < b is an ancestor pair.
  DynamicDfs dfs(gen::path(64));
  const std::size_t index_rebuilds = dfs.index_rebuilds();
  const std::size_t base_rebuilds = dfs.epoch_rebuilds();
  const std::vector<Vertex> before(dfs.parent().begin(), dfs.parent().end());
  std::vector<GraphUpdate> batch;
  for (Vertex i = 0; i < 8; ++i) {
    batch.push_back(GraphUpdate::insert_edge(i, static_cast<Vertex>(40 + i)));
  }
  const BatchStats stats = dfs.apply_batch(batch);
  EXPECT_EQ(stats.back_edges, batch.size());
  EXPECT_EQ(stats.structural, 0u);
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.index_rebuilds, 0u);
  EXPECT_EQ(dfs.index_rebuilds(), index_rebuilds);
  EXPECT_EQ(dfs.epoch_rebuilds(), base_rebuilds);
  EXPECT_EQ(before, std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end()));
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Batch, MixedStreamValidAfterEveryBatch) {
  for (const std::size_t batch_size : {2u, 3u, 5u, 8u, 16u}) {
    Rng rng(2026 + batch_size);
    Graph g = gen::random_connected(150, 450, rng);
    const std::vector<GraphUpdate> stream =
        make_stream(g, 240, 77 * batch_size);
    DynamicDfs dfs(std::move(g));
    for (std::size_t i = 0; i < stream.size(); i += batch_size) {
      const std::size_t len = std::min(batch_size, stream.size() - i);
      dfs.apply_batch(std::span(stream).subspan(i, len));
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << "batch_size " << batch_size << " at update " << i
                          << ": " << val.reason;
    }
  }
}

TEST(Batch, MatchesSequentialGraphState) {
  Rng rng(404);
  Graph g = gen::random_connected(100, 260, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 160, 505);
  DynamicDfs batched(g);
  DynamicDfs sequential(g);
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    const std::size_t len = std::min<std::size_t>(7, stream.size() - i);
    const auto chunk = std::span(stream).subspan(i, len);
    batched.apply_batch(chunk);
    for (const GraphUpdate& u : chunk) sequential.apply(u);
    ASSERT_EQ(batched.graph().num_vertices(), sequential.graph().num_vertices());
    ASSERT_EQ(batched.graph().num_edges(), sequential.graph().num_edges());
    // Both forests are valid DFS forests of the same graph (they may differ:
    // a DFS forest is not unique).
    ASSERT_TRUE(validate_dfs_forest(batched.graph(), batched.parent()).ok);
    ASSERT_TRUE(validate_dfs_forest(sequential.graph(), sequential.parent()).ok);
  }
}

TEST(Batch, VertexInsertsJoinTheSegment) {
  DynamicDfs dfs(gen::path(10));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(3, 4));
  batch.push_back(GraphUpdate::delete_edge(6, 7));
  batch.push_back(GraphUpdate::insert_vertex({2, 8}));
  batch.push_back(GraphUpdate::insert_vertex({}));
  ASSERT_GE(dfs.epoch_period(), batch.size());
  const BatchStats stats = dfs.apply_batch(batch);
  EXPECT_EQ(stats.structural, 4u);
  EXPECT_EQ(stats.segments, 1u) << "the inserts join the edge updates' segment";
  EXPECT_EQ(stats.index_rebuilds, 2u) << "id admission + the segment's rebuild";
  ASSERT_EQ(stats.new_vertices.size(), 2u);
  EXPECT_EQ(stats.new_vertices[0], 10);
  EXPECT_EQ(stats.new_vertices[1], 11);
  EXPECT_TRUE(dfs.graph().has_edge(10, 2));
  EXPECT_TRUE(dfs.graph().has_edge(10, 8));
  EXPECT_EQ(dfs.parent_of(11), kNullVertex);
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Batch, EdgeToFreshVertexInSameBatch) {
  // An edge update may reference the id a vertex insert earlier in the same
  // batch assigned (ids are deterministic: capacity order).
  DynamicDfs dfs(gen::path(6));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::insert_vertex({0}));  // id 6
  batch.push_back(GraphUpdate::insert_edge(6, 3));
  batch.push_back(GraphUpdate::insert_edge(6, 5));
  const BatchStats stats = dfs.apply_batch(batch);
  ASSERT_EQ(stats.new_vertices.size(), 1u);
  EXPECT_EQ(stats.new_vertices[0], 6);
  EXPECT_TRUE(dfs.graph().has_edge(6, 3));
  EXPECT_TRUE(dfs.graph().has_edge(6, 5));
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

// Adjacency rows (order included) of every id, the state sharded engines
// rely on being a pure function of the update history (DESIGN.md §12).
std::vector<std::vector<Vertex>> rows_of(const Graph& g) {
  std::vector<std::vector<Vertex>> rows;
  for (Vertex v = 0; v < g.capacity(); ++v) {
    const auto nbrs = g.neighbors(v);
    rows.emplace_back(nbrs.begin(), nbrs.end());
  }
  return rows;
}

Graph replay(Graph g, std::span<const GraphUpdate> updates) {
  for (const GraphUpdate& u : updates) {
    switch (u.kind) {
      case GraphUpdate::Kind::kInsertEdge:
        g.add_edge(u.u, u.v);
        break;
      case GraphUpdate::Kind::kDeleteEdge:
        g.remove_edge(u.u, u.v);
        break;
      case GraphUpdate::Kind::kInsertVertex:
        g.add_vertex(u.neighbors);
        break;
      case GraphUpdate::Kind::kDeleteVertex:
        g.remove_vertex(u.u);
        break;
    }
  }
  return g;
}

TEST(Batch, InsertsAndEdgeOpsShareOneSegment) {
  // Structural edge deletions, two vertex inserts, an edge op on the first
  // new id and the deletion of the second, all in one combined pass.
  Rng rng(8128);
  Graph g = gen::random_connected(256, 700, rng);
  DynamicDfs dfs(g);
  const Vertex first = dfs.graph().capacity();
  std::vector<GraphUpdate> batch;
  std::vector<Vertex> cut_children;
  for (Vertex v = 0; v < first && cut_children.size() < 2; ++v) {
    const Vertex p = dfs.parent_of(v);
    if (p == kNullVertex) continue;
    batch.push_back(GraphUpdate::delete_edge(p, v));
    cut_children.push_back(v);
  }
  ASSERT_EQ(cut_children.size(), 2u);
  batch.push_back(GraphUpdate::insert_vertex({cut_children[0], 17}));
  batch.push_back(GraphUpdate::insert_vertex({cut_children[1], first}));
  batch.push_back(GraphUpdate::insert_edge(first, 200));
  batch.push_back(GraphUpdate::delete_vertex(first + 1));
  ASSERT_GE(dfs.epoch_period(), batch.size());

  const std::size_t rebuilds = dfs.index_rebuilds();
  const BatchStats stats = dfs.apply_batch(batch);
  EXPECT_EQ(stats.structural, batch.size());
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_LE(stats.index_rebuilds, 2u);
  EXPECT_EQ(dfs.index_rebuilds(), rebuilds + stats.index_rebuilds);
  EXPECT_EQ(stats.new_vertices, (std::vector<Vertex>{first, first + 1}))
      << "ids are assigned in capacity order";
  EXPECT_TRUE(dfs.graph().is_alive(first));
  EXPECT_FALSE(dfs.graph().is_alive(first + 1));
  EXPECT_TRUE(dfs.graph().has_edge(first, 200));
  EXPECT_EQ(dfs.parent_of(first + 1), kNullVertex);
  EXPECT_EQ(rows_of(dfs.graph()), rows_of(replay(g, batch)));
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

TEST(Batch, LargeBatchesWithInsertsStayValid) {
  // n >= 4096: the combined pass crosses pram::kSerialGrain and the engine's
  // serial cutoff, so the parallel reductions and the per-round machinery
  // both see admitted vertices.
  Rng rng(4099);
  const Graph g = gen::random_connected(4096, 12000, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 320, 61, 0.6, 0.2);
  DynamicDfs dfs(g);
  std::size_t inserts = 0;
  std::size_t combined = 0;
  for (std::size_t i = 0; i < stream.size(); i += 16) {
    const auto chunk =
        std::span(stream).subspan(i, std::min<std::size_t>(16, stream.size() - i));
    const Vertex capacity = dfs.graph().capacity();
    const BatchStats stats = dfs.apply_batch(chunk);
    for (std::size_t k = 0; k < stats.new_vertices.size(); ++k) {
      ASSERT_EQ(stats.new_vertices[k], capacity + static_cast<Vertex>(k));
    }
    // One rebuild per structural flush, plus one for id admission.
    ASSERT_LE(stats.index_rebuilds,
              stats.segments + 1 + (stats.new_vertices.empty() ? 0 : 1));
    inserts += stats.new_vertices.size();
    combined += stats.segments;
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "at update " << i << ": " << val.reason;
  }
  EXPECT_GT(inserts, 0u);
  EXPECT_GT(combined, 0u);
  EXPECT_EQ(rows_of(dfs.graph()), rows_of(replay(g, stream)));
}

TEST(Batch, CrossTreeMergeAndSplitInOneBatch) {
  // Two components; one batch deletes a bridge inside the first and inserts
  // a merging edge to the second.
  Graph g(8);
  for (Vertex i = 0; i + 1 < 4; ++i) g.add_edge(i, i + 1);      // 0-1-2-3
  for (Vertex i = 4; i + 1 < 8; ++i) g.add_edge(i, i + 1);      // 4-5-6-7
  g.add_edge(0, 2);                                             // extra cycle edge
  DynamicDfs dfs(std::move(g));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(2, 3));  // splits the tail
  batch.push_back(GraphUpdate::insert_edge(1, 5));  // merges the two trees
  batch.push_back(GraphUpdate::insert_edge(3, 6));  // reattaches the tail
  dfs.apply_batch(batch);
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(5));
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(3));
}

TEST(Batch, DeleteThenReinsertSameTreeEdge) {
  DynamicDfs dfs(gen::path(12));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(5, 6));
  batch.push_back(GraphUpdate::insert_edge(5, 6));
  batch.push_back(GraphUpdate::delete_edge(8, 9));
  dfs.apply_batch(batch);
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  EXPECT_TRUE(dfs.graph().has_edge(5, 6));
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(6));
  EXPECT_NE(dfs.root_of(0), dfs.root_of(9));
}

TEST(Batch, AdversarialStarChurn) {
  // Star center deletions force Theta(n)-subtree reroots; batches must stay
  // valid while whole levels of leaves re-attach.
  const Vertex n = 64;
  Graph g = gen::star(n);
  for (Vertex i = 1; i + 1 < n; ++i) g.add_edge(i, i + 1);  // leaf ring
  DynamicDfs dfs(std::move(g));
  for (int round = 0; round < 6; ++round) {
    std::vector<GraphUpdate> batch;
    for (Vertex i = 1; i <= 5; ++i) {
      const Vertex leaf = static_cast<Vertex>((round * 5 + i) % (n - 1) + 1);
      if (dfs.graph().has_edge(0, leaf)) {
        batch.push_back(GraphUpdate::delete_edge(0, leaf));
      } else {
        batch.push_back(GraphUpdate::insert_edge(0, leaf));
      }
    }
    dfs.apply_batch(batch);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "round " << round << ": " << val.reason;
  }
}

TEST(Batch, ManyBatchesCrossEpochBoundaries) {
  Rng rng(9090);
  Graph g = gen::random_connected(128, 380, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 300, 42);
  DynamicDfs dfs(std::move(g));
  const std::size_t rebuilds0 = dfs.epoch_rebuilds();
  std::size_t applied = 0;
  for (std::size_t i = 0; i < stream.size(); i += 6) {
    const std::size_t len = std::min<std::size_t>(6, stream.size() - i);
    dfs.apply_batch(std::span(stream).subspan(i, len));
    applied += len;
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
  EXPECT_GT(dfs.epoch_rebuilds(), rebuilds0) << "epochs must still roll over";
  EXPECT_LT(dfs.epoch_rebuilds() - rebuilds0, applied / 2)
      << "rebuilds stay amortized under batching";
}

TEST(Batch, SequentialStrategyHandlesBatchesToo) {
  Rng rng(31337);
  Graph g = gen::random_connected(80, 200, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 120, 8);
  DynamicDfs dfs(std::move(g), RerootStrategy::kSequentialL);
  for (std::size_t i = 0; i < stream.size(); i += 5) {
    const std::size_t len = std::min<std::size_t>(5, stream.size() - i);
    dfs.apply_batch(std::span(stream).subspan(i, len));
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
}

TEST(Batch, DrainWholeGraphInBatches) {
  Rng rng(555);
  Graph g = gen::random_connected(40, 90, rng);
  DynamicDfs dfs(std::move(g));
  while (dfs.graph().num_edges() > 0) {
    const auto edges = dfs.graph().edges();
    std::vector<GraphUpdate> batch;
    for (std::size_t i = 0; i < edges.size() && batch.size() < 4; ++i) {
      batch.push_back(GraphUpdate::delete_edge(edges[i].u, edges[i].v));
    }
    dfs.apply_batch(batch);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
  std::vector<GraphUpdate> kill;
  for (Vertex v = 0; v < 40; ++v) {
    if (dfs.graph().is_alive(v)) kill.push_back(GraphUpdate::delete_vertex(v));
  }
  dfs.apply_batch(kill);
  EXPECT_EQ(dfs.graph().num_vertices(), 0);
}

// FNV-1a over the parent array's bytes.
std::uint64_t fnv1a(std::span<const Vertex> parent) {
  std::uint64_t h = 14695981039346656037ull;
  for (const Vertex v : parent) {
    auto x = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b, x >>= 8) {
      h ^= x & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Byte-identity pin for multi-round engine passes. At n = 2^13, 16-update
// social_mix batches reroot components large enough to run many engine
// rounds above the serial cutoff, so pieces pass through rounds unchanged
// and the grouping sweep's per-pass neighbour memo (rerooter.cpp) is reused.
// The constants were recorded before that memo existed: the forest after
// every batch, the summed RerootStats of each batch's last segment, and the
// query batches of every segment (the cost model's query rounds) must not
// move at any team size.
TEST(Batch, MultiRoundPassesMatchPinnedForests) {
  constexpr int kBatches = 24;
  constexpr std::size_t kBatchSize = 16;
  constexpr std::array<std::uint64_t, kBatches> kParentHash = {
      0xae67c709f7eacc2dull, 0x9eead0cef71e7d07ull, 0x2ec39ad2259df6cfull,
      0x626b167663e2cf31ull, 0xe66531d8e219ba89ull, 0xde3a752642534fb3ull,
      0xb1e62b4322686ee7ull, 0xb844b5120f4eda11ull, 0xcc372629d14905b3ull,
      0x89bfe4ac6b91e7b3ull, 0x8990ecf8862b2e36ull, 0x63e4382c9a465a4aull,
      0xd2c6c5ac757fd070ull, 0xd4f1dea49246d919ull, 0xe2c19919e0efd4bcull,
      0x45939854b5fb3d3bull, 0x6a501c279fb772d6ull, 0xb8102f296d8ad4b8ull,
      0x1812ace01d56ba77ull, 0xdd4e6d338e44e6deull, 0x3052a160819be77dull,
      0xac092ecf5319ba2bull, 0x50fc7e98ec8604f2ull, 0x01bf561c500cf97bull};
  constexpr std::uint64_t kGlobalRounds = 703;
  constexpr std::uint64_t kQueryBatches = 1361;
  constexpr std::uint64_t kComponents = 42537;
  constexpr std::uint64_t kSerialFinishes = 41858;
  constexpr std::uint64_t kCostQueryRounds = 1361;

  for (const int team : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "team " << team);
    const service::WorkloadSpec spec{service::Scenario::kSocialMix, 1 << 13, 5};
    service::WorkloadDriver driver(spec);
    pram::CostModel cost;
    DynamicDfs dfs(service::make_initial_graph(spec), RerootStrategy::kPaper,
                   &cost, team);
    RerootStats sum;
    std::vector<GraphUpdate> batch;
    for (int b = 0; b < kBatches; ++b) {
      batch.clear();
      for (std::size_t j = 0; j < kBatchSize; ++j) batch.push_back(driver.next());
      dfs.apply_batch(batch);
      sum.accumulate(dfs.last_stats());
      EXPECT_EQ(fnv1a(dfs.parent()), kParentHash[static_cast<std::size_t>(b)])
          << "forest diverged after batch " << b;
    }
    EXPECT_EQ(sum.global_rounds, kGlobalRounds);
    EXPECT_EQ(sum.query_batches, kQueryBatches);
    EXPECT_EQ(sum.components_processed, kComponents);
    EXPECT_EQ(sum.serial_finishes, kSerialFinishes);
    EXPECT_EQ(cost.snapshot().query_rounds, kCostQueryRounds);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    EXPECT_TRUE(val.ok) << val.reason;
  }
}

TEST(Batch, EmptyBatchIsANoop) {
  DynamicDfs dfs(gen::path(5));
  const BatchStats stats = dfs.apply_batch({});
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(stats.index_rebuilds, 0u);
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

}  // namespace
}  // namespace pardfs
