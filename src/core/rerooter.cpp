#include "core/rerooter.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>

#include "core/rerooter_internal.hpp"
#include "obs/trace.hpp"
#include "pram/parallel.hpp"
#include "util/check.hpp"

namespace pardfs {

void RerootStats::accumulate(const RerootStats& other) {
  global_rounds += other.global_rounds;
  query_batches += other.query_batches;
  components_processed += other.components_processed;
  vertices_traversed += other.vertices_traversed;
  disintegrating += other.disintegrating;
  path_halving += other.path_halving;
  disconnecting += other.disconnecting;
  heavy_l += other.heavy_l;
  heavy_p += other.heavy_p;
  heavy_r += other.heavy_r;
  heavy_special += other.heavy_special;
  fallbacks += other.fallbacks;
  serial_finishes += other.serial_finishes;
  max_phase = std::max(max_phase, other.max_phase);
}

namespace detail {

std::vector<Run> split_runs(const TreeIndex& cur, const std::vector<Vertex>& chain) {
  std::vector<Run> runs;
  const std::size_t n = chain.size();
  std::size_t start = 0;
  int direction = 0;  // +1 down (next is child), -1 up, 0 unknown
  for (std::size_t i = 1; i < n; ++i) {
    const Vertex a = chain[i - 1];
    const Vertex b = chain[i];
    int step = 0;
    if (cur.parent(b) == a) {
      step = +1;
    } else if (cur.parent(a) == b) {
      step = -1;
    }  // else: back-edge jump (step stays 0)
    // Run boundary: a jump or a bend. Either way the new run starts at b
    // with an unknown direction — a bend keeps walking in the tree, but its
    // direction is only established by the new run's own second vertex.
    if (step == 0 || (direction != 0 && step != direction)) {
      runs.push_back({start, i - 1});
      start = i;
      direction = 0;
    } else {
      direction = step;
    }
  }
  runs.push_back({start, n - 1});
  return runs;
}

ChainHit best_edge_to_chain(EngineCtx& ctx, std::span<const Piece> pieces,
                            const std::vector<Vertex>& chain,
                            const std::vector<Run>& runs) {
  ChainHit best;
  // Runs partition the chain into disjoint, increasing position ranges, so
  // ANY hit in a later run beats every hit in an earlier one. Scanning runs
  // in descending position with an early exit returns the same winner as the
  // full pieces × runs sweep while skipping most of it — components attach
  // near the retreat end, so the last run usually decides.
  for (auto rit = runs.rbegin(); rit != runs.rend(); ++rit) {
    const Run& run = *rit;
    for (const Piece& piece : pieces) {
      // Prefer endpoints nearest the run's late end (largest chain position).
      const auto hit =
          ctx.view().query_piece(piece, chain[run.last], chain[run.first]);
      if (!hit) continue;
      const std::int32_t pos = ctx.chain_pos(hit->v);
      PARDFS_CHECK_MSG(pos >= 0, "query returned an endpoint off the chain");
      // Total order (pos desc, u asc, v asc): the winner must never depend
      // on piece-iteration order now that components step in parallel and
      // feed merged component lists back into the next round. On a simple
      // chain pos already determines v, so the v term is pure defense — it
      // keeps the order total even if a traversal ever emitted a repeated
      // vertex.
      if (pos > best.pos ||
          (pos == best.pos &&
           (hit->u < best.edge.u ||
            (hit->u == best.edge.u && hit->v < best.edge.v)))) {
        best = {*hit, pos};
      }
    }
    if (best.valid()) break;
  }
  // Batch accounting happens at the call sites: queries for different
  // groups are independent (disjoint sources) and share one set per run.
  return best;
}

namespace {

std::int32_t piece_size(const TreeIndex& cur, const Piece& p) {
  if (p.kind == PieceKind::kSubtree) return cur.size(p.root);
  return cur.depth(p.bottom) - cur.depth(p.top) + 1;
}

std::int32_t component_size(const TreeIndex& cur, const Component& comp) {
  std::int32_t total = 0;
  for (const Piece& p : comp.pieces) total += piece_size(cur, p);
  return total;
}

// Brent-style completion of a sub-cutoff component: one processor performs a
// plain DFS of the component's induced subgraph from its entry. Any DFS of
// the component is a valid completion (components property: external edges
// lead to T* ancestors of the entry), the oracle's patched adjacency IS the
// current graph's, and the neighbor order is fixed — so the result is
// deterministic and thread-count independent. No query batches are issued.
// With `graph`, neighbors enumerate in adjacency-row order — a pure function
// of the component's update history, identical across engines with different
// rebase histories (see the cutoff comment in rerooter.hpp).
void serial_finish(detail::EngineCtx& ctx, const Component& comp,
                   std::span<Vertex> parent_out, const Graph* graph) {
  const TreeIndex& cur = ctx.cur();
  const AdjacencyOracle& oracle = ctx.view().oracle();
  // Membership marks: the DFS must not escape the component.
  ctx.begin_mark();
  std::size_t total = 0;
  for (const Piece& p : comp.pieces) {
    if (p.kind == PieceKind::kSubtree) {
      const auto span = cur.subtree_span(p.root);
      for (const Vertex v : span) ctx.mark(v);
      total += span.size();
    } else {
      for (Vertex v = p.bottom;; v = cur.parent(v)) {
        ctx.mark(v);
        ++total;
        if (v == p.top) break;
      }
    }
  }
  // Graph neighbors can be vertices inserted after the current index was
  // built (ids at or beyond its capacity); they are never component members,
  // and their mark slots do not exist.
  const Vertex cap = cur.capacity();
  ctx.begin_visit();
  auto& stack = ctx.dfs_scratch();
  stack.clear();
  parent_out[static_cast<std::size_t>(comp.entry)] = comp.attach_parent;
  ctx.visit(comp.entry);
  stack.push_back({comp.entry, 0, 0});
  std::size_t visited = 1;
  while (!stack.empty()) {
    auto& frame = stack.back();
    const Vertex v = frame.v;
    Vertex child = kNullVertex;
    if (graph != nullptr) {
      // Row entries are the live current edges by construction — no
      // edge_alive filter needed, only the index-capacity guard.
      const auto row = graph->neighbors(v);
      while (frame.base_i < row.size()) {
        const Vertex z = row[frame.base_i++];
        if (z < cap && ctx.marked(z) && !ctx.visited(z)) {
          child = z;
          break;
        }
      }
    } else {
      const auto base = oracle.base_neighbor_list(v);
      while (frame.base_i < base.size()) {
        const Vertex z = base[frame.base_i++];
        if (z < cap && ctx.marked(z) && !ctx.visited(z) && oracle.edge_alive(v, z)) {
          child = z;
          break;
        }
      }
      if (child == kNullVertex) {
        const auto extras = oracle.extra_neighbor_list(v);
        while (frame.extra_i < extras.size()) {
          const Vertex z = extras[frame.extra_i++];
          if (z < cap && ctx.marked(z) && !ctx.visited(z) && oracle.edge_alive(v, z)) {
            child = z;
            break;
          }
        }
      }
    }
    if (child != kNullVertex) {
      parent_out[static_cast<std::size_t>(child)] = v;
      ctx.visit(child);
      ++visited;
      stack.push_back({child, 0, 0});
    } else {
      stack.pop_back();
    }
  }
  PARDFS_CHECK_MSG(visited == total, "serial finish: component not connected");
  ctx.stats().vertices_traversed += total;
  ++ctx.stats().serial_finishes;
}

// Union-find over piece indices (tiny, path-halving only).
class MiniUf {
 public:
  explicit MiniUf(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// Applies a planned traversal: writes T* parents along the chain, groups the
// leftover pieces into components (edge-connected sets), and assigns each
// new component its entry via the components property (the edge to the chain
// that the DFS retreat meets first). `comp` is consumed: the neighbour memos
// of its pieces move into the new components that inherit those pieces.
void finish_traversal(detail::EngineCtx& ctx, Component& comp,
                      detail::TraversalPlan&& plan, std::span<Vertex> parent_out,
                      std::vector<Component>& next, pram::CostModel* cost) {
  const TreeIndex& cur = ctx.cur();
  PARDFS_CHECK(!plan.pstar.empty());
  PARDFS_CHECK(plan.pstar.front() == comp.entry);

  Vertex prev = comp.attach_parent;
  for (const Vertex v : plan.pstar) {
    parent_out[static_cast<std::size_t>(v)] = prev;
    prev = v;
  }
  ctx.stats().vertices_traversed += plan.pstar.size();
  if (plan.leftovers.empty()) return;

  const std::vector<detail::Run> runs = detail::split_runs(cur, plan.pstar);
  ctx.index_chain(plan.pstar);

  // Group leftover pieces: only (subtree|path) <-> path edges can exist
  // (subtree-subtree edges would be cross edges of the current DFS tree).
  // The PRAM formulation is one batch of pairwise piece-to-path queries;
  // serially the same partition comes out of one sweep over the path
  // pieces' adjacency (the oracle's patched lists ARE the current graph):
  // map every neighbor of a path vertex back to its containing piece —
  // path pieces by a stamped vertex map, subtree pieces by binary search
  // over their disjoint pre-order intervals — and union the pair. The
  // union-find partition, and with it the emitted component order, is
  // edge-set determined, so the result is identical to the pairwise-query
  // sweep at a fraction of the probes.
  //
  // Per-pass neighbour memo: a path piece's first sweep records, in sweep
  // order, the neighbours that lie in OTHER leftover pieces; the list then
  // travels with the piece (Piece::memo into its Component's memos), and
  // every later round that sweeps the same piece walks only that list,
  // compacting away the entries visited since. This is exact: the graph is
  // fixed during a pass, the unvisited set only shrinks, and a piece that
  // passes through a round keeps its vertex set (planners make a NEW piece
  // for any halved or split path, and a new piece starts without a memo) —
  // so the memo stays a superset of the piece's live cross-piece neighbours,
  // the unions are the full sweep's unions, and T*, the component order and
  // every RerootStats counter are unchanged. A re-sweep charges the probes
  // it makes (the list length) to the cost model; the grouping is still one
  // query batch.
  const std::size_t k = plan.leftovers.size();
  std::vector<std::size_t> path_idx;
  for (std::size_t i = 0; i < k; ++i) {
    if (plan.leftovers[i].kind == PieceKind::kPath) path_idx.push_back(i);
  }

  // Vertex -> containing leftover piece, as a stamped O(1) map: the walks
  // below touch every neighbor of every chain/path vertex, so the lookup
  // must be loads, not searches. Stamping costs O(total leftover size) —
  // the same order as the leftovers' own construction.
  ctx.begin_piece_map();
  for (std::size_t i = 0; i < k; ++i) {
    const Piece& p = plan.leftovers[i];
    if (p.kind == PieceKind::kSubtree) {
      for (const Vertex v : cur.subtree_span(p.root)) {
        ctx.map_piece(v, static_cast<std::int32_t>(i));
      }
    } else {
      for (Vertex v = p.bottom;; v = cur.parent(v)) {
        ctx.map_piece(v, static_cast<std::int32_t>(i));
        if (v == p.top) break;
      }
    }
  }
  const AdjacencyOracle& oracle = ctx.view().oracle();
  const Vertex cap = cur.capacity();
  const auto piece_of = [&](Vertex z) -> std::int32_t {
    if (z < 0 || z >= cap) return -1;
    return ctx.piece_at(z);
  };

  MiniUf uf(k);
  if (!path_idx.empty()) {
    for (const std::size_t p : path_idx) {
      Piece& pp = plan.leftovers[p];
      if (pp.memo >= 0) {
        std::vector<Vertex>& memo = comp.memos[static_cast<std::size_t>(pp.memo)];
        std::size_t kept = 0;
        for (const Vertex z : memo) {
          const std::int32_t j = piece_of(z);
          if (j < 0) continue;  // visited since the memo was taken
          memo[kept++] = z;
          uf.unite(p, static_cast<std::size_t>(j));
        }
        if (cost != nullptr) cost->add_query(memo.size());
        memo.resize(kept);
        continue;
      }
      std::vector<Vertex> memo;
      for (Vertex v = pp.bottom;; v = cur.parent(v)) {
        // The next chain vertex's adjacency row is a dependent pointer chase
        // away; issue its prefetch before sweeping v's row.
        if (v != pp.top) oracle.prefetch_adjacency(cur.parent(v));
        oracle.for_each_current_neighbor(v, [&](Vertex z) {
          const std::int32_t j = piece_of(z);
          if (j >= 0 && j != static_cast<std::int32_t>(p)) {
            memo.push_back(z);
            uf.unite(p, static_cast<std::size_t>(j));
          }
        });
        if (v == pp.top) break;
      }
      pp.memo = static_cast<std::int32_t>(comp.memos.size());
      comp.memos.push_back(std::move(memo));
    }
    ctx.count_batch();  // grouping = one logical set of independent queries
  }

  // Gather groups and each piece's group id.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::int32_t> group_of_piece(k, -1);
  {
    std::vector<std::int32_t> group_of(k, -1);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t r = uf.find(i);
      if (group_of[r] < 0) {
        group_of[r] = static_cast<std::int32_t>(groups.size());
        groups.emplace_back();
      }
      group_of_piece[i] = group_of[r];
      groups[static_cast<std::size_t>(group_of[r])].push_back(i);
    }
  }

  // Attachment edges. The PRAM formulation issues, per run of p*, one set of
  // independent queries (all groups are sourced from disjoint pieces) and
  // keeps, per group, the hit of largest chain position — ties broken by
  // (u asc, v asc). One serial walk of p* from its late end computes the
  // same winners for EVERY group at once: the first chain vertex q with an
  // edge into a group fixes that group's position (q), and the smallest
  // piece-side endpoint among q's edges into the group is the paper's
  // tie-break. The oracle's patched adjacency lists are exactly the current
  // graph, so the edge universe is identical to the query sweep's.
  for (std::size_t b = 0; b < runs.size(); ++b) ctx.count_batch();
  struct GroupAttach {
    Vertex entry = kNullVertex;   // u: piece-side endpoint
    Vertex attach = kNullVertex;  // v = q on p*
    std::int32_t entry_piece = -1;
  };
  std::vector<GroupAttach> attach(groups.size());
  std::size_t unattached = groups.size();
  for (std::size_t idx = plan.pstar.size(); idx-- > 0 && unattached > 0;) {
    const Vertex q = plan.pstar[idx];
    // p* is materialized, so the walk's next row is known: warm it while
    // this row's stamped piece lookups execute.
    if (idx > 0) oracle.prefetch_adjacency(plan.pstar[idx - 1]);
    oracle.for_each_current_neighbor(q, [&](Vertex z) {
      const std::int32_t j = piece_of(z);
      if (j < 0) return;
      GroupAttach& a = attach[static_cast<std::size_t>(group_of_piece[j])];
      if (a.attach == q) {
        if (z < a.entry) {
          a.entry = z;
          a.entry_piece = j;
        }
      } else if (a.attach == kNullVertex) {
        a = {z, q, j};
        --unattached;
      }
    });
  }

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const GroupAttach& a = attach[gi];
    PARDFS_CHECK_MSG(a.attach != kNullVertex,
                     "leftover component has no edge to p*");
    Component nc;
    nc.entry = a.entry;
    nc.attach_parent = a.attach;
    nc.budget = comp.budget;
    nc.pieces.reserve(groups[gi].size());
    nc.entry_piece = -1;
    for (const std::size_t i : groups[gi]) {
      if (static_cast<std::int32_t>(i) == a.entry_piece) {
        nc.entry_piece = static_cast<std::int32_t>(nc.pieces.size());
      }
      Piece piece = plan.leftovers[i];
      if (piece.memo >= 0) {
        nc.memos.push_back(std::move(comp.memos[static_cast<std::size_t>(piece.memo)]));
        piece.memo = static_cast<std::int32_t>(nc.memos.size() - 1);
      }
      nc.pieces.push_back(piece);
    }
    PARDFS_CHECK_MSG(nc.entry_piece >= 0, "entry vertex not inside any piece");
    next.push_back(std::move(nc));
  }
}

}  // namespace
}  // namespace detail

Rerooter::Rerooter(const TreeIndex& current, const OracleView& view,
                   RerootStrategy strategy, pram::CostModel* cost,
                   int num_threads, std::int32_t serial_cutoff,
                   const Graph* graph)
    : cur_(current),
      view_(view),
      strategy_(strategy),
      cost_(cost),
      num_threads_(num_threads),
      serial_cutoff_(serial_cutoff),
      graph_(graph) {}

std::int32_t Rerooter::default_serial_cutoff(Vertex capacity) {
  const std::uint64_t n = static_cast<std::uint64_t>(capacity);
  const std::uint64_t logn = n > 1 ? 64 - __builtin_clzll(n - 1) : 1;
  // 4 log² n: deep enough to absorb the tail of tiny components a large
  // reroot disintegrates into, shallow enough that one processor finishes
  // it inside the engine's O(polylog) depth budget.
  return static_cast<std::int32_t>(4 * logn * logn);
}

RerootStats Rerooter::run(std::span<const RerootRequest> requests,
                          std::span<Vertex> parent_out) {
  // Direct-only reductions (detached components, isolated inserts) reroot
  // nothing; skip the O(n) scratch allocation of the engine context.
  if (requests.empty()) return {};

  std::vector<Component> active;
  active.reserve(requests.size());
  for (const RerootRequest& r : requests) {
    PARDFS_CHECK(cur_.in_forest(r.subtree_root));
    PARDFS_CHECK_MSG(cur_.is_ancestor(r.subtree_root, r.new_root),
                     "new root must lie inside the rerooted subtree");
    Component c;
    c.entry = r.new_root;
    c.attach_parent = r.attach_parent;
    c.budget = cur_.size(r.subtree_root);
    c.pieces = {Piece::subtree(r.subtree_root)};
    c.entry_piece = 0;
    active.push_back(std::move(c));
  }
  return run_components(std::move(active), parent_out);
}

RerootStats Rerooter::run_components(std::vector<Component> active,
                                     std::span<Vertex> parent_out) {
  RerootStats stats;
  if (active.empty()) return stats;
  for (const Component& c : active) {
    PARDFS_CHECK(!c.pieces.empty());
    PARDFS_CHECK_MSG(c.memos.empty(), "neighbour memos live for one pass");
    for (const Piece& p : c.pieces) PARDFS_CHECK(p.memo < 0);
    PARDFS_CHECK(c.entry_piece >= 0 &&
                 c.entry_piece < static_cast<std::int32_t>(c.pieces.size()));
  }

  const int threads = num_threads_ > 0 ? num_threads_ : pram::num_threads();
  // One context per worker, created on first use: a worker that never gets a
  // component (small rounds) never pays the O(n) scratch allocation or the
  // oracle-view memo copy.
  std::vector<std::unique_ptr<detail::EngineCtx>> workers(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  const auto worker_ctx = [&](int w) -> detail::EngineCtx& {
    auto& slot = workers[static_cast<std::size_t>(w)];
    if (!slot) slot = std::make_unique<detail::EngineCtx>(cur_, view_);
    return *slot;
  };

  // Per-component output slots for one round. Workers write only their
  // component's slots, so the merged order — and with it T* and every next
  // round's component list — is identical at any thread count.
  std::vector<std::vector<Component>> emitted;
  std::vector<std::uint32_t> comp_batches;
  std::vector<Component> next;
  while (!active.empty()) {
    // Tracing only (no histogram): round latencies are a wall-clock artifact
    // of the worker team, not part of the deterministic round/batch record.
    const obs::Span round_span("reroot_round");
    ++stats.global_rounds;
    const std::size_t k = active.size();
    emitted.assign(k, {});
    comp_batches.assign(k, 0);
    const auto step = [&](detail::EngineCtx& ctx, std::size_t i) {
      const obs::Span step_span("engine_step");
      ++ctx.stats().components_processed;
      ctx.begin_step();
      if (serial_cutoff_ > 0 &&
          detail::component_size(cur_, active[i]) <= serial_cutoff_) {
        detail::serial_finish(ctx, active[i], parent_out, graph_);
        comp_batches[i] = 0;
        return;
      }
      detail::TraversalPlan plan =
          detail::plan_traversal(ctx, active[i], strategy_);
      detail::finish_traversal(ctx, active[i], std::move(plan), parent_out,
                               emitted[i], cost_);
      comp_batches[i] = ctx.step_batches();
    };
    if (threads <= 1 || k == 1) {
      // A single component (or team): step serially so the primitives inside
      // the step (subtree-wide query reductions) keep their own full teams
      // instead of being nested-serialized under an outer region.
      for (std::size_t i = 0; i < k; ++i) step(worker_ctx(0), i);
    } else {
      pram::parallel_for_workers(
          k, threads, [&](int w, std::size_t i) { step(worker_ctx(w), i); });
    }

    // Round barrier: merge. The PRAM cost model is unchanged — it counts
    // logical rounds (per-round batch count = max over components), not
    // worker threads.
    std::uint32_t round_batches = 0;
    next.clear();
    for (std::size_t i = 0; i < k; ++i) {
      round_batches = std::max(round_batches, comp_batches[i]);
      std::move(emitted[i].begin(), emitted[i].end(), std::back_inserter(next));
    }
    stats.query_batches += round_batches;
    if (cost_ != nullptr) {
      const std::uint64_t n = static_cast<std::uint64_t>(cur_.capacity());
      const std::uint64_t logn = n > 1 ? 64 - __builtin_clzll(n - 1) : 1;
      // Each batch is one set of independent queries: O(log n) PRAM depth.
      for (std::uint32_t b = 0; b < round_batches; ++b) {
        cost_->add_query_round(logn, 0);
      }
    }
    active.swap(next);
  }
  for (const auto& w : workers) {
    if (w) stats.accumulate(w->stats());
  }
  return stats;
}

}  // namespace pardfs
