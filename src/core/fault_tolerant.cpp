#include "core/fault_tolerant.hpp"

#include <utility>

#include "baseline/static_dfs.hpp"
#include "util/check.hpp"

namespace pardfs {

FaultTolerantDfs::FaultTolerantDfs(Graph graph, pram::CostModel* cost)
    : base_graph_(std::move(graph)), cost_(cost) {
  base_parent_ = static_dfs(base_graph_);
  base_index_.build(base_parent_, base_graph_.alive());
  oracle_.build(base_graph_, base_index_, cost_);
  working_graph_ = base_graph_;
  parent_ = base_parent_;
  rebuild_index();
}

FaultTolerantDfs::FaultTolerantDfs(FaultTolerantDfs&& other) noexcept
    : base_graph_(std::move(other.base_graph_)),
      base_parent_(std::move(other.base_parent_)),
      base_index_(std::move(other.base_index_)),
      oracle_(std::move(other.oracle_)),
      working_graph_(std::move(other.working_graph_)),
      parent_(std::move(other.parent_)),
      index_(std::move(other.index_)),
      updates_applied_(other.updates_applied_),
      cost_(other.cost_),
      last_stats_(other.last_stats_) {
  oracle_.rebind_base(&base_index_);
}

FaultTolerantDfs& FaultTolerantDfs::operator=(FaultTolerantDfs&& other) noexcept {
  if (this != &other) {
    base_graph_ = std::move(other.base_graph_);
    base_parent_ = std::move(other.base_parent_);
    base_index_ = std::move(other.base_index_);
    oracle_ = std::move(other.oracle_);
    working_graph_ = std::move(other.working_graph_);
    parent_ = std::move(other.parent_);
    index_ = std::move(other.index_);
    updates_applied_ = other.updates_applied_;
    cost_ = other.cost_;
    last_stats_ = other.last_stats_;
    oracle_.rebind_base(&base_index_);
  }
  return *this;
}

void FaultTolerantDfs::rebuild_index() {
  parent_.resize(static_cast<std::size_t>(working_graph_.capacity()), kNullVertex);
  index_.build(parent_, working_graph_.alive());
}

void FaultTolerantDfs::reset() {
  oracle_.clear_patches();
  working_graph_ = base_graph_;
  parent_ = base_parent_;
  updates_applied_ = 0;
  rebuild_index();
}

void FaultTolerantDfs::rebase() {
  base_graph_ = working_graph_;
  base_parent_ = parent_;
  base_index_.build(base_parent_, base_graph_.alive());
  oracle_.build(base_graph_, base_index_, cost_);
  updates_applied_ = 0;
  rebuild_index();
}

void FaultTolerantDfs::execute(const ReductionResult& reduction) {
  // identity=false: current-tree paths are decomposed into base segments
  // before touching D (Theorem 9).
  const bool identity = updates_applied_ == 0;
  const OracleView view(&oracle_, &index_, identity);
  Rerooter engine(index_, view, RerootStrategy::kPaper, cost_,
                  Rerooter::default_serial_cutoff(index_.capacity()));
  last_stats_ = engine.run(reduction.reroots, parent_);
  for (const auto& [v, p] : reduction.direct) {
    parent_[static_cast<std::size_t>(v)] = p;
  }
}

void FaultTolerantDfs::apply_incremental(const GraphUpdate& update) {
  switch (update.kind) {
    case GraphUpdate::Kind::kInsertEdge: {
      PARDFS_CHECK(working_graph_.add_edge(update.u, update.v));
      oracle_.note_edge_inserted(update.u, update.v);
      if (!index_.is_ancestor(update.u, update.v) &&
          !index_.is_ancestor(update.v, update.u)) {
        execute(reduce_insert_edge(index_, update.u, update.v));
      } else {
        last_stats_ = {};
      }
      break;
    }
    case GraphUpdate::Kind::kDeleteEdge: {
      oracle_.note_edge_deleted(update.u, update.v);
      PARDFS_CHECK(working_graph_.remove_edge(update.u, update.v));
      const bool u_parent = parent_[static_cast<std::size_t>(update.v)] == update.u;
      const bool v_parent = parent_[static_cast<std::size_t>(update.u)] == update.v;
      if (u_parent || v_parent) {
        const Vertex ps = u_parent ? update.u : update.v;
        const Vertex cs = u_parent ? update.v : update.u;
        const bool identity = updates_applied_ == 0;
        const OracleView view(&oracle_, &index_, identity);
        execute(reduce_delete_tree_edge(index_, view, ps, cs));
      } else {
        last_stats_ = {};
      }
      break;
    }
    case GraphUpdate::Kind::kInsertVertex: {
      const Vertex v = working_graph_.add_vertex(update.neighbors);
      oracle_.note_vertex_inserted(v, update.neighbors);
      parent_.resize(static_cast<std::size_t>(working_graph_.capacity()), kNullVertex);
      execute(reduce_insert_vertex(index_, v, update.neighbors));
      break;
    }
    case GraphUpdate::Kind::kDeleteVertex: {
      const Vertex v = update.u;
      const auto nbrs = working_graph_.neighbors(v);
      const std::vector<Vertex> former_neighbors(nbrs.begin(), nbrs.end());
      std::vector<Vertex> children(index_.children(v).begin(),
                                   index_.children(v).end());
      const Vertex former_parent = parent_[static_cast<std::size_t>(v)];
      oracle_.note_vertex_deleted(v, former_neighbors);
      working_graph_.remove_vertex(v);
      const bool identity = updates_applied_ == 0;
      const OracleView view(&oracle_, &index_, identity);
      const ReductionResult r =
          reduce_delete_vertex(index_, view, v, children, former_parent);
      parent_[static_cast<std::size_t>(v)] = kNullVertex;
      execute(r);
      break;
    }
  }
  ++updates_applied_;
  rebuild_index();  // tree structures only; D is never rebuilt
}

std::span<const Vertex> FaultTolerantDfs::apply(std::span<const GraphUpdate> updates) {
  reset();
  for (const GraphUpdate& u : updates) apply_incremental(u);
  return parent_;
}

}  // namespace pardfs
