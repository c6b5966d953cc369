// Fault-tolerant DFS (paper Theorem 14): preprocess once, then answer any
// batch of k (≤ log n) updates without ever rebuilding the data structure D.
//
// The oracle stays bound to the original tree T; after each update the tree
// index is rebuilt (O(n) work — allowed with n processors, Theorem 10) but
// queries on the evolving tree T*_i are decomposed into ancestor-descendant
// segments of T (Theorem 9), with inserted vertices/edges handled by the
// oracle's patch lists and deletions filtered during probes.
#pragma once

#include <span>
#include <vector>

#include "core/adjacency_oracle.hpp"
#include "core/reduction.hpp"
#include "core/rerooter.hpp"
#include "graph/graph.hpp"
#include "pram/cost_model.hpp"
#include "tree/tree_index.hpp"

namespace pardfs {

class FaultTolerantDfs {
 public:
  // Preprocessing: static DFS + D (O(m) space, O(log n) PRAM time).
  explicit FaultTolerantDfs(Graph graph, pram::CostModel* cost = nullptr);

  FaultTolerantDfs(FaultTolerantDfs&& other) noexcept;
  FaultTolerantDfs& operator=(FaultTolerantDfs&& other) noexcept;
  FaultTolerantDfs(const FaultTolerantDfs&) = delete;
  FaultTolerantDfs& operator=(const FaultTolerantDfs&) = delete;

  // Applies one update batch on top of the preprocessed state (previous
  // batches are rolled back first). Returns the DFS forest of the updated
  // graph as a parent array indexed by vertex id.
  std::span<const Vertex> apply(std::span<const GraphUpdate> updates);

  // Applies one more update on top of the current state (no rollback).
  void apply_incremental(const GraphUpdate& update);

  // Rolls back to the preprocessed graph/forest, dropping all patches.
  void reset();

  // Re-preprocesses from the CURRENT state: the working graph/forest become
  // the new base and D is rebuilt over them (the paper's m-processor step).
  // This is the primitive behind the amortized variant below, addressing
  // the paper's closing question of processing more than log n updates with
  // fewer D rebuilds.
  void rebase();

  const Graph& graph() const { return working_graph_; }
  std::span<const Vertex> parent() const { return parent_; }
  const TreeIndex& tree() const { return index_; }
  const RerootStats& last_stats() const { return last_stats_; }
  std::size_t updates_applied() const { return updates_applied_; }

 private:
  void rebuild_index();
  void execute(const ReductionResult& reduction);

  // Pristine preprocessed state.
  Graph base_graph_;
  std::vector<Vertex> base_parent_;
  TreeIndex base_index_;
  AdjacencyOracle oracle_;  // built once over base_graph_/base_index_

  // Working state, evolving with the batch.
  Graph working_graph_;
  std::vector<Vertex> parent_;
  TreeIndex index_;
  std::size_t updates_applied_ = 0;

  pram::CostModel* cost_;
  RerootStats last_stats_;
};

// Amortized fully dynamic DFS — the trade-off the paper's conclusion asks
// about, with the rebuild period as an explicit knob. FaultTolerantDfs
// never rebuilds D but each query decomposes over all accumulated reroots,
// degrading after ~log n updates; AmortizedDynamicDfs rebuilds every
// `period` updates: per-update rebuild work is O~(m / period) amortized
// while queries pay at most `period` accumulated decompositions.
// period = ∞ is FaultTolerantDfs; DynamicDfs's epoch policy (DESIGN.md §5)
// sits at period = Θ(log n) and adds the back-edge fast path.
// bench_amortized sweeps the knob.
class AmortizedDynamicDfs {
 public:
  explicit AmortizedDynamicDfs(Graph graph, std::size_t period,
                               pram::CostModel* cost = nullptr)
      : inner_(std::move(graph), cost),
        period_(period == 0 ? 1 : period) {}

  void apply(const GraphUpdate& update) {
    inner_.apply_incremental(update);
    if (inner_.updates_applied() >= period_) {
      inner_.rebase();
      ++rebuilds_;
    }
  }

  const Graph& graph() const { return inner_.graph(); }
  std::span<const Vertex> parent() const { return inner_.parent(); }
  const RerootStats& last_stats() const { return inner_.last_stats(); }
  std::size_t rebuilds() const { return rebuilds_; }
  std::size_t period() const { return period_; }

 private:
  FaultTolerantDfs inner_;
  std::size_t period_;
  std::size_t rebuilds_ = 0;
};

}  // namespace pardfs
