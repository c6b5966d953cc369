// The parallel rerooting algorithm (paper §4) — the core contribution.
//
// Rerooting a subtree T(r0) at a new root r* proceeds in rounds. Every
// unvisited component advances once per round by one traversal:
//   * disintegrating traversal  — C1-style components; walks r_c..v_H where
//     v_H is the smallest subtree heavier than the phase threshold, so every
//     leftover subtree at most halves;
//   * path halving              — r_c on the component path; walks to the
//     farther end, halving the leftover path;
//   * disconnecting traversal   — r_c in a light subtree τ: walks through τ
//     into p_c sweeping over all τ→p_c edges, detaching τ's remains from the
//     leftover path;
//   * heavy subtree traversal   — r_c inside a heavy subtree: scenarios
//     l / p / r with the paper's applicability conditions (Lemma 2). The
//     rare special case (and any degenerate scenario input) falls back to a
//     safe disintegrating traversal — correctness is engine-guaranteed, only
//     the round bound can slip; the fallback counter is reported.
//
// Correct-by-construction engine: whatever path a strategy picks, the
// residual pieces are grouped into components by edge queries and each new
// component re-enters through its edge to the traversed path that the DFS
// would retreat past first (the components property, Lemma 1). The final
// parent array is therefore a valid DFS tree for any traversal choice.
//
// Execution model: the rounds are the PRAM accounting unit (global rounds,
// query batches) and are stepped serially on the calling thread — each
// round's components in order, each appending its new components to the
// next round's list in that order. Every tie inside a step breaks on a total
// order, so the tree, the component order and the stats are a function of
// the input alone. See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/components.hpp"
#include "graph/edge.hpp"
#include "pram/cost_model.hpp"
#include "tree/tree_index.hpp"

namespace pardfs {

struct RerootRequest {
  Vertex subtree_root = kNullVertex;   // current-tree subtree to reroot
  Vertex new_root = kNullVertex;       // r*: must lie inside that subtree
  Vertex attach_parent = kNullVertex;  // parent of new_root in T*; null = tree root
};

enum class RerootStrategy : std::uint8_t {
  kPaper,        // full phase/stage machinery (this paper)
  kSequentialL,  // always walk r_c to the subtree root — models the
                 // sequential rerooting of Baswana et al. [6]; Θ(n) rounds
                 // on adversarial inputs (ablation baseline)
};

struct RerootStats {
  std::uint64_t global_rounds = 0;    // engine rounds (all components step once)
  std::uint64_t query_batches = 0;    // sets of independent D queries (Thm 3 counts)
  std::uint64_t components_processed = 0;
  std::uint64_t vertices_traversed = 0;
  std::uint64_t disintegrating = 0;
  std::uint64_t path_halving = 0;
  std::uint64_t disconnecting = 0;
  std::uint64_t heavy_l = 0;
  std::uint64_t heavy_p = 0;
  std::uint64_t heavy_r = 0;
  std::uint64_t heavy_special = 0;  // special-case hits (handled by fallback)
  std::uint64_t fallbacks = 0;      // degenerate inputs absorbed by DisInt
  std::uint64_t serial_finishes = 0;  // sub-cutoff components finished directly
  std::uint32_t max_phase = 0;

  void accumulate(const RerootStats& other);
};

class Rerooter {
 public:
  // `serial_cutoff` (0 = disabled): a component whose total vertex count is
  // at most the cutoff is finished by ONE logical processor as a direct DFS
  // of its induced subgraph — Brent-style processor reallocation. The paper
  // splits components with query batches until they are empty; once a
  // component is below polylog size, a single processor finishes it within
  // the same O(polylog) depth budget without any further query rounds, and
  // serially it skips the entire per-round query machinery. Any DFS of the
  // component rooted at its entry is a valid completion (the components
  // property, Lemma 1: all external edges lead to ancestors of the entry).
  // Neighbor enumeration order: the current graph's adjacency rows when
  // `graph` is supplied — a pure function of the component's update history,
  // so two engines holding the same component produce the same completion
  // even with different epoch/rebase histories (what makes sharded serving
  // byte-identical to unsharded; see service/shard_router.hpp). Without a
  // graph it falls back to the oracle's base+patch order, which is fixed
  // per engine but differs across rebase histories. The update wrappers
  // pass default_serial_cutoff(); raw engine users default to the pure
  // paper machinery.
  Rerooter(const TreeIndex& current, const OracleView& view, RerootStrategy strategy,
           pram::CostModel* cost = nullptr, std::int32_t serial_cutoff = 0,
           const Graph* graph = nullptr);

  // Θ(log² n) — the depth one serially-finished component may add.
  static std::int32_t default_serial_cutoff(Vertex capacity);

  // Executes all reroots (they must target disjoint subtrees). parent_out
  // must be pre-filled with the current tree's parent array; entries inside
  // each rerooted subtree are overwritten.
  RerootStats run(std::span<const RerootRequest> requests,
                  std::span<Vertex> parent_out);

  // Batch entry point (paper's k-update handling, Theorem 13): seeds the
  // engine with pre-built components — each a set of vertex-disjoint pieces
  // of the current forest, edge-connected in the updated graph — instead of
  // single-subtree reroot requests. Used by the combined batch reduction
  // (core/batch_reduction); every piece vertex receives a new parent.
  RerootStats run_components(std::vector<Component> initial,
                             std::span<Vertex> parent_out);

 private:
  const TreeIndex& cur_;
  const OracleView& view_;
  RerootStrategy strategy_;
  pram::CostModel* cost_;
  std::int32_t serial_cutoff_;
  const Graph* graph_;
};

}  // namespace pardfs
