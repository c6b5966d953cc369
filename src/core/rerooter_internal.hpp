// Internal plumbing shared by rerooter.cpp (engine) and traversals.cpp
// (strategy). Not part of the public API.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/components.hpp"
#include "core/rerooter.hpp"

namespace pardfs::detail {

// A planned traversal: a single chain starting at the component entry
// (consecutive vertices are graph-adjacent: tree edges or one of the
// scenario back edges), plus the unvisited remainder as pieces.
struct TraversalPlan {
  std::vector<Vertex> pstar;
  std::vector<Piece> leftovers;
};

// Maximal runs of the chain that are monotone in the current tree (split at
// back-edge jumps and at bends). Queries address one run at a time.
struct Run {
  std::size_t first = 0;  // inclusive indices into pstar
  std::size_t last = 0;
};

std::vector<Run> split_runs(const TreeIndex& cur, const std::vector<Vertex>& chain);

// Engine context handed to the planner: tree, oracle view, scratch marking
// arrays (stamped, O(1) reset), per-step query-batch counter and stats.
//
// One context serves a whole engine run (rerooter.cpp): every component
// step of every round uses the same marking scratch, chain-position index
// and stats, and the caller's view, whose decompose memo is warm from the
// preceding reduction.
class EngineCtx {
 public:
  EngineCtx(const TreeIndex& cur, const OracleView& view)
      : cur_(cur), view_(view) {
    mark_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    pos_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    pos_val_.assign(static_cast<std::size_t>(cur.capacity()), -1);
    visit_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    piece_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    piece_val_.assign(static_cast<std::size_t>(cur.capacity()), -1);
  }

  const TreeIndex& cur() const { return cur_; }
  const OracleView& view() const { return view_; }
  RerootStats& stats() { return stats_; }

  // ---- marking scratch (visited set of the current plan) ------------------
  void begin_mark() { ++generation_; }
  void mark(Vertex v) { mark_stamp_[static_cast<std::size_t>(v)] = generation_; }
  bool marked(Vertex v) const {
    return mark_stamp_[static_cast<std::size_t>(v)] == generation_;
  }

  // ---- chain position index (for retreat-order comparisons) ---------------
  void index_chain(const std::vector<Vertex>& chain) {
    ++pos_generation_;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      pos_stamp_[static_cast<std::size_t>(chain[i])] = pos_generation_;
      pos_val_[static_cast<std::size_t>(chain[i])] = static_cast<std::int32_t>(i);
    }
  }
  std::int32_t chain_pos(Vertex v) const {
    return pos_stamp_[static_cast<std::size_t>(v)] == pos_generation_
               ? pos_val_[static_cast<std::size_t>(v)]
               : -1;
  }

  // ---- piece-id map (direct grouping in finish_traversal) ------------------
  void begin_piece_map() { ++piece_generation_; }
  void map_piece(Vertex v, std::int32_t piece) {
    piece_stamp_[static_cast<std::size_t>(v)] = piece_generation_;
    piece_val_[static_cast<std::size_t>(v)] = piece;
  }
  std::int32_t piece_at(Vertex v) const {
    return piece_stamp_[static_cast<std::size_t>(v)] == piece_generation_
               ? piece_val_[static_cast<std::size_t>(v)]
               : -1;
  }

  // ---- visited scratch (serial component finish) ---------------------------
  void begin_visit() { ++visit_generation_; }
  void visit(Vertex v) { visit_stamp_[static_cast<std::size_t>(v)] = visit_generation_; }
  bool visited(Vertex v) const {
    return visit_stamp_[static_cast<std::size_t>(v)] == visit_generation_;
  }
  // Reusable DFS stack of (vertex, base cursor, extra cursor) frames.
  struct DfsFrame {
    Vertex v;
    std::uint32_t base_i;
    std::uint32_t extra_i;
  };
  std::vector<DfsFrame>& dfs_scratch() { return dfs_scratch_; }

  // ---- query batch accounting ----------------------------------------------
  void begin_step() { step_batches_ = 0; }
  void count_batch() { ++step_batches_; }
  std::uint32_t step_batches() const { return step_batches_; }

 private:
  const TreeIndex& cur_;
  const OracleView& view_;
  RerootStats stats_;  // merged into the run's stats by the engine
  std::vector<std::int32_t> mark_stamp_, pos_stamp_, pos_val_, visit_stamp_;
  std::vector<std::int32_t> piece_stamp_, piece_val_;
  std::vector<DfsFrame> dfs_scratch_;
  std::int32_t generation_ = 0;
  std::int32_t pos_generation_ = 0;
  std::int32_t visit_generation_ = 0;
  std::int32_t piece_generation_ = 0;
  std::uint32_t step_batches_ = 0;
};

// Plans one traversal for the component according to the strategy.
TraversalPlan plan_traversal(EngineCtx& ctx, const Component& comp,
                             RerootStrategy strategy);

// Best edge from the given pieces to the chain, preferring endpoints with
// the LARGEST chain position (= earliest DFS retreat = "lowest on p*");
// ties resolve by the total order (pos desc, u asc, v asc), so the winner
// never depends on piece-iteration order. Requires ctx.index_chain(chain)
// to have been called. Returns the edge and the position of its chain
// endpoint. One query batch.
struct ChainHit {
  Edge edge;
  std::int32_t pos = -1;
  bool valid() const { return pos >= 0; }
};
ChainHit best_edge_to_chain(EngineCtx& ctx, std::span<const Piece> pieces,
                            const std::vector<Vertex>& chain,
                            const std::vector<Run>& runs);

}  // namespace pardfs::detail
