#include "core/batch_reduction.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace pardfs {
namespace {

// Union-find over piece indices (O(k) of them; path-halving only).
class PieceUf {
 public:
  explicit PieceUf(std::size_t n) : parent_(n) {
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

Vertex piece_head(const Piece& p) {
  return p.kind == PieceKind::kSubtree ? p.root : p.top;
}

std::int32_t piece_size(const TreeIndex& cur, const Piece& p) {
  if (p.kind == PieceKind::kSubtree) return cur.size(p.root);
  return cur.depth(p.bottom) - cur.depth(p.top) + 1;
}

}  // namespace

BatchReduction reduce_batch(const TreeIndex& cur, const OracleView& view,
                            const Graph& g, const BatchChanges& changes) {
  BatchReduction out;
  const auto cap = static_cast<std::size_t>(cur.capacity());

  // ---- lookup structures for the batch's deletions -------------------------
  std::vector<std::uint8_t> dead(cap, 0);
  for (const Vertex v : changes.deleted_vertices) {
    dead[static_cast<std::size_t>(v)] = 1;
  }
  // Cut edges are tree edges of the pre-batch forest, and every query below
  // asks about a (parent, child) pair of `cur`, so a cut is a mark on its
  // child endpoint.
  std::vector<std::uint8_t> cut_below(cap, 0);
  for (const auto& [p, c] : changes.cut_edges) {
    PARDFS_CHECK_MSG(cur.parent(c) == p, "cut edge is not a pre-batch tree edge");
    cut_below[static_cast<std::size_t>(c)] = 1;
  }
  const auto is_cut = [&]([[maybe_unused]] Vertex parent, Vertex child) {
    PARDFS_DCHECK(cur.parent(child) == parent);
    return cut_below[static_cast<std::size_t>(child)] != 0;
  };

  // ---- affected vertices (O(k) of them) ------------------------------------
  std::vector<Vertex> affected;
  const auto add_affected = [&](Vertex v) {
    if (v != kNullVertex && cur.in_forest(v)) affected.push_back(v);
  };
  for (const auto& [p, c] : changes.cut_edges) {
    add_affected(p);
    add_affected(c);
  }
  for (const Vertex v : changes.deleted_vertices) {
    add_affected(v);
    add_affected(cur.parent(v));
    for (const Vertex c : cur.children(v)) add_affected(c);
  }
  for (const Edge& e : changes.inserted_edges) {
    add_affected(e.u);
    add_affected(e.v);
  }
  if (affected.empty()) return out;

  // ---- skeleton S: ancestor closure of the affected set --------------------
  // Climbing stops at the first already-marked vertex, so the total walk is
  // bounded by |S| + |affected|.
  std::vector<std::uint8_t> in_s(cap, 0);
  std::vector<Vertex> skeleton;
  for (const Vertex a : affected) {
    for (Vertex v = a; v != kNullVertex && !in_s[static_cast<std::size_t>(v)];
         v = cur.parent(v)) {
      in_s[static_cast<std::size_t>(v)] = 1;
      skeleton.push_back(v);
    }
  }
  std::sort(skeleton.begin(), skeleton.end(),
            [&](Vertex a, Vertex b) { return cur.pre(a) < cur.pre(b); });

  // ---- chains of S ---------------------------------------------------------
  // An S vertex s is *attached* to its parent if both are alive and the tree
  // edge survives the batch. A chain continues from s into its unique
  // attached S child; deleted vertices, cut edges and branch points start new
  // chains. (Every parent of an S vertex is itself in S: S is ancestor
  // closed.)
  std::vector<std::int32_t> attached_count(cap, 0);
  std::vector<Vertex> attached_child(cap, kNullVertex);
  for (const Vertex s : skeleton) {
    const auto ss = static_cast<std::size_t>(s);
    if (dead[ss]) continue;
    for (const Vertex c : cur.children(s)) {
      const auto cs = static_cast<std::size_t>(c);
      if (dead[cs] || !in_s[cs] || is_cut(s, c)) continue;
      ++attached_count[ss];
      attached_child[ss] = c;
    }
  }
  const auto is_chain_head = [&](Vertex s) {
    const Vertex p = cur.parent(s);
    if (p == kNullVertex) return true;
    const auto ps = static_cast<std::size_t>(p);
    return dead[ps] != 0 || is_cut(p, s) || attached_count[ps] != 1;
  };

  std::vector<Piece> pieces;
  std::vector<std::int32_t> piece_of_s(cap, -1);  // S vertex -> its chain
  std::vector<Vertex> hang_from;                  // subtree piece -> S parent
  for (const Vertex s : skeleton) {
    if (dead[static_cast<std::size_t>(s)] || !is_chain_head(s)) continue;
    Vertex last = s;
    for (;;) {
      piece_of_s[static_cast<std::size_t>(last)] =
          static_cast<std::int32_t>(pieces.size());
      const auto ls = static_cast<std::size_t>(last);
      if (attached_count[ls] != 1) break;
      last = attached_child[ls];
    }
    pieces.push_back(Piece::path(s, last));
  }
  const std::size_t num_chains = pieces.size();
  // Subtrees hanging off S: no affected vertex inside (S is ancestor closed),
  // so their internal structure is untouched by the batch.
  for (const Vertex s : skeleton) {
    const auto ss = static_cast<std::size_t>(s);
    if (dead[ss]) continue;
    for (const Vertex c : cur.children(s)) {
      const auto cs = static_cast<std::size_t>(c);
      if (dead[cs] || in_s[cs] || is_cut(s, c)) continue;
      hang_from.push_back(s);
      pieces.push_back(Piece::subtree(c));
    }
  }

  // ---- group pieces into components of the updated graph -------------------
  PieceUf uf(pieces.size());
  // Surviving tree edges: subtree -> the chain it hangs from, and chain head
  // -> its parent's chain (branch points).
  for (std::size_t i = num_chains; i < pieces.size(); ++i) {
    uf.unite(i, static_cast<std::size_t>(
                    piece_of_s[static_cast<std::size_t>(hang_from[i - num_chains])]));
  }
  for (std::size_t i = 0; i < num_chains; ++i) {
    const Vertex h = pieces[i].top;
    const Vertex p = cur.parent(h);
    if (p == kNullVertex || dead[static_cast<std::size_t>(p)] || is_cut(p, h)) {
      continue;
    }
    uf.unite(i, static_cast<std::size_t>(piece_of_s[static_cast<std::size_t>(p)]));
  }
  // Inserted edges: both endpoints are affected, hence on chains. Skip edges
  // that did not survive the batch (endpoint died / edge re-deleted).
  for (const Edge& e : changes.inserted_edges) {
    if (dead[static_cast<std::size_t>(e.u)] || dead[static_cast<std::size_t>(e.v)]) {
      continue;
    }
    if (!g.has_edge(e.u, e.v)) continue;
    const std::int32_t pu = piece_of_s[static_cast<std::size_t>(e.u)];
    const std::int32_t pv = piece_of_s[static_cast<std::size_t>(e.v)];
    PARDFS_CHECK_MSG(pu >= 0 && pv >= 0, "inserted endpoints must lie on S");
    uf.unite(static_cast<std::size_t>(pu), static_cast<std::size_t>(pv));
  }
  // Remaining connections are surviving non-tree edges of the pre-batch
  // forest. They are back edges, so the ancestor endpoint lies on S (a chain)
  // and the pair is within one tree: only same-tree (piece, chain) pairs need
  // a D query, and only while still in different groups. Cross-tree pairs can
  // be connected by no such edge (a cross-tree non-tree edge would already
  // have violated the pre-batch forest).
  for (std::size_t j = 0; j < num_chains; ++j) {
    const Vertex jroot = cur.root_of(pieces[j].top);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (i == j || (i < num_chains && i < j)) continue;  // chain pairs once
      if (cur.root_of(piece_head(pieces[i])) != jroot) continue;
      if (uf.find(i) == uf.find(j)) continue;
      if (view.piece_has_edge(pieces[i], pieces[j].top, pieces[j].bottom)) {
        uf.unite(i, j);
      }
    }
  }

  // ---- emit one component per group ----------------------------------------
  std::vector<std::int32_t> group_of(pieces.size(), -1);
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const std::size_t r = uf.find(i);
    if (group_of[r] < 0) {
      group_of[r] = static_cast<std::int32_t>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[r])].push_back(i);
  }
  for (const auto& group : groups) {
    if (group.size() == 1) {
      // Detached piece with no surviving edge elsewhere: it keeps its
      // internal parent links and its head becomes a forest root.
      out.direct.emplace_back(piece_head(pieces[group.front()]), kNullVertex);
      continue;
    }
    Component comp;
    comp.attach_parent = kNullVertex;
    comp.entry_piece = -1;
    comp.budget = 0;
    comp.pieces.reserve(group.size());
    for (const std::size_t i : group) {
      const Piece& p = pieces[i];
      const Vertex head = piece_head(p);
      comp.budget += piece_size(cur, p);
      if (comp.entry_piece < 0 || cur.depth(head) < cur.depth(comp.entry) ||
          (cur.depth(head) == cur.depth(comp.entry) && head < comp.entry)) {
        comp.entry = head;
        comp.entry_piece = static_cast<std::int32_t>(comp.pieces.size());
      }
      comp.pieces.push_back(p);
    }
    out.components.push_back(std::move(comp));
  }
  return out;
}

}  // namespace pardfs
