// Traversal planning: the paper's case analysis (§4.1–4.4, Appendix A).
//
// Every planner returns a single chain starting at the component entry plus
// the leftover pieces. The engine (rerooter.cpp) turns the plan into T*
// parent assignments and new components; correctness never depends on which
// plan was chosen (see rerooter.hpp), only the round bound does.
#include <algorithm>
#include <optional>

#include "core/rerooter_internal.hpp"
#include "util/check.hpp"

namespace pardfs::detail {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// Smallest subtree of T(root) with more than `threshold` vertices — the
// descent is unique because two siblings above the threshold would exceed
// their parent's size (paper §4).
Vertex find_v_h(const TreeIndex& cur, Vertex root, std::int32_t threshold) {
  Vertex v = root;
  for (;;) {
    Vertex next = kNullVertex;
    for (const Vertex c : cur.children(v)) {
      if (cur.size(c) > threshold) {
        PARDFS_DCHECK(next == kNullVertex);
        next = c;
        break;  // unique; no need to scan further
      }
    }
    if (next == kNullVertex) return v;
    v = next;
  }
}

std::int32_t path_piece_length(const TreeIndex& cur, const Piece& p) {
  return cur.depth(p.bottom) - cur.depth(p.top) + 1;
}

bool on_path_piece(const TreeIndex& cur, const Piece& p, Vertex x) {
  return cur.is_ancestor(p.top, x) && cur.is_ancestor(x, p.bottom);
}

// Appends the untouched pieces of `comp` (all but `skip1`/`skip2`) to out.
void pass_through_pieces(const Component& comp, std::int32_t skip1,
                         std::int32_t skip2, std::vector<Piece>& out) {
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comp.pieces.size()); ++i) {
    if (i != skip1 && i != skip2) out.push_back(comp.pieces[i]);
  }
}

// Leftover pieces of the subtree T(root) after traversing the chain part
// `tau_part` (all inside T(root)), with `gaps` = explicitly untraversed
// chain fragments (scenario r leaves one between vl and yr):
//   * the untraversed root chain above the shallowest traversed vertex,
//   * the gap fragments (as path pieces),
//   * every subtree hanging off any of the above.
// The marking generation is (re)started here.
void leftovers_in_tau(EngineCtx& ctx, Vertex root,
                      std::span<const Vertex> tau_part,
                      std::span<const Piece> gaps, std::vector<Piece>& out) {
  const TreeIndex& cur = ctx.cur();
  ctx.begin_mark();
  Vertex shallowest = tau_part.front();
  for (const Vertex v : tau_part) {
    ctx.mark(v);
    if (cur.depth(v) < cur.depth(shallowest)) shallowest = v;
  }
  std::vector<Vertex> structure(tau_part.begin(), tau_part.end());
  for (const Piece& g : gaps) {
    PARDFS_DCHECK(g.kind == PieceKind::kPath);
    out.push_back(g);
    for (Vertex v = g.bottom;; v = cur.parent(v)) {
      ctx.mark(v);
      structure.push_back(v);
      if (v == g.top) break;
    }
  }
  if (shallowest != root) {
    // Untraversed upper chain [parent(shallowest) .. root].
    const Vertex bottom = cur.parent(shallowest);
    out.push_back(Piece::path(root, bottom));
    for (Vertex v = bottom;; v = cur.parent(v)) {
      ctx.mark(v);
      structure.push_back(v);
      if (v == root) break;
    }
  }
  for (const Vertex v : structure) {
    for (const Vertex c : cur.children(v)) {
      if (!ctx.marked(c)) out.push_back(Piece::subtree(c));
    }
  }
}

// Finds the subtree hanging off the chain [top..bottom-of-chain] (i.e. off
// the path vL..vH) that contains x; kNullVertex if x is not under any of
// those hangers. `x` is known to be inside T(chain_top).
Vertex hanger_root_containing(const TreeIndex& cur, Vertex chain_top,
                              Vertex chain_bottom, Vertex x) {
  // Walk down from chain_top towards x; the first step leaving the chain is
  // the hanger root.
  Vertex v = chain_top;
  while (v != x) {
    const Vertex c = cur.child_toward(v, x);
    const bool c_on_chain =
        cur.is_ancestor(c, chain_bottom) || c == chain_bottom;
    if (!c_on_chain) return c;
    if (!cur.is_ancestor(c, x)) return kNullVertex;
    v = c;
    if (v == chain_bottom) {
      // Remaining descent is inside T(chain_bottom), not a hanger.
      return kNullVertex;
    }
  }
  return kNullVertex;  // x on the chain itself
}

// Children of the chain's vertices that are not on the chain — the subtrees
// "hanging from" it. Requires the chain to be freshly marked via ctx.
void collect_hangers(EngineCtx& ctx, std::span<const Vertex> chain,
                     std::vector<Vertex>& out) {
  for (const Vertex v : chain) {
    for (const Vertex c : ctx.cur().children(v)) {
      if (!ctx.marked(c)) out.push_back(c);
    }
  }
}

// Filters hanger roots down to those whose subtree has an edge to the path
// piece pc — the paper's "eligible subtrees". One query batch.
void filter_eligible(EngineCtx& ctx, const Piece& pc, std::vector<Vertex>& hangers) {
  std::vector<Vertex> eligible;
  for (const Vertex h : hangers) {
    if (ctx.view().piece_has_edge(Piece::subtree(h), pc.top, pc.bottom)) {
      eligible.push_back(h);
    }
  }
  ctx.count_batch();
  hangers.swap(eligible);
}

// Best (nearest the `near` end) edge from {pc} ∪ eligible-subtrees to the
// monotone current-tree chain [near..far]. One query batch. Distance is
// measured in current-tree depth difference from `near`.
struct UpchainHit {
  Edge edge;
  std::int32_t dist = -1;
  bool valid() const { return dist >= 0; }
};
UpchainHit best_edge_to_upchain(EngineCtx& ctx, const Piece* pc,
                                std::span<const Vertex> eligible, Vertex near,
                                Vertex far) {
  const TreeIndex& cur = ctx.cur();
  UpchainHit best;
  auto consider = [&](const std::optional<Edge>& e) {
    if (!e) return;
    const std::int32_t d = std::abs(cur.depth(e->v) - cur.depth(near));
    if (!best.valid() || d < best.dist ||
        (d == best.dist && e->u < best.edge.u)) {
      best = {*e, d};
    }
  };
  if (pc != nullptr) consider(ctx.view().query_piece(*pc, near, far));
  for (const Vertex h : eligible) {
    consider(ctx.view().query_piece(Piece::subtree(h), near, far));
  }
  ctx.count_batch();
  return best;
}

// ---------------------------------------------------------------------------
// Planners
// ---------------------------------------------------------------------------

// Disintegrating traversal (§4.1): walk r_c .. v_H; every leftover subtree
// has size at most the phase threshold. Also the universal safe fallback.
TraversalPlan plan_disint(EngineCtx& ctx, const Component& comp,
                          std::int32_t tau_index, std::int32_t threshold) {
  const TreeIndex& cur = ctx.cur();
  const Piece& tau = comp.pieces[static_cast<std::size_t>(tau_index)];
  const Vertex v_h = find_v_h(cur, tau.root, threshold);
  TraversalPlan plan;
  plan.pstar = cur.tree_path(comp.entry, v_h);
  leftovers_in_tau(ctx, tau.root, plan.pstar, {}, plan.leftovers);
  pass_through_pieces(comp, tau_index, -1, plan.leftovers);
  ++ctx.stats().disintegrating;
  return plan;
}

// Path halving (§4.2): walk from r_c to the farther end of p_c.
TraversalPlan plan_halve(EngineCtx& ctx, const Component& comp,
                         std::int32_t path_index) {
  const TreeIndex& cur = ctx.cur();
  const Piece& pc = comp.pieces[static_cast<std::size_t>(path_index)];
  const Vertex rc = comp.entry;
  PARDFS_DCHECK(on_path_piece(cur, pc, rc));
  const std::int32_t d_top = cur.depth(rc) - cur.depth(pc.top);
  const std::int32_t d_bot = cur.depth(pc.bottom) - cur.depth(rc);
  TraversalPlan plan;
  if (d_top >= d_bot) {
    plan.pstar = cur.path_vertices(rc, pc.top);
    if (d_bot > 0) {
      plan.leftovers.push_back(Piece::path(cur.child_toward(rc, pc.bottom), pc.bottom));
    }
  } else {
    plan.pstar = cur.path_vertices(rc, pc.bottom);
    if (d_top > 0) {
      plan.leftovers.push_back(Piece::path(pc.top, cur.parent(rc)));
    }
  }
  pass_through_pieces(comp, path_index, -1, plan.leftovers);
  ++ctx.stats().path_halving;
  return plan;
}

// Disconnecting traversal (§4.3): r_c in a subtree τ that must be detached
// from the leftover of p_c. Sweep direction is chosen so that it covers all
// τ→p_c edges AND leaves at most half of p_c (the paper's prose variant;
// see DESIGN.md §3.3).
std::optional<TraversalPlan> plan_discon(EngineCtx& ctx, const Component& comp,
                                         std::int32_t tau_index,
                                         std::int32_t path_index) {
  const TreeIndex& cur = ctx.cur();
  const Piece& tau = comp.pieces[static_cast<std::size_t>(tau_index)];
  const Piece& pc = comp.pieces[static_cast<std::size_t>(path_index)];
  const auto highest = ctx.view().query_piece(tau, pc.top, pc.bottom);
  const auto lowest = ctx.view().query_piece(tau, pc.bottom, pc.top);
  ctx.count_batch();
  if (!highest || !lowest) return std::nullopt;  // not actually edge-connected
  const std::int32_t len = path_piece_length(cur, pc);
  const std::int32_t above_h = cur.depth(highest->v) - cur.depth(pc.top);

  Vertex x, y, sweep_end;
  Piece leftover_pc{};
  bool have_leftover = false;
  if (2 * above_h <= len) {
    // Enter at the highest edge, sweep down: covers every τ edge (all are at
    // or below it), leaves the ≤ half part above.
    x = highest->u;
    y = highest->v;
    sweep_end = pc.bottom;
    if (y != pc.top) {
      leftover_pc = Piece::path(pc.top, cur.parent(y));
      have_leftover = true;
    }
  } else {
    // The highest τ edge is already in the lower half, so all τ edges are;
    // enter at the lowest edge and sweep up.
    x = lowest->u;
    y = lowest->v;
    sweep_end = pc.top;
    if (y != pc.bottom) {
      leftover_pc = Piece::path(cur.child_toward(y, pc.bottom), pc.bottom);
      have_leftover = true;
    }
  }

  TraversalPlan plan;
  std::vector<Vertex> tau_part = cur.tree_path(comp.entry, x);
  plan.pstar = tau_part;
  const std::vector<Vertex> sweep = cur.path_vertices(y, sweep_end);
  plan.pstar.insert(plan.pstar.end(), sweep.begin(), sweep.end());
  leftovers_in_tau(ctx, tau.root, tau_part, {}, plan.leftovers);
  if (have_leftover) plan.leftovers.push_back(leftover_pc);
  pass_through_pieces(comp, tau_index, path_index, plan.leftovers);
  ++ctx.stats().disconnecting;
  return plan;
}

// Heavy subtree traversal (§4.4): scenarios l, p, r. Returns nullopt when a
// degenerate input or the special case is hit — the caller falls back to a
// disintegrating traversal (bound slip, never a correctness issue).
std::optional<TraversalPlan> plan_heavy(EngineCtx& ctx, const Component& comp,
                                        std::int32_t tau_index,
                                        std::int32_t path_index,
                                        std::int32_t threshold) {
  const TreeIndex& cur = ctx.cur();
  const OracleView& view = ctx.view();
  const Piece& tau = comp.pieces[static_cast<std::size_t>(tau_index)];
  const Piece& pc = comp.pieces[static_cast<std::size_t>(path_index)];
  const Vertex rc = comp.entry;
  const Vertex root = tau.root;
  const Vertex v_h = find_v_h(cur, root, threshold);
  PARDFS_DCHECK(rc != root && !cur.is_ancestor(v_h, rc));
  const Vertex v_l = cur.lca(rc, v_h);
  const Vertex v_up = cur.child_toward(v_l, v_h);  // vL: hanger containing vH

  // ---- Scenario 1: l traversal --------------------------------------------
  const std::vector<Vertex> p_l = cur.path_vertices(rc, root);
  ctx.begin_mark();
  for (const Vertex v : p_l) ctx.mark(v);
  std::vector<Vertex> hangers;
  collect_hangers(ctx, p_l, hangers);
  std::vector<Vertex> eligible = hangers;
  filter_eligible(ctx, pc, eligible);

  const UpchainHit e1 = best_edge_to_upchain(ctx, &pc, eligible, root, rc);
  if (!e1.valid()) return std::nullopt;  // component not canonical
  const Vertex x1 = e1.edge.u;
  const bool s1_applicable = !cur.is_ancestor(v_up, x1) ||
                             cur.is_ancestor(v_h, x1) || x1 == v_up ||
                             on_path_piece(cur, pc, x1);
  if (s1_applicable) {
    TraversalPlan plan;
    plan.pstar = p_l;
    leftovers_in_tau(ctx, root, plan.pstar, {}, plan.leftovers);
    pass_through_pieces(comp, tau_index, path_index, plan.leftovers);
    plan.leftovers.push_back(pc);
    ++ctx.stats().heavy_l;
    return plan;
  }

  // ---- Scenario 2: p traversal ---------------------------------------------
  if (v_l == root) return std::nullopt;  // no chain above vl to jump into

  // Subtrees eligible for (xd, yd): hangers of p*_L except T(vL), plus
  // eligible hangers of path(vL, vH).
  const std::vector<Vertex> chain_lh = cur.path_vertices(v_up, v_h);
  ctx.begin_mark();
  for (const Vertex v : chain_lh) ctx.mark(v);
  std::vector<Vertex> lh_hangers;
  collect_hangers(ctx, chain_lh, lh_hangers);
  filter_eligible(ctx, pc, lh_hangers);
  std::vector<Vertex> d_set;
  for (const Vertex h : eligible) {
    if (h != v_up) d_set.push_back(h);
  }
  d_set.insert(d_set.end(), lh_hangers.begin(), lh_hangers.end());
  const UpchainHit ed = best_edge_to_upchain(ctx, nullptr, d_set, root, rc);
  Vertex xd = kNullVertex, yd = kNullVertex;
  if (ed.valid()) {
    xd = ed.edge.u;
    yd = ed.edge.v;
  }

  // yp range: strictly above vl, and at or above yd when yd is up there too.
  const Vertex low_y = (yd != kNullVertex && cur.is_ancestor(yd, v_l) && yd != v_l)
                           ? yd
                           : cur.parent(v_l);
  // (xp, yp): edge from T(vL) into [low_y .. root] whose source has the
  // deepest LCA with vH. One set of |T(vL)| independent queries.
  std::vector<CurSeg> y_range;
  view.decompose(root, low_y, y_range);
  const auto tvl = cur.subtree_span(v_up);
  struct PCand {
    Vertex x = kNullVertex, y = kNullVertex;
    std::int32_t key = -1;
  };
  PCand pcand;
  for (const Vertex u : tvl) {
    const auto hit = view.query_vertex_over(u, y_range);
    if (!hit) continue;
    const std::int32_t key = cur.depth(cur.lca(u, v_h));
    // Deepest LCA first, then the smallest source: a total order, so the
    // winner does not depend on the scan order.
    if (key > pcand.key || (key == pcand.key && u < pcand.x)) {
      pcand = {u, hit->v, key};
    }
  }
  ctx.count_batch();
  if (pcand.key < 0) return std::nullopt;
  const Vertex xp = pcand.x, yp = pcand.y;
  PARDFS_DCHECK(cur.is_ancestor(yp, v_l) && yp != v_l);

  std::vector<Vertex> pstar_p = cur.tree_path(rc, xp);
  {
    const std::vector<Vertex> down = cur.path_vertices(yp, cur.parent(v_l));
    pstar_p.insert(pstar_p.end(), down.begin(), down.end());
  }
  const Vertex w_p = cur.lca(xp, v_h);
  const Vertex v_p = w_p == v_h ? v_h : cur.child_toward(w_p, v_h);

  // (x2, y2): lowest edge on p*_P from pc and the eligible hangers of p*_P.
  ctx.begin_mark();
  for (const Vertex v : pstar_p) ctx.mark(v);
  std::vector<Vertex> p_hangers;
  collect_hangers(ctx, pstar_p, p_hangers);
  filter_eligible(ctx, pc, p_hangers);
  std::vector<Piece> p_sources;
  p_sources.push_back(pc);
  for (const Vertex h : p_hangers) p_sources.push_back(Piece::subtree(h));
  const std::vector<Run> p_runs = split_runs(cur, pstar_p);
  ctx.index_chain(pstar_p);
  for (std::size_t b = 0; b < p_runs.size(); ++b) ctx.count_batch();
  const ChainHit e2 = best_edge_to_chain(ctx, p_sources, pstar_p, p_runs);
  const bool s2_applicable =
      !e2.valid() || !cur.is_ancestor(v_p, e2.edge.u) ||
      cur.is_ancestor(v_h, e2.edge.u) || e2.edge.u == v_p ||
      on_path_piece(cur, pc, e2.edge.u);
  if (s2_applicable) {
    TraversalPlan plan;
    plan.pstar = std::move(pstar_p);
    leftovers_in_tau(ctx, root, plan.pstar, {}, plan.leftovers);
    pass_through_pieces(comp, tau_index, path_index, plan.leftovers);
    plan.leftovers.push_back(pc);
    ++ctx.stats().heavy_p;
    return plan;
  }
  const Vertex x2 = e2.edge.u, y2 = e2.edge.v;

  // ---- Scenario 3: r traversal ---------------------------------------------
  // τd: the hanger of path(vL, vH) containing xd, if any.
  Vertex tau_d = kNullVertex;
  if (xd != kNullVertex && cur.is_ancestor(v_up, xd)) {
    tau_d = hanger_root_containing(cur, v_up, v_h, xd);
  }
  Vertex xr = x2, yr = y2;
  if (tau_d != kNullVertex) {
    // Lowest (nearest vl) edge from τd into the chain (vl .. yp].
    const auto e2p =
        view.query_piece(Piece::subtree(tau_d), cur.parent(v_l), yp);
    ctx.count_batch();
    if (e2p) {
      const bool y2_above = cur.is_ancestor(y2, v_l) && y2 != v_l;
      const bool e2p_deeper = !y2_above || cur.depth(e2p->v) > cur.depth(y2);
      if (e2p_deeper) {
        xr = e2p->u;
        yr = e2p->v;
      }
    }
  }
  if (!(cur.is_ancestor(yr, v_l) && yr != v_l)) return std::nullopt;
  if (!cur.is_ancestor(v_up, xr)) return std::nullopt;

  std::vector<Vertex> pstar_r = cur.tree_path(rc, xr);
  {
    const std::vector<Vertex> up = cur.path_vertices(yr, root);
    pstar_r.insert(pstar_r.end(), up.begin(), up.end());
  }
  ctx.begin_mark();
  for (const Vertex v : pstar_r) ctx.mark(v);
  std::vector<Vertex> r_hangers;
  collect_hangers(ctx, pstar_r, r_hangers);
  // The gap chain between vl and yr is unvisited; its top child hangs from
  // yr and was collected above — remove it (it is a path+subtrees region,
  // handled via leftovers_in_tau's gap parameter).
  const bool has_gap = cur.depth(v_l) - cur.depth(yr) >= 2;
  const Vertex gap_top = has_gap ? cur.child_toward(yr, v_l) : kNullVertex;
  if (has_gap) {
    r_hangers.erase(std::remove(r_hangers.begin(), r_hangers.end(), gap_top),
                    r_hangers.end());
  }
  filter_eligible(ctx, pc, r_hangers);
  std::vector<Piece> r_sources;
  r_sources.push_back(pc);
  for (const Vertex h : r_hangers) r_sources.push_back(Piece::subtree(h));
  const std::vector<Run> r_runs = split_runs(cur, pstar_r);
  ctx.index_chain(pstar_r);
  for (std::size_t b = 0; b < r_runs.size(); ++b) ctx.count_batch();
  const ChainHit e3 = best_edge_to_chain(ctx, r_sources, pstar_r, r_runs);
  const Vertex w_r = cur.lca(xr, v_h);
  const Vertex v_r = w_r == v_h ? v_h : cur.child_toward(w_r, v_h);
  const bool s3_applicable =
      !e3.valid() || !cur.is_ancestor(v_r, e3.edge.u) ||
      cur.is_ancestor(v_h, e3.edge.u) || e3.edge.u == v_r ||
      on_path_piece(cur, pc, e3.edge.u);
  if (s3_applicable) {
    TraversalPlan plan;
    plan.pstar = std::move(pstar_r);
    std::vector<Piece> gaps;
    if (has_gap) gaps.push_back(Piece::path(gap_top, cur.parent(v_l)));
    leftovers_in_tau(ctx, root, plan.pstar, gaps, plan.leftovers);
    pass_through_pieces(comp, tau_index, path_index, plan.leftovers);
    plan.leftovers.push_back(pc);
    ++ctx.stats().heavy_r;
    return plan;
  }

  // Special case (§4.4 "Special case of heavy subtree traversal"): handled
  // by the safe fallback; counted so benchmarks can report its rarity.
  ++ctx.stats().heavy_special;
  return std::nullopt;
}

}  // namespace

TraversalPlan plan_traversal(EngineCtx& ctx, const Component& comp,
                             RerootStrategy strategy) {
  const TreeIndex& cur = ctx.cur();
  PARDFS_CHECK(!comp.pieces.empty());
  const Piece& entry_piece = comp.pieces[static_cast<std::size_t>(comp.entry_piece)];

  // r_c on a path piece: path halving regardless of strategy.
  if (entry_piece.kind == PieceKind::kPath) {
    return plan_halve(ctx, comp, comp.entry_piece);
  }

  if (strategy == RerootStrategy::kSequentialL) {
    // Baswana et al. [6]-style: always walk r_c to the subtree root.
    TraversalPlan plan;
    plan.pstar = cur.path_vertices(comp.entry, entry_piece.root);
    leftovers_in_tau(ctx, entry_piece.root, plan.pstar, {}, plan.leftovers);
    pass_through_pieces(comp, comp.entry_piece, -1, plan.leftovers);
    ++ctx.stats().disintegrating;
    return plan;
  }

  // Phase threshold from the heaviest subtree piece (paper: n/2^i).
  std::int32_t max_sub = 0;
  std::vector<std::int32_t> paths;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comp.pieces.size()); ++i) {
    const Piece& p = comp.pieces[static_cast<std::size_t>(i)];
    if (p.kind == PieceKind::kSubtree) {
      max_sub = std::max(max_sub, cur.size(p.root));
    } else {
      paths.push_back(i);
    }
  }
  PARDFS_CHECK(max_sub > 0);  // entry piece is a subtree
  std::uint32_t phase = 1;
  while ((comp.budget >> phase) >= max_sub) ++phase;
  const std::int32_t threshold = static_cast<std::int32_t>(
      phase < 31 ? (comp.budget >> phase) : 0);
  ctx.stats().max_phase = std::max(ctx.stats().max_phase, phase);

  const Piece& tau = entry_piece;
  const bool tau_heavy = cur.size(tau.root) > threshold;
  const std::int32_t single_path = paths.size() == 1 ? paths.front() : -1;

  auto fallback = [&]() {
    ++ctx.stats().fallbacks;
    return plan_disint(ctx, comp, comp.entry_piece, threshold);
  };

  if (!tau_heavy) {
    // r_c in a light subtree: disconnect it from p_c (if canonical).
    if (single_path >= 0) {
      if (auto plan = plan_discon(ctx, comp, comp.entry_piece, single_path)) {
        return std::move(*plan);
      }
      return fallback();
    }
    return plan_disint(ctx, comp, comp.entry_piece, threshold);
  }

  // Heavy subtree containing r_c.
  if (comp.entry == tau.root || paths.empty()) {
    return plan_disint(ctx, comp, comp.entry_piece, threshold);
  }
  const Vertex v_h = find_v_h(cur, tau.root, threshold);
  if (cur.is_ancestor(v_h, comp.entry)) {
    // r_c inside T(vH): disconnecting traversal works (remark in §4.3).
    if (single_path >= 0) {
      if (auto plan = plan_discon(ctx, comp, comp.entry_piece, single_path)) {
        return std::move(*plan);
      }
    }
    return fallback();
  }
  if (single_path >= 0) {
    if (auto plan = plan_heavy(ctx, comp, comp.entry_piece, single_path, threshold)) {
      return std::move(*plan);
    }
  }
  return fallback();
}

}  // namespace pardfs::detail
