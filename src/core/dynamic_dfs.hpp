// Fully dynamic DFS (paper Theorem 1 / 13): maintains a DFS forest of an
// undirected graph under edge/vertex insertions and deletions.
//
// Epoch-based update loop. The data structure D is built over a *base* tree
// once per epoch and absorbs the epoch's updates as Theorem 9 patches:
//   * a back-edge insert/delete leaves the forest untouched and costs one
//     oracle patch — no rebuild of anything;
//   * a structural update patches D, mutates the graph, reduces to
//     independent subtree reroots (§3), runs the parallel rerooting
//     algorithm (§4) with queries decomposed onto the base tree (Theorem 9),
//     then rebuilds only the O(n) current-tree index (Theorem 10 allows
//     this with n processors);
//   * the O(m log n) base rebuild — the step the paper pays m processors
//     for — runs only when an epoch closes: after Θ(log n) structural
//     updates or when the patch count crosses the Theorem 9 budget.
// See DESIGN.md §5 for the policy and budget discussion.
//
// Disconnected graphs are maintained as a forest (the paper's virtual root
// kept implicit; see reduction.hpp).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adjacency_oracle.hpp"
#include "core/batch_reduction.hpp"
#include "core/components.hpp"
#include "core/reduction.hpp"
#include "core/rerooter.hpp"
#include "graph/graph.hpp"
#include "pram/cost_model.hpp"
#include "tree/tree_index.hpp"

namespace pardfs {

namespace obs {
class Histogram;
}

// Cumulative wall-clock breakdown of the update path (microseconds), split
// along the phases the epoch policy trades against each other. The values
// are a read over the process-wide obs registry (`pardfs_update_phase_us`
// histograms, DESIGN.md §11) — per-phase quantiles and the service-side
// phases (queue_wait, publish) live there; this struct keeps the historical
// sum accessors benches export as per-update counters (EXPERIMENTS.md E13).
// Zero when built with PARDFS_NO_METRICS or after set_metrics_enabled(false).
struct UpdatePhaseBreakdown {
  double patch_us = 0.0;          // oracle patches + graph mutation
  double reroot_us = 0.0;         // reduction + rerooting engine passes
  double index_rebuild_us = 0.0;  // O(n) current-tree index rebuilds
  double rebase_us = 0.0;         // epoch boundaries: D rebuild + swap
};

// Outcome of one DynamicDfs::apply_batch call.
struct BatchStats {
  std::size_t updates = 0;         // updates absorbed
  std::size_t structural = 0;      // updates that changed the forest
  std::size_t back_edges = 0;      // patch-only updates (no structural work)
  std::size_t segments = 0;        // combined reduction + engine passes run
  std::size_t index_rebuilds = 0;  // O(n) TreeIndex rebuilds performed
  std::size_t base_rebuilds = 0;   // epoch rebases (O(m log n)) triggered
  // Ids assigned to kInsertVertex updates, in batch order.
  std::vector<Vertex> new_vertices;
};

class DynamicDfs {
 public:
  // Takes ownership of (a copy of) the initial graph; builds the initial
  // forest with the static O(m + n) algorithm and preprocesses D.
  // `num_threads` is unused: the engine steps its rounds on the calling
  // thread. It stays until the benchmark's callers (perfbench/) stop passing
  // it.
  // `serial_cutoff` feeds the engine's Brent-style completion of sub-cutoff
  // components (see Rerooter): -1 = Rerooter::default_serial_cutoff, 0 = off
  // (pure per-round query machinery; the CONGEST simulation and cost-model
  // tests need the paper's round structure unchanged).
  // `obs_shard` tags this instance's `pardfs_update_phase_us` series with a
  // shard="<obs_shard>" label (service/shard_router runs one engine per
  // shard); empty keeps the process-wide unlabeled series.
  explicit DynamicDfs(Graph graph,
                      RerootStrategy strategy = RerootStrategy::kPaper,
                      pram::CostModel* cost = nullptr, int num_threads = 0,
                      std::int32_t serial_cutoff = -1,
                      std::string obs_shard = {});

  // Movable: the base index is held by shared_ptr, so its address — and the
  // oracle's pointer to it — survives the move untouched. Copying would
  // duplicate megabytes silently, so it is disabled.
  DynamicDfs(DynamicDfs&& other) noexcept = default;
  DynamicDfs& operator=(DynamicDfs&& other) noexcept = default;
  DynamicDfs(const DynamicDfs&) = delete;
  DynamicDfs& operator=(const DynamicDfs&) = delete;

  // ---- updates (mirrored into the internal graph) --------------------------
  void insert_edge(Vertex u, Vertex v);
  void delete_edge(Vertex u, Vertex v);
  Vertex insert_vertex(std::span<const Vertex> neighbors);
  void delete_vertex(Vertex v);
  void apply(const GraphUpdate& update);

  // Applies a whole batch with the combined k-update reduction
  // (core/batch_reduction): D is patched for every update, one engine pass
  // reroots the affected trees, and the O(n) index rebuild runs once per
  // *segment* instead of once per update. A segment is a maximal run of
  // updates with at most epoch_period() structural members (the Theorem 9
  // patch budget). Vertex insertions are admitted first: every
  // kInsertVertex of a multi-update batch gets its id up front, in capacity
  // order, as an isolated vertex (one extra index rebuild), so later updates
  // may reference it; its edges then join its segment as inserted edges and
  // it counts as one structural member. Single-update segments take the
  // cheaper per-update path. A batch of 2..log n structural updates
  // therefore performs one index rebuild, two if it inserts vertices.
  // Updates must be sequentially feasible, exactly as if applied one by one
  // through apply().
  BatchStats apply_batch(std::span<const GraphUpdate> updates);

  // ---- sharding support (service/shard_router) -----------------------------
  // A whole connected component lifted out of one engine, ready to be spliced
  // into another. Global vertex ids with adjacency and tree rows verbatim, so
  // the receiving engine continues the exact forest a single-engine history
  // would have produced (DESIGN.md §12).
  struct ComponentTransfer {
    std::vector<Vertex> vertices;           // ascending ids
    std::vector<std::vector<Vertex>> rows;  // adjacency, parallel to vertices
    std::vector<Vertex> parent;             // tree rows, parallel to vertices
  };

  // Extends the id space with dead vertices so capacity() >= `capacity` (the
  // next insert_vertex then assigns that id). Sharded engines use this to
  // keep ids globally unique across engines. O(n): one index rebuild; the
  // oracle needs nothing (dead ids have no adjacency and are never queried).
  void pad_capacity(Vertex capacity);
  // Removes v's connected component (== the tree rooted at root_of(v)) and
  // returns it for adoption by another engine. O(n + m log n): an index
  // rebuild plus an epoch rebase over the shrunken graph.
  ComponentTransfer extract_component(Vertex v);
  // Splices a component extracted from another engine, padding the id space
  // as needed. The transferred ids must be dead here. Same cost profile as
  // extract_component.
  void adopt_component(ComponentTransfer t);

  // ---- observers ---------------------------------------------------------
  const Graph& graph() const { return graph_; }
  std::span<const Vertex> parent() const { return parent_; }
  Vertex parent_of(Vertex v) const { return parent_[static_cast<std::size_t>(v)]; }
  Vertex root_of(Vertex v) const { return index_->root_of(v); }
  const TreeIndex& tree() const { return *index_; }
  // Shared ownership of the current index (service snapshots). The object is
  // immutable: rebuilds produce a new TreeIndex instead of mutating a shared
  // one, so holders may read it from any thread indefinitely. A handed-out
  // index is permanently excluded from the internal recycling pool (its
  // release may happen on a reader thread; see rebuild_index()).
  std::shared_ptr<const TreeIndex> tree_ptr() const {
    index_escaped_ = true;
    return index_;
  }
  // Statistics of the most recent update's rerooting.
  const RerootStats& last_stats() const { return last_stats_; }
  // Cumulative wall-clock phase breakdown (E13): summed across the whole
  // `pardfs_update_phase_us` family — the unlabeled series plus any
  // shard-labeled ones — so the totals stay process-wide no matter how many
  // engines record. Cheap enough to call inside a timed bench loop: plain
  // shard sums, and the registry scan for labeled series only happens once a
  // sharded engine exists in the process.
  static UpdatePhaseBreakdown phase_breakdown();

  // ---- epoch state (tested / benchmarked) ----------------------------------
  // Full base-tree + D rebuilds so far, including the constructor's initial
  // build. Back-edge updates must never advance this counter.
  std::size_t epoch_rebuilds() const { return epoch_rebuilds_; }
  // Structural updates absorbed by the current epoch.
  std::size_t updates_since_rebase() const { return structural_since_rebase_; }
  // Current epoch length: Θ(log n) structural updates.
  std::size_t epoch_period() const { return epoch_period_; }
  // O(n) current-tree index rebuilds so far, including the constructor's
  // (the quantity apply_batch amortizes: one per segment, not per update).
  std::size_t index_rebuilds() const { return index_rebuilds_; }

 private:
  struct Segment {
    std::vector<const GraphUpdate*> ops;
    std::vector<Vertex> admitted;  // ids of the kInsertVertex ops, in op order
    std::size_t structural = 0;
  };

  // Resolved Brent cutoff for the engine (-1 = capacity-derived default).
  std::int32_t engine_cutoff() const;
  void rebase();            // epoch boundary: base tree + D rebuild, O(m log n)
  void maybe_rebase();      // epoch policy; runs before structural work
  void rebuild_index();     // current-tree index only, O(n)
  void finish_structural();
  // True iff the update would change the forest, judged against the current
  // tree (valid for every op of a pending segment: the tree only changes at
  // segment boundaries).
  bool is_structural(const GraphUpdate& u) const;
  // Returns true when the segment ran the combined reduction (one index
  // rebuild); false for the per-update fallbacks.
  bool flush_segment(Segment& seg);
  // Gives every kInsertVertex of `updates` its id as an isolated alive
  // vertex (appended to `ids`), then rebuilds the index once if any.
  void admit_vertices(std::span<const GraphUpdate> updates, std::vector<Vertex>& ids);
  void execute(const ReductionResult& reduction, const OracleView& view);
  // The current tree equals the base tree (only back-edge patches may have
  // accumulated), so oracle queries need no Theorem 9 path decomposition.
  bool at_base() const { return structural_since_rebase_ == 0; }

  // A recycled (count == 1, never handed out) or fresh TreeIndex to build
  // the next current forest into. Keeps the steady-state rebuild
  // allocation-free: capacities of a retired index carry over.
  std::shared_ptr<TreeIndex> acquire_index_slot();

  Graph graph_;
  std::vector<Vertex> parent_;
  // Current forest and the epoch snapshot D is built over. Both are
  // immutable once built; rebase() aliases instead of deep-copying, and
  // retired indices rotate through index_pool_ for buffer reuse.
  std::shared_ptr<TreeIndex> index_;
  std::shared_ptr<const TreeIndex> base_index_;
  std::vector<std::shared_ptr<TreeIndex>> index_pool_;
  mutable bool index_escaped_ = false;  // current index_ was handed out
  AdjacencyOracle oracle_;
  // Phase-histogram series this instance records into: the process-wide
  // unlabeled series by default, or shard-labeled ones when constructed with
  // obs_shard. Registry references are stable for the process lifetime.
  obs::Histogram* patch_hist_ = nullptr;
  obs::Histogram* reroot_hist_ = nullptr;
  obs::Histogram* index_rebuild_hist_ = nullptr;
  obs::Histogram* rebase_hist_ = nullptr;
  RerootStrategy strategy_;
  pram::CostModel* cost_;
  std::int32_t serial_cutoff_ = -1;
  RerootStats last_stats_;
  std::size_t epoch_period_ = 1;
  std::size_t patch_budget_ = 1;
  std::size_t structural_since_rebase_ = 0;
  std::size_t epoch_rebuilds_ = 0;
  std::size_t index_rebuilds_ = 0;
};

}  // namespace pardfs
