#include "service/shard_router.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/articulation.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/journal.hpp"
#include "testing/chaos.hpp"
#include "util/check.hpp"

namespace pardfs::service {
namespace {

// Control-plane clock: heartbeats, stall detection and recovery timing must
// keep working when metrics are compiled out (obs::now_ns() is 0 then), so
// the supervision layer reads steady_clock directly.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The legacy unlabeled service series (the shapes PR 6's dashboards and the
// benches read). A 1-shard router records into exactly these, so nothing
// downstream notices the refactor; multi-shard routers use shard="<id>"
// labeled twins of every family instead.
obs::Histogram& queue_wait_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_update_phase_us", "phase=\"queue_wait\"", 1e-3);
  return h;
}
obs::Histogram& publish_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_update_phase_us", "phase=\"publish\"", 1e-3);
  return h;
}
// Submit-to-ack latency of accepted updates — the ROADMAP's p99/p50 pipeline
// target reads from here.
obs::Histogram& ack_latency_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_ack_latency_us", "", 1e-3);
  return h;
}
// Age of the outgoing snapshot at replacement time: how stale readers could
// observe the forest between publishes.
obs::Histogram& staleness_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_snapshot_staleness_us", "", 1e-3);
  return h;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("pardfs_queue_depth");
  return g;
}
obs::Gauge& coalesce_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("pardfs_coalesce_size");
  return g;
}

// Sharding counters (process-global; a migration moves one component).
obs::Counter& migrations_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_shard_migrations_total");
  return c;
}
obs::Counter& cross_shard_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_cross_shard_inserts_total");
  return c;
}
obs::Counter& infeasible_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "pardfs_acks_rejected_total", "reason=\"infeasible\"");
  return c;
}
obs::Counter& batches_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_batches_total");
  return c;
}
obs::Counter& applied_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_updates_applied_total");
  return c;
}
obs::Counter& published_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_snapshots_published_total");
  return c;
}

// Robustness families (DESIGN.md §13). Process-global: a recovery is a
// process-level event regardless of which shard crashed.
obs::Counter& recoveries_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_recoveries_total");
  return c;
}
obs::Histogram& recovery_latency_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_recovery_latency_us", "", 1e-3);
  return h;
}
obs::Counter& stalls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_writer_stalls_total");
  return c;
}
obs::Counter& retryable_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_acks_retryable_total");
  return c;
}
obs::Counter& overload_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_overload_shed_total");
  return c;
}
obs::Counter& checkpoints_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_journal_checkpoints_total");
  return c;
}

}  // namespace

// Lock-free chunked directory: a fixed top-level array of atomic chunk
// pointers covering the full 31-bit id space, chunks allocated on demand.
// -1 = the id was never assigned. Entries outlive their vertex (they keep
// pointing at the shard where it died), so every id resolves to a snapshot
// that answers the totality-preserving default.
class ShardRouter::Directory {
 public:
  Directory() {
    for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
  }
  ~Directory() {
    for (auto& c : chunks_) delete c.load(std::memory_order_relaxed);
  }
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  std::int32_t get(Vertex v) const {
    if (v < 0) return -1;
    const std::size_t idx = static_cast<std::size_t>(v) >> kChunkBits;
    if (idx >= kMaxChunks) return -1;
    const Chunk* c = chunks_[idx].load(std::memory_order_acquire);
    if (c == nullptr) return -1;
    return c->entry[static_cast<std::size_t>(v) & kChunkMask].load(
        std::memory_order_acquire);
  }

  void set(Vertex v, std::int32_t shard) {
    const std::size_t idx = static_cast<std::size_t>(v) >> kChunkBits;
    PARDFS_CHECK_MSG(v >= 0 && idx < kMaxChunks,
                     "vertex id outside the directory's range");
    Chunk* c = chunks_[idx].load(std::memory_order_acquire);
    if (c == nullptr) {
      std::lock_guard lock(grow_mu_);
      c = chunks_[idx].load(std::memory_order_acquire);
      if (c == nullptr) {
        auto fresh = std::make_unique<Chunk>();
        for (auto& e : fresh->entry) e.store(-1, std::memory_order_relaxed);
        c = fresh.release();
        chunks_[idx].store(c, std::memory_order_release);
      }
    }
    c->entry[static_cast<std::size_t>(v) & kChunkMask].store(
        shard, std::memory_order_release);
  }

 private:
  static constexpr std::size_t kChunkBits = 16;
  static constexpr std::size_t kChunkMask = (std::size_t{1} << kChunkBits) - 1;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;  // 2^31 ids
  struct Chunk {
    std::array<std::atomic<std::int32_t>, std::size_t{1} << kChunkBits> entry;
  };
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_;
  std::mutex grow_mu_;
};

// One full single-writer serving stack.
// `mu` is the engine lock: the shard's writer holds it while applying and
// publishing; a merge executed by another shard's writer holds both involved
// engine locks (ascending id order). Snapshot loads never take it.
struct ShardRouter::Shard {
  Shard(std::size_t id_, Graph g, const ServiceConfig& cfg,
        std::string obs_label)
      : id(id_),
        dfs(std::move(g), RerootStrategy::kPaper, nullptr, 0, -1,
            std::move(obs_label)),
        queue(cfg.queue_capacity) {}

  const std::size_t id;
  mutable std::mutex mu;
  DynamicDfs dfs;                     // guarded by mu
  UpdateQueue queue;
  std::atomic<SnapshotPtr> snapshot;
  std::uint64_t version = 0;          // guarded by mu
  std::uint64_t updates_applied = 0;  // guarded by mu
  std::uint64_t last_publish_ns = 0;  // guarded by mu
  ServiceStats stats;                 // guarded by the router's control_mu_

  // ---- failure domain (DESIGN.md §13) --------------------------------------
  // Write-ahead journal; recording happens under mu, replay with mu held and
  // the writer dead. Null when ServiceConfig::enable_journal is off.
  std::unique_ptr<UpdateJournal> journal;
  // The accepted-and-journaled batch currently being applied: its tickets
  // are durable — if the writer crashes before acking them, recovery acks
  // them with the recorded version (+ the replayed insert ids) instead of
  // kRetryable. Guarded by mu; cleared once the live path acks.
  struct WalPending {
    std::vector<UpdateTicket> tickets;
    std::vector<GraphUpdate::Kind> kinds;  // parallel to tickets
    std::uint64_t version = 0;
  };
  std::optional<WalPending> wal_pending;  // guarded by mu
  // Writer liveness, all lock-free so the watchdog never touches mu to
  // observe: heartbeat stamped at each drain, busy while a drained batch is
  // processing, crashed set by the writer's catch block, fenced set by the
  // watchdog on a stale busy heartbeat (the writer converts it to a crash at
  // its next cancellation point), poison set by inject_writer_failure().
  std::atomic<std::uint64_t> heartbeat_ns{0};
  std::atomic<bool> busy{false};
  std::atomic<bool> crashed{false};
  std::atomic<bool> fenced{false};
  std::atomic<bool> poison{false};
  // Journal replay threw (journal disabled or itself damaged): the watchdog
  // stops retrying; the shard degrades to read-only until stop().
  std::atomic<bool> unrecoverable{false};
  std::atomic<std::uint64_t> retryable_acks{0};
  std::atomic<std::uint64_t> overload_sheds{0};
  // This shard's service series (S == 1: the legacy unlabeled ones).
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* publish_hist = nullptr;
  obs::Histogram* ack_latency = nullptr;
  obs::Histogram* staleness = nullptr;
  obs::Gauge* depth_gauge = nullptr;
  obs::Gauge* coalesce_gauge = nullptr;
  std::thread writer;  // started by the router after every shard is published
};

// Tracks the effect of the accepted prefix of one batch on top of the shard
// graph, so feasibility of update i sees updates 0..i-1 (clients race each
// other; the queue order is the serialization the service commits to).
struct ShardRouter::BatchDelta {
  std::unordered_map<std::uint64_t, bool> edges;  // undirected key -> present
  std::unordered_set<Vertex> dead;
  Vertex next_vertex = 0;  // first id not yet assigned
};

// What apply_locked leaves for ack_locked: the accepted tickets, in batch
// order, and what each resolves to.
struct ShardRouter::Applied {
  std::vector<UpdateTicket> tickets;
  std::vector<Vertex> assigned;           // the new id of an insert, else null
  std::vector<std::uint64_t> enqueue_ns;  // for the ack latency
  std::uint64_t version = 0;              // the publishing version
};

ShardRouter::ShardRouter(Graph initial, ServiceConfig config)
    : config_(config) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  const std::size_t S = config_.num_shards;
  paused_ = config_.start_paused;
  directory_ = std::make_unique<Directory>();
  global_next_ = initial.capacity();
  const Vertex n = initial.capacity();

  // Component partition: BFS over the initial graph, components assigned
  // round-robin in ascending root-id order (balanced in component count and
  // deterministic, so repeated constructions shard identically).
  std::vector<std::int32_t> owner(static_cast<std::size_t>(n), -1);
  {
    std::vector<Vertex> stack;
    std::size_t next_shard = 0;
    for (Vertex r = 0; r < n; ++r) {
      if (!initial.is_alive(r) || owner[static_cast<std::size_t>(r)] != -1) {
        continue;
      }
      const auto s = static_cast<std::int32_t>(next_shard);
      next_shard = (next_shard + 1) % S;
      owner[static_cast<std::size_t>(r)] = s;
      stack.push_back(r);
      while (!stack.empty()) {
        const Vertex v = stack.back();
        stack.pop_back();
        for (const Vertex w : initial.neighbors(v)) {
          if (owner[static_cast<std::size_t>(w)] == -1) {
            owner[static_cast<std::size_t>(w)] = s;
            stack.push_back(w);
          }
        }
      }
    }
  }

  // Per-shard engines over full-id-space graphs: a shard owns whole
  // components, every other id is a dead hole. Verbatim adjacency rows keep
  // each component's forest byte-identical to a single-shard run.
  for (std::size_t s = 0; s < S; ++s) {
    Graph g;
    if (S == 1) {
      g = std::move(initial);
    } else {
      g.pad_to(n);
      std::vector<Vertex> verts;
      std::vector<std::vector<Vertex>> rows;
      for (Vertex v = 0; v < n; ++v) {
        if (owner[static_cast<std::size_t>(v)] ==
            static_cast<std::int32_t>(s)) {
          verts.push_back(v);
          const auto nb = initial.neighbors(v);
          rows.emplace_back(nb.begin(), nb.end());
        }
      }
      g.adopt_component(verts, std::move(rows));
    }
    // The journal captures the genesis graph (a copy, taken before the
    // engine consumes it) plus the engine's construction parameters, so
    // replay() rebuilds with exactly the live configuration.
    std::unique_ptr<UpdateJournal> journal;
    if (config_.enable_journal) {
      UpdateJournal::Config jcfg;
      jcfg.obs_shard = S > 1 ? std::to_string(s) : std::string();
      journal = std::make_unique<UpdateJournal>(g, std::move(jcfg));
    }
    shards_.push_back(std::make_unique<Shard>(
        s, std::move(g), config_, S > 1 ? std::to_string(s) : std::string()));
    shards_.back()->journal = std::move(journal);
    if (config_.enable_chaos) {
      shards_.back()->queue.enable_chaos(static_cast<std::int32_t>(s));
    }
  }

  // Eager registration: every shard's full series set (plus the process-wide
  // sharding counters) shows up at zero on a fresh metrics page.
  obs::Registry& reg = obs::Registry::global();
  for (auto& sh : shards_) {
    if (S == 1) {
      sh->queue_wait = &queue_wait_hist();
      sh->publish_hist = &publish_hist();
      sh->ack_latency = &ack_latency_hist();
      sh->staleness = &staleness_hist();
      sh->depth_gauge = &queue_depth_gauge();
      sh->coalesce_gauge = &coalesce_gauge();
    } else {
      const std::string label = "shard=\"" + std::to_string(sh->id) + "\"";
      sh->queue_wait = &reg.histogram("pardfs_update_phase_us",
                                      "phase=\"queue_wait\"," + label, 1e-3);
      sh->publish_hist = &reg.histogram("pardfs_update_phase_us",
                                        "phase=\"publish\"," + label, 1e-3);
      sh->ack_latency = &reg.histogram("pardfs_ack_latency_us", label, 1e-3);
      sh->staleness =
          &reg.histogram("pardfs_snapshot_staleness_us", label, 1e-3);
      sh->depth_gauge = &reg.gauge("pardfs_queue_depth", label);
      sh->coalesce_gauge = &reg.gauge("pardfs_coalesce_size", label);
    }
  }
  migrations_counter();
  cross_shard_counter();
  infeasible_counter();
  batches_counter();
  applied_counter();
  published_counter();
  recoveries_counter();
  recovery_latency_hist();
  stalls_counter();
  retryable_counter();
  overload_counter();
  checkpoints_counter();

  for (Vertex v = 0; v < n; ++v) {
    if (S == 1) {
      // `initial` was moved into shard 0; its liveness now lives there.
      if (shards_[0]->dfs.graph().is_alive(v)) directory_->set(v, 0);
    } else if (owner[static_cast<std::size_t>(v)] >= 0) {
      directory_->set(v, owner[static_cast<std::size_t>(v)]);
    }
  }
  for (auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sh->version = 1;
    publish(*sh, /*forest_unchanged=*/false);
  }
  for (auto& sh : shards_) {
    sh->writer = std::thread([this, shard = sh.get()] { writer_loop(*shard); });
  }
  if (config_.watchdog_poll_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

int ShardRouter::shard_of(Vertex v) const { return directory_->get(v); }

SnapshotPtr ShardRouter::shard_snapshot(std::size_t shard) const {
  return shards_[shard]->snapshot.load(std::memory_order_acquire);
}

UpdateTicket ShardRouter::submit(GraphUpdate update) {
  Shard& sh = *shards_[route(update)];
  UpdateTicket shed;
  if (shed_overloaded(sh, &shed)) return shed;
  return sh.queue.submit(std::move(update));
}

bool ShardRouter::try_submit(GraphUpdate update, UpdateTicket* ticket) {
  Shard& sh = *shards_[route(update)];
  UpdateTicket shed;
  if (shed_overloaded(sh, &shed)) {
    // The non-blocking contract stays "true = you hold a ticket": the caller
    // inspects it and finds kOverloaded instead of a version.
    *ticket = shed;
    return true;
  }
  return sh.queue.try_submit(std::move(update), ticket);
}

// Admission control: shed with a pre-acked kOverloaded ticket when the
// target shard's queue is past the depth bound (default off).
bool ShardRouter::shed_overloaded(Shard& sh, UpdateTicket* out) {
  if (config_.max_queue_depth == 0 ||
      sh.queue.size() < config_.max_queue_depth) {
    return false;
  }
  sh.overload_sheds.fetch_add(1, std::memory_order_relaxed);
  overload_counter().add();
  *out = UpdateTicket::make();
  out->ack(UpdateTicket::kOverloaded);
  return true;
}

std::uint64_t ShardRouter::apply_sync(GraphUpdate update) {
  // A submit racing stop() yields a pre-rejected ticket, so the blocking
  // wait is unconditionally safe.
  return submit(std::move(update)).wait();
}

std::size_t ShardRouter::route(const GraphUpdate& u) const {
  const std::size_t S = shards_.size();
  if (S == 1) return 0;
  // Gateway routing: the smallest shard any referenced vertex resolves to.
  // Ops with no resolvable endpoint go to shard 0 (edge/delete: rejected by
  // its feasibility filter) or round-robin (isolated vertex inserts, which
  // are feasible anywhere). Components may migrate between routing and
  // drain; the writer re-resolves then.
  const auto min_dir = [&](std::span<const Vertex> vs) {
    std::int32_t best = -1;
    for (const Vertex v : vs) {
      const std::int32_t s = directory_->get(v);
      if (s >= 0 && (best < 0 || s < best)) best = s;
    }
    return best;
  };
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge: {
      const std::array<Vertex, 2> ends{u.u, u.v};
      const std::int32_t s = min_dir(ends);
      return s >= 0 ? static_cast<std::size_t>(s) : 0;
    }
    case GraphUpdate::Kind::kInsertVertex: {
      const std::int32_t s = min_dir(u.neighbors);
      if (s >= 0) return static_cast<std::size_t>(s);
      if (!u.neighbors.empty()) return 0;  // unknown neighbors: rejected there
      return isolated_rr_.fetch_add(1, std::memory_order_relaxed) % S;
    }
    case GraphUpdate::Kind::kDeleteVertex: {
      const std::int32_t s = directory_->get(u.u);
      return s >= 0 ? static_cast<std::size_t>(s) : 0;
    }
  }
  return 0;
}

void ShardRouter::pause() {
  {
    std::lock_guard lock(control_mu_);
    paused_ = true;
  }
  control_cv_.notify_all();
}

void ShardRouter::resume() {
  {
    std::lock_guard lock(control_mu_);
    paused_ = false;
  }
  control_cv_.notify_all();
}

void ShardRouter::stop() {
  {
    std::lock_guard lock(control_mu_);
    stopped_ = true;
    paused_ = false;
  }
  control_cv_.notify_all();
  // The watchdog goes first: once it is joined, nobody can respawn a writer
  // behind the join loop below (respawn checks stopped_ under control_mu_).
  {
    std::lock_guard lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& sh : shards_) sh->queue.close();
  for (auto& sh : shards_) {
    if (sh->writer.joinable()) sh->writer.join();
  }
  // Shutdown totality sweep: a shard that crashed after the watchdog left
  // (or ran without one) still owes acks. Recover it in place — the journal
  // replay acks its wal-pending batch with the recorded version — then flush
  // whatever its queue still holds as kRetryable. Every ticket ever returned
  // is acknowledged when stop() returns.
  for (auto& sh : shards_) {
    if (sh->crashed.load(std::memory_order_acquire) &&
        !sh->unrecoverable.load(std::memory_order_acquire)) {
      try {
        recover_shard(*sh, /*respawn=*/false);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pardfs: shutdown recovery of shard %zu failed: %s\n",
                     sh->id, e.what());
        abandon_shard(*sh);
      }
    } else if (sh->crashed.load(std::memory_order_acquire)) {
      abandon_shard(*sh);  // idempotent wal flush for the degraded shard
    }
    std::vector<PendingUpdate> rest;
    sh->queue.drain(rest, 0);
    for (PendingUpdate& p : rest) {
      if (p.ticket.try_ack(UpdateTicket::kRetryable)) {
        sh->retryable_acks.fetch_add(1, std::memory_order_relaxed);
        retryable_counter().add();
      }
    }
  }
}

ServiceStats& ServiceStats::operator+=(const ServiceStats& o) {
  batches += o.batches;
  updates_applied += o.updates_applied;
  updates_rejected += o.updates_rejected;
  snapshots_published += o.snapshots_published;
  max_batch = std::max(max_batch, o.max_batch);
  structural += o.structural;
  back_edges += o.back_edges;
  segments += o.segments;
  index_rebuilds += o.index_rebuilds;
  base_rebuilds += o.base_rebuilds;
  rejected_infeasible += o.rejected_infeasible;
  rejected_shutdown += o.rejected_shutdown;
  shard_migrations += o.shard_migrations;
  cross_shard_inserts += o.cross_shard_inserts;
  recoveries += o.recoveries;
  retryable_acks += o.retryable_acks;
  overload_sheds += o.overload_sheds;
  return *this;
}

ServiceStats ShardRouter::stats() const {
  ServiceStats out;
  for (std::size_t s = 0; s < shards_.size(); ++s) out += shard_stats(s);
  return out;
}

ServiceStats ShardRouter::shard_stats(std::size_t shard) const {
  const Shard& sh = *shards_[shard];
  ServiceStats out;
  {
    std::lock_guard lock(control_mu_);
    out = sh.stats;
  }
  // The fields the writer path does not keep under control_mu_.
  out.rejected_infeasible = out.updates_rejected;
  out.rejected_shutdown = sh.queue.rejected_after_close();
  out.retryable_acks = sh.retryable_acks.load(std::memory_order_relaxed);
  out.overload_sheds = sh.overload_sheds.load(std::memory_order_relaxed) +
                       sh.queue.overload_sheds();
  return out;
}

std::size_t ShardRouter::queue_depth() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->queue.size();
  return total;
}

std::size_t ShardRouter::queue_depth(std::size_t shard) const {
  return shards_[shard]->queue.size();
}

Vertex ShardRouter::capacity() const {
  std::lock_guard lock(id_mu_);
  return global_next_;
}

Vertex ShardRouter::num_vertices() const {
  Vertex total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shard_snapshot(s)->num_vertices();
  }
  return total;
}

std::int64_t ShardRouter::num_edges() const {
  std::int64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shard_snapshot(s)->num_edges();
  }
  return total;
}

std::vector<Vertex> ShardRouter::assemble_parent() const {
  const Vertex n = capacity();
  std::vector<SnapshotPtr> snaps;
  snaps.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snaps.push_back(shard_snapshot(s));
  }
  std::vector<Vertex> out(static_cast<std::size_t>(n), kNullVertex);
  for (Vertex v = 0; v < n; ++v) {
    const std::int32_t s = directory_->get(v);
    if (s < 0) continue;
    const auto par = snaps[static_cast<std::size_t>(s)]->parent();
    if (static_cast<std::size_t>(v) < par.size()) {
      out[static_cast<std::size_t>(v)] = par[static_cast<std::size_t>(v)];
    }
  }
  return out;
}

std::vector<std::uint8_t> ShardRouter::assemble_alive() const {
  const Vertex n = capacity();
  std::vector<SnapshotPtr> snaps;
  snaps.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snaps.push_back(shard_snapshot(s));
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    const std::int32_t s = directory_->get(v);
    if (s < 0) continue;
    out[static_cast<std::size_t>(v)] =
        snaps[static_cast<std::size_t>(s)]->contains(v) ? 1 : 0;
  }
  return out;
}

std::string ShardRouter::metrics_text() const { return obs::prometheus_text(); }

std::string ShardRouter::metrics_json() const { return obs::metrics_json(); }

const DynamicDfs& ShardRouter::core(std::size_t shard) const {
  return shards_[shard]->dfs;
}

void ShardRouter::publish(Shard& sh, bool forest_unchanged) {
  obs::ScopedPhase phase(*sh.publish_hist, "publish");
  const std::uint64_t now = obs::now_ns();
  if (sh.last_publish_ns != 0) {
    sh.staleness->record(now - sh.last_publish_ns);
  }
  sh.last_publish_ns = now;
  const Graph& g = sh.dfs.graph();
  // Cut structure depends on the back edges too, so a patch-only batch that
  // shares its forest still recomputes it.
  std::shared_ptr<const CutStructure> cuts;
  if (config_.serve_cuts) {
    cuts = std::make_shared<const CutStructure>(find_cuts(g, sh.dfs.parent()));
  }
  std::shared_ptr<const DfsSnapshot::Forest> forest;
  if (forest_unchanged) {
    // Patch-only batch: only num_edges and the version moved. Share the
    // previous snapshot's forest instead of paying three O(n) copies.
    forest = sh.snapshot.load(std::memory_order_relaxed)->forest();
  } else {
    auto fresh = std::make_shared<DfsSnapshot::Forest>();
    fresh->parent.assign(sh.dfs.parent().begin(), sh.dfs.parent().end());
    fresh->alive.assign(g.alive().begin(), g.alive().end());
    // Share the core's freshly rebuilt index: rebuilds swap in a new
    // TreeIndex object rather than mutating this one, so readers may hold
    // it indefinitely and publication stops cloning megabytes per batch.
    fresh->index = sh.dfs.tree_ptr();
    fresh->num_vertices = g.num_vertices();
    forest = std::move(fresh);
  }
  sh.snapshot.store(
      std::make_shared<const DfsSnapshot>(sh.version, sh.updates_applied,
                                          std::move(forest), g.num_edges(),
                                          std::move(cuts)),
      std::memory_order_release);
}

bool ShardRouter::feasible(const Shard& sh, const GraphUpdate& u,
                           BatchDelta& delta) const {
  const Graph& g = sh.dfs.graph();
  const auto alive = [&](Vertex v) {
    if (v < 0 || v >= delta.next_vertex) return false;
    if (delta.dead.contains(v)) return false;
    if (v < g.capacity()) return g.is_alive(v);
    return true;  // assigned by an earlier insert of this batch
  };
  const auto has_edge = [&](Vertex a, Vertex b) {
    const auto it = delta.edges.find(undirected_key(a, b));
    if (it != delta.edges.end()) return it->second;
    return g.has_edge(a, b);  // total: range-checked via liveness
  };
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      if (u.u == u.v || !alive(u.u) || !alive(u.v) || has_edge(u.u, u.v)) {
        return false;
      }
      delta.edges[undirected_key(u.u, u.v)] = true;
      return true;
    case GraphUpdate::Kind::kDeleteEdge:
      if (u.u == u.v || !alive(u.u) || !alive(u.v) || !has_edge(u.u, u.v)) {
        return false;
      }
      delta.edges[undirected_key(u.u, u.v)] = false;
      return true;
    case GraphUpdate::Kind::kInsertVertex: {
      for (const Vertex n : u.neighbors) {
        if (!alive(n)) return false;
      }
      for (std::size_t i = 0; i < u.neighbors.size(); ++i) {
        for (std::size_t j = i + 1; j < u.neighbors.size(); ++j) {
          if (u.neighbors[i] == u.neighbors[j]) return false;
        }
      }
      // Record the incident edges the insert creates: later updates of the
      // same batch may legitimately reference them.
      for (const Vertex n : u.neighbors) {
        delta.edges[undirected_key(delta.next_vertex, n)] = true;
      }
      ++delta.next_vertex;
      return true;
    }
    case GraphUpdate::Kind::kDeleteVertex:
      if (!alive(u.u)) return false;
      delta.dead.insert(u.u);
      return true;
  }
  return false;
}

bool ShardRouter::is_local(const Shard& sh, const GraphUpdate& u) const {
  if (shards_.size() == 1) return true;
  const auto self = static_cast<std::int32_t>(sh.id);
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge: {
      const std::int32_t su = directory_->get(u.u);
      const std::int32_t sv = directory_->get(u.v);
      // An endpoint the directory has never seen makes the op infeasible no
      // matter where it runs: classify local so this shard's feasibility
      // filter rejects it, exactly like the unsharded service would.
      if (su < 0 || sv < 0) return true;
      return su == self && sv == self;
    }
    case GraphUpdate::Kind::kInsertVertex: {
      for (const Vertex nb : u.neighbors) {
        if (directory_->get(nb) < 0) return true;  // infeasible: local reject
      }
      for (const Vertex nb : u.neighbors) {
        if (directory_->get(nb) != self) return false;
      }
      return true;  // includes isolated inserts (no neighbors)
    }
    case GraphUpdate::Kind::kDeleteVertex: {
      const std::int32_t s = directory_->get(u.u);
      return s < 0 || s == self;
    }
  }
  return true;
}

void ShardRouter::writer_loop(Shard& sh) {
  // The writer owns a recoverable failure domain: any PARDFS_CHECK its
  // frames trip throws InvariantViolation instead of aborting the process;
  // the catch below turns it (and injected faults) into shard poisoning +
  // journal-replay recovery (DESIGN.md §13).
  const ScopedRecoverableChecks recoverable;
  std::vector<PendingUpdate> pending;
  std::vector<PendingUpdate*> run;
  try {
    for (;;) {
      sh.heartbeat_ns.store(mono_ns(), std::memory_order_release);
      {
        std::unique_lock lock(control_mu_);
        control_cv_.wait(lock, [&] { return !paused_ || stopped_; });
      }
      pending.clear();
      std::size_t cap = config_.max_batch;
      if (cap == 0) {
        // The epoch period moves on rebases; merges mutate the engine from
        // other writers, so even this read takes the (uncontended) lock.
        std::lock_guard lock(sh.mu);
        cap = sh.dfs.epoch_period();
      }
      {
        // The span covers the blocking wait for work — idle gaps show up as
        // long drain spans in the trace, not as holes.
        const obs::Span drain_span("drain");
        if (!sh.queue.drain(pending, cap)) break;  // closed and fully drained
      }
      {
        // pause() may have landed while drain() was blocked on an empty queue:
        // drained updates are held, un-applied, until resume (or stop).
        std::unique_lock lock(control_mu_);
        control_cv_.wait(lock, [&] { return !paused_ || stopped_; });
      }
      // Cancellation point: a poison injected by inject_writer_failure() or
      // a fence raised by the watchdog (stalled heartbeat) becomes a crash
      // here, while nothing is half-applied — the drained updates are not
      // journaled yet, so the catch block acks them all kRetryable.
      sh.heartbeat_ns.store(mono_ns(), std::memory_order_release);
      sh.busy.store(true, std::memory_order_release);
      if (sh.poison.exchange(false)) {
        throw chaos::InjectedCrash("injected writer failure");
      }
      if (sh.fenced.load(std::memory_order_acquire)) {
        throw chaos::InjectedCrash("writer fenced by watchdog after stall");
      }
      // Queue-wait phase (submit -> drain) per update, plus the two service
      // gauges: how much is still queued and how much this drain coalesced.
      if (obs::metrics_enabled()) {
        const std::uint64_t drained_at = obs::now_ns();
        for (const PendingUpdate& p : pending) {
          if (p.enqueue_ns != 0) sh.queue_wait->record(drained_at - p.enqueue_ns);
        }
      }
      sh.depth_gauge->set(static_cast<std::int64_t>(sh.queue.size()));
      sh.coalesce_gauge->set(static_cast<std::int64_t>(pending.size()));

      // Segment the drained FIFO into maximal runs of locally-resolving ops
      // (batched through the ported single-writer path) interleaved with
      // specials (merges / ops whose component migrated away after routing).
      // Classification happens under the engine lock: directory entries
      // pointing at this shard cannot change while it is held, so an op
      // classified local stays local through its apply.
      std::size_t i = 0;
      while (i < pending.size()) {
        // Re-stamp between runs and specials: a large drained batch can
        // legitimately process for longer than stall_timeout_ms, and the
        // watchdog must fence actual stalls, not long healthy batches. (An
        // injected batch_stall_ms still fences — the stall loop never
        // reaches this stamp.)
        sh.heartbeat_ns.store(mono_ns(), std::memory_order_release);
        std::size_t j = i;
        {
          std::lock_guard lock(sh.mu);
          while (j < pending.size() && is_local(sh, pending[j].update)) ++j;
          if (j > i) {
            run.clear();
            for (std::size_t k = i; k < j; ++k) run.push_back(&pending[k]);
            ack_locked(sh, sh, apply_locked(sh, sh, run));
          }
        }
        if (j == i) {
          process_special(sh, pending[i]);
          ++i;
        } else {
          i = j;
        }
      }
      sh.busy.store(false, std::memory_order_release);
    }
  } catch (const std::exception& e) {
    writer_crashed(sh, pending, e.what());
  }
}

void ShardRouter::writer_crashed(Shard& sh, std::vector<PendingUpdate>& pending,
                                 const char* what) {
  // Runs in the writer's catch block with every lock released by the unwind.
  // Tickets of the journaled-but-unacked batch (wal_pending) are durable —
  // recovery will ack them from the replay; everything else this writer had
  // drained was never accepted and acks kRetryable now.
  std::vector<UpdateTicket> journaled;
  {
    std::lock_guard lock(sh.mu);
    if (sh.wal_pending.has_value()) journaled = sh.wal_pending->tickets;
  }
  for (PendingUpdate& p : pending) {
    if (p.ticket.done()) continue;
    bool in_wal = false;
    for (const UpdateTicket& t : journaled) {
      if (p.ticket.same_ticket(t)) {
        in_wal = true;
        break;
      }
    }
    if (!in_wal && p.ticket.try_ack(UpdateTicket::kRetryable)) {
      sh.retryable_acks.fetch_add(1, std::memory_order_relaxed);
      retryable_counter().add();
    }
  }
  std::fprintf(stderr,
               "pardfs: shard %zu writer crashed: %s (%s)\n", sh.id, what,
               sh.journal != nullptr ? "journal-replay recovery pending"
                                     : "no journal: degrading to reads-only");
  sh.busy.store(false, std::memory_order_release);
  // Last: the crashed flag is what the watchdog acts on, and it must find
  // the retryable sweep already done when it joins this thread.
  sh.crashed.store(true, std::memory_order_release);
}

ShardRouter::Applied ShardRouter::apply_locked(
    Shard& target, Shard& gateway, std::span<PendingUpdate* const> run) {
  const bool has_insert =
      std::any_of(run.begin(), run.end(), [](const PendingUpdate* p) {
        return p->update.kind == GraphUpdate::Kind::kInsertVertex;
      });
  // Vertex inserts assign from the global id space: hold the id lock
  // (innermost) across feasibility + apply so the assigned ids are exactly
  // the ones a single-shard run would hand out. pad_capacity aligns the
  // shard's graph so add_vertex lands on global_next_ (a no-op at S == 1).
  std::unique_lock<std::mutex> id_lock;
  BatchDelta delta;
  if (has_insert) {
    id_lock = std::unique_lock(id_mu_);
    // The pad is journaled even if every insert then fails feasibility: the
    // live engine's capacity moved, so replay's must too (§13: the journal
    // mirrors every engine mutation, not every accepted update).
    if (target.journal) target.journal->record_pad(global_next_);
    target.dfs.pad_capacity(global_next_);
    delta.next_vertex = global_next_;
  } else {
    delta.next_vertex = target.dfs.graph().capacity();
  }

  Applied out;
  std::vector<GraphUpdate> batch;
  std::vector<UpdateTicket> rejected;
  for (PendingUpdate* p : run) {
    if (feasible(target, p->update, delta)) {
      batch.push_back(std::move(p->update));
      out.tickets.push_back(p->ticket);
      out.enqueue_ns.push_back(p->enqueue_ns);
    } else {
      rejected.push_back(p->ticket);
      infeasible_counter().add();
    }
  }
  // Rejects resolve now, before any faultable code: a crash below must not
  // sweep them up as kRetryable (a retry could land on a state where they
  // have become feasible).
  if (!rejected.empty()) {
    {
      std::lock_guard lock(control_mu_);
      target.stats.updates_rejected += rejected.size();
    }
    for (const UpdateTicket& t : rejected) t.ack(UpdateTicket::kRejected);
  }
  if (batch.empty()) return out;

  if (config_.enable_chaos) chaos_stall(target, gateway);
  // WAL point: acceptance == journaled. The batch, its version and its
  // tickets are recorded before apply; a crash from here on recovers by
  // replay and acks these tickets with that version (exactly-once via
  // try_ack). There is deliberately no faultable code between the two
  // statements below.
  if (target.journal) {
    target.journal->record_apply(batch, target.version + 1,
                                 target.updates_applied + batch.size());
    Shard::WalPending wal;
    wal.tickets = out.tickets;
    wal.kinds.reserve(batch.size());
    for (const GraphUpdate& u : batch) wal.kinds.push_back(u.kind);
    wal.version = target.version + 1;
    target.wal_pending = std::move(wal);
  }
  // Reserve the assigned ids at the WAL point, not after the apply: the
  // record above holds inserts whose ids start at the old global_next_, so
  // the allocator must advance before any faultable code. A crash in the
  // apply below then cannot let another shard hand out the journaled ids
  // during the window before replay (which would ack the same id to two
  // clients). delta.next_vertex is exactly the capacity this batch leaves
  // behind: the pad to global_next_ plus one id per accepted insert.
  if (has_insert) global_next_ = delta.next_vertex;
  if (config_.enable_chaos) {
    chaos_site(static_cast<int>(chaos::FaultPoint::kWriterCrashMidBatch),
               target);
  }
  BatchStats batch_stats;
  {
    const obs::Span apply_span("apply_batch");
    batch_stats = target.dfs.apply_batch(batch);
  }
  if (config_.enable_chaos) {
    chaos_site(static_cast<int>(chaos::FaultPoint::kIndexRebuildThrow),
               target);
  }
  target.updates_applied += batch.size();
  out.version = ++target.version;
  for (const Vertex v : batch_stats.new_vertices) {
    directory_->set(v, static_cast<std::int32_t>(target.id));
  }
  publish(target, /*forest_unchanged=*/batch_stats.structural == 0);
  if (id_lock.owns_lock()) id_lock.unlock();
  batches_counter().add();
  applied_counter().add(batch.size());
  published_counter().add();

  std::size_t next_new_vertex = 0;
  for (const GraphUpdate& u : batch) {
    out.assigned.push_back(u.kind == GraphUpdate::Kind::kInsertVertex
                               ? batch_stats.new_vertices[next_new_vertex++]
                               : kNullVertex);
  }
  std::lock_guard lock(control_mu_);
  ServiceStats& st = target.stats;
  ++st.batches;
  ++st.snapshots_published;
  st.updates_applied += batch.size();
  st.max_batch = std::max<std::uint64_t>(st.max_batch, batch.size());
  st.structural += batch_stats.structural;
  st.back_edges += batch_stats.back_edges;
  st.segments += batch_stats.segments;
  st.index_rebuilds += batch_stats.index_rebuilds;
  st.base_rebuilds += batch_stats.base_rebuilds;
  return out;
}

void ShardRouter::ack_locked(Shard& target, Shard& gateway,
                             const Applied& applied) {
  // The publish and every stats bump precede the acks, so a wait()er's
  // snapshot and stats() already reflect its update.
  const std::uint64_t acked_at =
      obs::metrics_enabled() && !applied.tickets.empty() ? obs::now_ns() : 0;
  for (std::size_t i = 0; i < applied.tickets.size(); ++i) {
    applied.tickets[i].ack(applied.version, applied.assigned[i]);
    if (acked_at != 0 && applied.enqueue_ns[i] != 0) {
      gateway.ack_latency->record(acked_at - applied.enqueue_ns[i]);
    }
  }
  target.wal_pending.reset();
  maybe_checkpoint_locked(target);
}

void ShardRouter::process_special(Shard& sh, PendingUpdate& p) {
  const GraphUpdate& u = p.update;
  std::vector<Vertex> endpoints;
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge:
      endpoints = {u.u, u.v};
      break;
    case GraphUpdate::Kind::kInsertVertex:
      endpoints = u.neighbors;
      break;
    case GraphUpdate::Kind::kDeleteVertex:
      endpoints = {u.u};
      break;
  }

  const auto reject = [&] {
    {
      std::lock_guard lock(control_mu_);
      ++sh.stats.updates_rejected;
    }
    infeasible_counter().add();
    p.ticket.ack(UpdateTicket::kRejected);
  };
  const auto retryable = [&] {
    if (p.ticket.try_ack(UpdateTicket::kRetryable)) {
      sh.retryable_acks.fetch_add(1, std::memory_order_relaxed);
      retryable_counter().add();
    }
  };

  // Lock-coupling retry: resolve -> lock involved shards ascending ->
  // re-verify. A directory entry pointing at a shard can only change while
  // that shard's engine lock is held, so once every resolved entry survives
  // verification under the locks, it is pinned for the protocol's duration.
  for (;;) {
    std::vector<std::int32_t> dirs;
    dirs.reserve(endpoints.size());
    std::vector<std::size_t> involved;
    for (const Vertex v : endpoints) {
      const std::int32_t d = directory_->get(v);
      if (d < 0) {
        reject();  // an endpoint that never existed: infeasible everywhere
        return;
      }
      dirs.push_back(d);
      involved.push_back(static_cast<std::size_t>(d));
    }
    std::sort(involved.begin(), involved.end());
    involved.erase(std::unique(involved.begin(), involved.end()),
                   involved.end());

    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(involved.size());
    for (const std::size_t s : involved) {
      locks.emplace_back(shards_[s]->mu);
    }
    bool stable = true;
    for (std::size_t k = 0; k < endpoints.size(); ++k) {
      if (directory_->get(endpoints[k]) != dirs[k]) {
        stable = false;
        break;
      }
    }
    if (!stable) continue;  // locks drop; a migration raced us — re-resolve

    // A crashed shard's engine is poisoned state: nothing may touch it until
    // recovery has replayed its journal. kRetryable (rather than blocking on
    // the watchdog) keeps this queue draining; the client resubmits after
    // the failover.
    for (const std::size_t s : involved) {
      if (shards_[s]->crashed.load(std::memory_order_acquire)) {
        retryable();
        return;
      }
    }

    // Crash handling for everything below: the gateway writer survives a
    // remote/merge crash — the engines it may have damaged are replayed
    // here, inline, while their locks are still held (their own writers are
    // alive, so the watchdog could never join them), in the order given
    // (winner first, so the directory flips to it before any loser
    // republishes without the migrated component). A shard whose replay
    // fails degrades to reads-only: its live writer is poisoned, so the next
    // work it drains converts to a crash and flushes kRetryable.
    const auto recover_inline = [&](std::span<const std::size_t> damaged,
                                    const char* what) {
      std::fprintf(stderr,
                   "pardfs: special op on shard %zu crashed: %s; replaying "
                   "%zu shard(s) inline\n",
                   sh.id, what, damaged.size());
      for (const std::size_t s : damaged) {
        Shard& d = *shards_[s];
        try {
          recover_shard_locked(d);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "pardfs: inline recovery of shard %zu failed: %s\n", s,
                       e.what());
          d.poison.store(true, std::memory_order_release);
          abandon_shard_locked(d);
        }
      }
    };

    PendingUpdate* const run[] = {&p};
    if (involved.size() == 1) {
      // The whole op resolves into one shard (it migrated after routing, or
      // a concurrent merge co-located the endpoints): single-op run there.
      Shard& target = *shards_[involved[0]];
      try {
        ack_locked(target, sh, apply_locked(target, sh, run));
      } catch (const std::exception& e) {
        recover_inline(involved, e.what());
        retryable();
      }
      return;
    }

    // Endpoints span shards. Components are shard-disjoint, so an existing
    // edge can never span shards: a cross-shard delete is infeasible.
    if (u.kind == GraphUpdate::Kind::kDeleteEdge) {
      reject();
      return;
    }
    // Feasibility against each endpoint's own shard, before anything
    // migrates (apply_locked re-checks on the winner once co-located).
    for (std::size_t k = 0; k < endpoints.size(); ++k) {
      const bool dup =
          std::find(endpoints.begin(), endpoints.begin() + k, endpoints[k]) !=
          endpoints.begin() + k;
      if (dup || !shards_[static_cast<std::size_t>(dirs[k])]
                      ->dfs.graph()
                      .is_alive(endpoints[k])) {
        reject();
        return;
      }
    }

    // Winner: the shard owning the largest involved component (tie: lower
    // shard id) — the smaller components migrate. Placement only; the forest
    // content is identical whichever shard hosts the merged component.
    std::size_t winner = involved[0];
    std::int32_t best_size = -1;
    for (std::size_t k = 0; k < endpoints.size(); ++k) {
      const auto s = static_cast<std::size_t>(dirs[k]);
      Shard& cand = *shards_[s];
      const Vertex root = cand.dfs.root_of(endpoints[k]);
      const std::int32_t size = cand.dfs.tree().size(root);
      if (size > best_size || (size == best_size && s < winner)) {
        best_size = size;
        winner = s;
      }
    }
    Shard& w = *shards_[winner];

    // Until every migration is journaled on both sides a crash may leave any
    // involved engine half-mutated; from then on only the winner's.
    std::vector<std::size_t> damaged{winner};
    for (const std::size_t s : involved) {
      if (s != winner) damaged.push_back(s);
    }
    std::vector<Vertex> migrated;
    std::set<std::size_t> losers;
    std::uint64_t migrations = 0;
    bool losers_pending = false;
    // The losers' half of the publication order (winner publish ->
    // directory flip -> losers): each drops the migrated component with one
    // version bump, whatever number of components left it.
    const auto republish_losers = [&] {
      for (const std::size_t ls : losers) {
        ++shards_[ls]->version;
        publish(*shards_[ls], /*forest_unchanged=*/false);
      }
      published_counter().add(losers.size());
      losers_pending = false;
    };

    try {
      // Migrate every involved component not already living in the winner:
      // verbatim row transplant, deduplicated by (shard, root) — several
      // endpoints may share a component.
      std::set<std::pair<std::size_t, Vertex>> seen;
      for (std::size_t k = 0; k < endpoints.size(); ++k) {
        const auto s = static_cast<std::size_t>(dirs[k]);
        if (s == winner) continue;
        Shard& loser = *shards_[s];
        const Vertex root = loser.dfs.root_of(endpoints[k]);
        if (!seen.insert({s, root}).second) continue;
        DynamicDfs::ComponentTransfer t =
            loser.dfs.extract_component(endpoints[k]);
        // Journal both halves back-to-back with no faultable code between:
        // crashes in this design are C++ exceptions, so the two records are
        // atomic — replay sees the migration on both sides or on neither.
        // The loser's version_after is its single post-merge bump.
        if (loser.journal) {
          loser.journal->record_extract(endpoints[k], loser.version + 1);
        }
        if (w.journal) w.journal->record_adopt(t);
        migrated.insert(migrated.end(), t.vertices.begin(), t.vertices.end());
        w.dfs.adopt_component(std::move(t));
        ++migrations;
        losers.insert(s);
      }
      damaged.resize(1);
      losers_pending = true;
      // Count the merge now: whichever path resolves the ticket (ack_locked
      // below, or the winner's replay after a crash), stats() shows it first.
      {
        std::lock_guard lock(control_mu_);
        for (const std::size_t ls : losers) {
          ++shards_[ls]->stats.snapshots_published;
        }
        ++sh.stats.cross_shard_inserts;
        sh.stats.shard_migrations += migrations;
      }
      cross_shard_counter().add();
      migrations_counter().add(migrations);

      if (config_.enable_chaos) {
        chaos_site(static_cast<int>(chaos::FaultPoint::kMergeAbort), w);
      }
      // Everything is co-located now: the op is an ordinary one-op run on
      // the winner, which publishes before the directory flips so readers
      // resolving mid-protocol land on a snapshot that still answers.
      const Applied applied = apply_locked(w, sh, run);
      for (const Vertex mv : migrated) {
        directory_->set(mv, static_cast<std::int32_t>(winner));
      }
      republish_losers();
      ack_locked(w, sh, applied);
      for (const std::size_t ls : losers) maybe_checkpoint_locked(*shards_[ls]);
    } catch (const std::exception& e) {
      recover_inline(damaged, e.what());
      // The winner's replay has flipped the directory (and acked a journaled
      // op): the losers still owe their republish.
      if (losers_pending) republish_losers();
      retryable();
    }
    return;
  }
}

// ---- supervision (DESIGN.md §13) -------------------------------------------

void ShardRouter::inject_writer_failure(std::size_t shard) {
  shards_[shard]->poison.store(true, std::memory_order_release);
}

// Chaos helpers. Both are called only when config_.enable_chaos is set, and
// compile down to a locked no-op lookup unless PARDFS_ENABLE_CHAOS is on.
void ShardRouter::chaos_site(int point, Shard& target) {
  const chaos::FaultAction a =
      chaos::hit(static_cast<chaos::FaultPoint>(point), target.id);
  switch (a.kind) {
    case chaos::FaultAction::Kind::kCrash:
      throw chaos::InjectedCrash(std::string("chaos: ") +
                                 chaos::point_name(
                                     static_cast<chaos::FaultPoint>(point)));
    case chaos::FaultAction::Kind::kThrow:
      throw chaos::InjectedCrash("chaos: index rebuild failed");
    default:
      return;
  }
}

// batch_stall_ms: sleep in slices, checking for the watchdog's fence (and
// shutdown) between slices — a stalled-then-fenced writer converts to a
// crash, which the journal makes lossless.
void ShardRouter::chaos_stall(Shard& target, Shard& gateway) {
  const chaos::FaultAction a =
      chaos::hit(chaos::FaultPoint::kBatchStallMs, target.id);
  if (a.kind != chaos::FaultAction::Kind::kStall) return;
  const std::uint64_t end = mono_ns() + std::uint64_t{a.param} * 1000000ULL;
  while (mono_ns() < end) {
    if (gateway.fenced.load(std::memory_order_acquire)) {
      throw chaos::InjectedCrash("chaos: stalled writer fenced");
    }
    {
      std::lock_guard lock(control_mu_);
      if (stopped_) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ShardRouter::watchdog_loop() {
  // Replays run on this thread; engine checks tripped during them must
  // throw (and be caught below), not abort.
  const ScopedRecoverableChecks recoverable;
  for (;;) {
    {
      std::unique_lock lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock,
                            std::chrono::milliseconds(config_.watchdog_poll_ms),
                            [&] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (sh.unrecoverable.load(std::memory_order_acquire)) continue;
      if (sh.crashed.load(std::memory_order_acquire)) {
        try {
          recover_shard(sh, /*respawn=*/true);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "pardfs: recovery of shard %zu failed: %s; shard "
                       "degrades to reads-only\n",
                       sh.id, e.what());
          abandon_shard(sh);
        }
        continue;
      }
      // Stall detection: busy (a drained batch is processing) with a
      // heartbeat older than the bound. The fence is advisory — the writer
      // converts it to a crash at its next cancellation point; a thread
      // truly stuck in a syscall cannot be reclaimed portably, but its shard
      // keeps serving reads regardless.
      if (config_.stall_timeout_ms != 0 &&
          sh.busy.load(std::memory_order_acquire)) {
        const std::uint64_t hb = sh.heartbeat_ns.load(std::memory_order_acquire);
        if (hb != 0 &&
            mono_ns() - hb >
                std::uint64_t{config_.stall_timeout_ms} * 1000000ULL &&
            !sh.fenced.exchange(true, std::memory_order_acq_rel)) {
          stalls_counter().add();
        }
      }
    }
  }
}

void ShardRouter::recover_shard(Shard& sh, bool respawn) {
  // Callable from the watchdog or from stop() (a user thread): either way
  // the replay is a recoverable failure domain, not an abort.
  const ScopedRecoverableChecks recoverable;
  // The crashed writer has set sh.crashed as its last act; join reclaims the
  // thread object so a fresh writer can take its place.
  if (sh.writer.joinable()) sh.writer.join();
  {
    std::lock_guard lock(sh.mu);
    recover_shard_locked(sh);
  }
  bool respawn_now = respawn;
  {
    std::lock_guard lock(control_mu_);
    if (stopped_) respawn_now = false;
    if (respawn_now) {
      // Under control_mu_ so this assignment cannot race stop()'s join loop:
      // stop() joins the watchdog (us) before touching writer threads, and
      // once it has set stopped_ we never assign again.
      sh.writer = std::thread([this, shard = &sh] { writer_loop(*shard); });
    }
  }
}

void ShardRouter::maybe_checkpoint_locked(Shard& sh) {
  if (sh.journal == nullptr || config_.journal_checkpoint_entries == 0) return;
  if (sh.wal_pending.has_value()) return;  // journal ahead of the engine
  if (sh.journal->entries() < config_.journal_checkpoint_entries) return;
  sh.journal->checkpoint(sh.dfs.graph(), sh.dfs.parent(), sh.version,
                         sh.updates_applied);
  checkpoints_counter().add();
}

void ShardRouter::abandon_shard(Shard& sh) {
  std::lock_guard lock(sh.mu);
  abandon_shard_locked(sh);
}

void ShardRouter::abandon_shard_locked(Shard& sh) {
  sh.unrecoverable.store(true, std::memory_order_release);
  if (sh.wal_pending.has_value()) {
    for (const UpdateTicket& t : sh.wal_pending->tickets) {
      if (t.try_ack(UpdateTicket::kRetryable)) {
        sh.retryable_acks.fetch_add(1, std::memory_order_relaxed);
        retryable_counter().add();
      }
    }
    sh.wal_pending.reset();
  }
}

void ShardRouter::recover_shard_locked(Shard& sh) {
  if (sh.journal == nullptr) {
    // No journal, no replay: the shard stays degraded (reads keep serving
    // the last published snapshot; its queue is flushed kRetryable at
    // stop()). Clearing crashed would invite writers onto a damaged engine.
    throw InvariantViolation("shard has no journal to replay");
  }
  const std::uint64_t t0 = mono_ns();
  UpdateJournal::ReplayResult r = sh.journal->replay();
  // Updates the replay applied beyond the live engine's count: the journaled
  // batch a crash cut short. Their tickets resolve below, so stats() counts
  // them first, like any batch.
  const std::uint64_t replayed = r.updates_applied - sh.updates_applied;
  // Swap the damaged engine for the replayed twin. Determinism (§12) makes
  // the replacement byte-identical to the engine a crash-free history would
  // have produced; snapshots sharing state with the old engine keep it alive
  // via shared_ptr until their readers drop them.
  sh.dfs = std::move(r.engine);
  sh.version = r.version;
  sh.updates_applied = r.updates_applied;
  // Re-point the directory at everything alive here. This both repairs a
  // merge interrupted between journal record and directory flip (migrated
  // vertices resolve to the winner as soon as it republishes) and is a no-op
  // for entries that already point here. Entries for ids that died on this
  // shard keep pointing here, preserving query totality.
  const Graph& g = sh.dfs.graph();
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (g.is_alive(v)) directory_->set(v, static_cast<std::int32_t>(sh.id));
  }
  {
    // Ids are reserved at the WAL point, so every journaled insert's id is
    // already below global_next_ and this is a no-op; kept as a defensive
    // floor in case the id space ever lags a replayed capacity.
    std::lock_guard id_lock(id_mu_);
    global_next_ = std::max(global_next_, g.capacity());
  }
  publish(sh, /*forest_unchanged=*/false);
  {
    std::lock_guard lock(control_mu_);
    ++sh.stats.snapshots_published;
    ++sh.stats.recoveries;
    if (replayed != 0) {
      const BatchStats& b = r.last_batch;
      ++sh.stats.batches;
      sh.stats.updates_applied += replayed;
      sh.stats.structural += b.structural;
      sh.stats.back_edges += b.back_edges;
      sh.stats.segments += b.segments;
      sh.stats.index_rebuilds += b.index_rebuilds;
      sh.stats.base_rebuilds += b.base_rebuilds;
    }
  }
  if (replayed != 0) {
    batches_counter().add();
    applied_counter().add(replayed);
  }
  published_counter().add();
  recoveries_counter().add();
  recovery_latency_hist().record(mono_ns() - t0);
  // WAL acks: the journaled-but-unacked batch was replayed above, so its
  // tickets resolve to the recorded version (with the replayed insert ids).
  // try_ack keeps this exactly-once against the crash-time kRetryable sweep.
  if (sh.wal_pending.has_value()) {
    std::size_t next_new_vertex = 0;
    for (std::size_t i = 0; i < sh.wal_pending->tickets.size(); ++i) {
      Vertex assigned = kNullVertex;
      if (sh.wal_pending->kinds[i] == GraphUpdate::Kind::kInsertVertex &&
          next_new_vertex < r.last_batch.new_vertices.size()) {
        assigned = r.last_batch.new_vertices[next_new_vertex++];
      }
      sh.wal_pending->tickets[i].try_ack(sh.wal_pending->version, assigned);
    }
    sh.wal_pending.reset();
  }
  sh.fenced.store(false, std::memory_order_release);
  sh.poison.store(false, std::memory_order_release);
  sh.crashed.store(false, std::memory_order_release);
  // A long journal just replayed in full: truncate it now so a repeated
  // crash replays only from here, not from genesis again.
  maybe_checkpoint_locked(sh);
}

// ---- RouterView ------------------------------------------------------------

SnapshotPtr RouterView::snapshot_of(Vertex v) const {
  const int s = router_->shard_of(v);
  return s < 0 ? nullptr : router_->shard_snapshot(static_cast<std::size_t>(s));
}

bool RouterView::contains(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr && snap->contains(v);
}

Vertex RouterView::parent_of(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->parent_of(v) : kNullVertex;
}

Vertex RouterView::root_of(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->root_of(v) : kNullVertex;
}

std::int32_t RouterView::depth(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->depth(v) : -1;
}

std::int32_t RouterView::subtree_size(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->subtree_size(v) : 0;
}

bool RouterView::is_ancestor(Vertex a, Vertex d) const {
  const int sa = router_->shard_of(a);
  const int sd = router_->shard_of(d);
  // Different shards own different components: no ancestry across them.
  if (sa < 0 || sa != sd) return false;
  return router_->shard_snapshot(static_cast<std::size_t>(sa))
      ->is_ancestor(a, d);
}

Vertex RouterView::lca(Vertex u, Vertex v) const {
  const int su = router_->shard_of(u);
  const int sv = router_->shard_of(v);
  if (su < 0 || su != sv) return kNullVertex;
  return router_->shard_snapshot(static_cast<std::size_t>(su))->lca(u, v);
}

bool RouterView::same_component(Vertex u, Vertex v) const {
  const int su = router_->shard_of(u);
  const int sv = router_->shard_of(v);
  if (su < 0 || su != sv) return false;
  return router_->shard_snapshot(static_cast<std::size_t>(su))
      ->same_component(u, v);
}

std::vector<Vertex> RouterView::path_to_root(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->path_to_root(v) : std::vector<Vertex>{};
}

bool RouterView::is_articulation(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr && snap->is_articulation(v);
}

bool RouterView::is_bridge(Vertex u, Vertex v) const {
  const int su = router_->shard_of(u);
  const int sv = router_->shard_of(v);
  if (su < 0 || su != sv) return false;
  return router_->shard_snapshot(static_cast<std::size_t>(su))->is_bridge(u, v);
}

std::vector<Edge> RouterView::bridges() const {
  std::vector<Edge> out;
  for (std::size_t s = 0; s < router_->num_shards(); ++s) {
    const auto span = router_->shard_snapshot(s)->bridges();
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

}  // namespace pardfs::service
