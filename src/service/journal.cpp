#include "service/journal.hpp"

#include <utility>

namespace pardfs::service {

UpdateJournal::UpdateJournal(Graph genesis, Config config)
    : genesis_(std::move(genesis)), config_(std::move(config)) {}

void UpdateJournal::record_pad(Vertex capacity) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kPad;
  e.vertex = capacity;
  log_.push_back(std::move(e));
}

void UpdateJournal::record_apply(std::span<const GraphUpdate> batch,
                                 std::uint64_t version_after,
                                 std::uint64_t updates_after) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kApply;
  e.batch.assign(batch.begin(), batch.end());
  e.version_after = version_after;
  e.updates_after = updates_after;
  log_.push_back(std::move(e));
}

void UpdateJournal::record_extract(Vertex vertex, std::uint64_t version_after) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kExtract;
  e.vertex = vertex;
  e.version_after = version_after;
  log_.push_back(std::move(e));
}

void UpdateJournal::record_adopt(const DynamicDfs::ComponentTransfer& t) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kAdopt;
  e.transfer = t;
  log_.push_back(std::move(e));
}

void UpdateJournal::checkpoint(const Graph& graph,
                               std::span<const Vertex> parent,
                               std::uint64_t version,
                               std::uint64_t updates_applied) {
  std::lock_guard lock(mu_);
  Checkpoint cp;
  cp.capacity = graph.capacity();
  cp.version = version;
  cp.updates_applied = updates_applied;
  for (Vertex v = 0; v < graph.capacity(); ++v) {
    if (!graph.is_alive(v)) continue;
    cp.state.vertices.push_back(v);
    const auto nb = graph.neighbors(v);
    cp.state.rows.emplace_back(nb.begin(), nb.end());
    cp.state.parent.push_back(parent[static_cast<std::size_t>(v)]);
  }
  checkpoint_ = std::move(cp);
  // The point is bounding memory: release the entry storage and the
  // now-superseded genesis graph, not just empty them.
  log_.clear();
  log_.shrink_to_fit();
  genesis_ = Graph();
}

std::size_t UpdateJournal::entries() const {
  std::lock_guard lock(mu_);
  return log_.size();
}

UpdateJournal::ReplayResult UpdateJournal::replay() const {
  std::lock_guard lock(mu_);
  // Identical construction parameters to the live engine (serial_cutoff is
  // pinned to -1, the value shard_router uses) — determinism (§12) then
  // guarantees the replayed forest is byte-identical. After a checkpoint the
  // base is an empty graph padded to the checkpointed capacity plus one
  // verbatim transplant of every live row, restoring the checkpointed forest
  // exactly as a migration would.
  ReplayResult r = [&] {
    if (checkpoint_.has_value()) {
      Graph base;
      base.pad_to(checkpoint_->capacity);
      ReplayResult out{
          DynamicDfs(std::move(base), RerootStrategy::kPaper, nullptr,
                     config_.num_threads, -1, config_.obs_shard),
          checkpoint_->version, checkpoint_->updates_applied, {}};
      if (!checkpoint_->state.vertices.empty()) {
        out.engine.adopt_component(checkpoint_->state);
      }
      return out;
    }
    return ReplayResult{DynamicDfs(genesis_, RerootStrategy::kPaper, nullptr,
                                   config_.num_threads, -1, config_.obs_shard),
                        1, 0, {}};
  }();
  for (const Entry& e : log_) {
    switch (e.kind) {
      case Entry::Kind::kPad:
        r.engine.pad_capacity(e.vertex);
        break;
      case Entry::Kind::kApply: {
        BatchStats stats = r.engine.apply_batch(e.batch);
        r.version = e.version_after;
        r.updates_applied = e.updates_after;
        r.last_new_vertices = std::move(stats.new_vertices);
        break;
      }
      case Entry::Kind::kExtract:
        (void)r.engine.extract_component(e.vertex);
        r.version = e.version_after;
        break;
      case Entry::Kind::kAdopt:
        r.engine.adopt_component(e.transfer);
        break;
    }
  }
  return r;
}

}  // namespace pardfs::service
