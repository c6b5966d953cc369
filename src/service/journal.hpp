// Per-shard write-ahead journal: the recovery half of DESIGN.md §13.
//
// The shard writer records every engine-mutating operation here *before*
// executing it against the live DynamicDfs — batch applies with the version
// they will publish, capacity pads, and both halves of a cross-shard
// component migration. Because the engine is deterministic (§12: same
// operation sequence => byte-identical forest), replay() against a copy of
// the genesis graph reconstructs a DynamicDfs whose parent/alive arrays —
// and therefore whose snapshot chain — are byte-identical to the crashed
// engine's, had it survived. That turns "replay the accepted updates" into a
// provable recovery strategy rather than a best-effort one.
//
// Acceptance == journaled: a batch recorded here is durable within the
// process — if the writer crashes between record and apply, recovery replays
// the journal (which includes the batch) and acks its tickets with the
// recorded version. A batch the crash caught *before* recording was never
// accepted; its tickets ack kRetryable.
//
// The journal is in-memory (it survives writer-thread crashes, the failure
// domain of §13, not process death). Entries are recorded under the shard's
// engine lock, so the log order is exactly the engine's operation order;
// replay() runs on the watchdog thread with the same lock held. The log does
// not grow without bound: checkpoint() periodically captures the engine's
// current state as a new replay base and drops the recorded prefix (see
// ServiceConfig::journal_checkpoint_entries).
#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "graph/graph.hpp"

namespace pardfs::service {

class UpdateJournal {
 public:
  // Mirror of the shard's engine construction parameters: replay must build
  // its DynamicDfs with exactly the configuration of the live one (the
  // paper's strategy, this team cap), or the determinism argument (and the
  // byte-identical guarantee) breaks.
  struct Config {
    int num_threads = 0;
    std::string obs_shard;  // replayed engines feed the same metric series
  };

  UpdateJournal(Graph genesis, Config config);
  UpdateJournal(const UpdateJournal&) = delete;
  UpdateJournal& operator=(const UpdateJournal&) = delete;

  // ---- recording (caller holds the shard's engine lock) --------------------
  // pad_capacity(capacity) is about to run.
  void record_pad(Vertex capacity);
  // apply_batch(batch) is about to run; the shard's version will be
  // `version_after` and its applied-update count `updates_after` once the
  // batch publishes. Recorded *before* the apply: this is the WAL point.
  void record_apply(std::span<const GraphUpdate> batch,
                    std::uint64_t version_after, std::uint64_t updates_after);
  // extract_component(vertex) is about to run (this shard is a merge loser);
  // the loser's version bumps to `version_after` when its snapshot
  // republishes — recorded per extract, the last one wins (a loser bumps
  // once per merge op regardless of how many components leave).
  void record_extract(Vertex vertex, std::uint64_t version_after);
  // adopt_component(t) is about to run (this shard is the merge winner).
  void record_adopt(const DynamicDfs::ComponentTransfer& t);

  // Replaces the replay base with the engine's *current* state — graph,
  // forest (parent rows) and version counters — and drops every recorded
  // entry, bounding journal memory and failover replay time by work since
  // the last checkpoint instead of total history. Caller holds the shard's
  // engine lock with no wal-pending batch, so the journal is exactly in
  // sync with the engine. Determinism survives because replay restores the
  // checkpointed forest verbatim through the same adopt_component row
  // transplant the migration protocol relies on (§12): subsequent entries
  // then apply against byte-identical graph rows and parent entries.
  void checkpoint(const Graph& graph, std::span<const Vertex> parent,
                  std::uint64_t version, std::uint64_t updates_applied);

  std::size_t entries() const;

  struct ReplayResult {
    DynamicDfs engine;
    std::uint64_t version = 1;          // from the last versioned entry
    std::uint64_t updates_applied = 0;  // likewise
    // Ids assigned to kInsertVertex updates of the *last* kApply entry, in
    // batch order — recovery acks that batch's wal-pending tickets with them.
    std::vector<Vertex> last_new_vertices;
  };
  // Re-runs every recorded entry, in order, against a copy of the genesis
  // graph. O(total recorded work); called with the shard poisoned and its
  // engine lock held, so recording cannot interleave.
  ReplayResult replay() const;

 private:
  struct Entry {
    enum class Kind : std::uint8_t { kPad, kApply, kExtract, kAdopt };
    Kind kind;
    // kApply
    std::vector<GraphUpdate> batch;
    std::uint64_t version_after = 0;
    std::uint64_t updates_after = 0;
    // kPad (capacity) / kExtract (vertex)
    Vertex vertex = kNullVertex;
    // kAdopt
    DynamicDfs::ComponentTransfer transfer;
  };

  // Replay base after the first checkpoint: an empty graph padded to
  // `capacity` plus one transfer carrying every live vertex's adjacency and
  // parent rows verbatim (ascending ids). Restoring it via adopt_component
  // reproduces the checkpointed forest byte for byte, the same way
  // migrations do; `genesis_` is released once this takes over.
  struct Checkpoint {
    Vertex capacity = 0;
    DynamicDfs::ComponentTransfer state;
    std::uint64_t version = 1;
    std::uint64_t updates_applied = 0;
  };

  mutable std::mutex mu_;
  Graph genesis_;
  Config config_;
  std::optional<Checkpoint> checkpoint_;
  std::vector<Entry> log_;
};

}  // namespace pardfs::service
