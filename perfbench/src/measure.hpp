// Timing vocabulary of the benchmark: in-memory spans recorded around calls
// into the service's layers, order statistics over samples, and the named
// metric table a run prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Exact order statistic (nearest rank) of `v`; reorders `v`. 0 when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// What a span timed. Every span of one update carries that update's id.
enum class SpanKind : std::uint16_t {
  kSetup,          // ShardRouter construction
  kSubmit,         // ShardRouter::submit
  kAckWait,        // UpdateTicket::wait_for after the submit returned
  kSnapshotLoad,   // ShardRouter::shard_snapshot
  kResolve,        // RouterView::snapshot_of
  kQuery,          // one DfsSnapshot query; `arg` is the QueryKind
  kApplyBatch,     // private DynamicDfs::apply_batch (replay leg)
  kApplyBatchT1,   // the same at a team of one
  kIndexBuild,     // TreeIndex::build, kAuto
  kIndexBuildSerial,
  kOracleBuild,    // AdjacencyOracle::build
  kOracleProbe,    // AdjacencyOracle::query_vertex_batch
  kExtract,        // DynamicDfs::extract_component
  kAdopt,          // DynamicDfs::adopt_component
  kCheckpoint,     // UpdateJournal::checkpoint
  kReplay,         // UpdateJournal::replay
  kStaticDfs,      // static_dfs
};
const char* span_name(SpanKind k);

struct Span {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t id = 0;  // update id (client << 32 | index), else 0
  SpanKind kind = SpanKind::kSetup;
  std::uint16_t arg = 0;
  std::uint32_t tid = 0;
  double us() const { return static_cast<double>(t1 - t0) * 1e-3; }
  double ns() const { return static_cast<double>(t1 - t0); }
};

// One thread's spans. Disabled logs record nothing, so the untraced code
// path pays one branch per call site.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t tid) : enabled_(enabled), tid_(tid) {}
  bool enabled() const { return enabled_; }
  void add(SpanKind kind, std::uint64_t t0, std::uint64_t t1,
           std::uint64_t id = 0, std::uint16_t arg = 0) {
    if (enabled_) spans_.push_back({t0, t1, id, kind, arg, tid_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

// Durations (in `unit_ns` units) of every span of `kind` (and `arg`, when
// given) across the logs.
std::vector<double> durations(const std::vector<Span>& spans, SpanKind kind,
                              double unit_ns, int arg = -1);

// Writes the spans as a chrome://tracing JSON array (at most `cap` events,
// spread evenly over the run). False when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t cap);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0 = not a sampled statistic
  std::string module;         // the layer a per-layer metric belongs to
};
using MetricTable = std::map<std::string, Metric>;

// Shortest decimal that round-trips `v`.
std::string format_double(double v);

}  // namespace perfbench
