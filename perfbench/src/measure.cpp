#include "measure.hpp"

#include <charconv>
#include <cstdio>

namespace perfbench {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSetup: return "ShardRouter::ShardRouter";
    case SpanKind::kSubmit: return "ShardRouter::submit";
    case SpanKind::kAckWait: return "UpdateTicket::wait_for";
    case SpanKind::kSnapshotLoad: return "ShardRouter::shard_snapshot";
    case SpanKind::kResolve: return "RouterView::snapshot_of";
    case SpanKind::kQuery: return "DfsSnapshot::query";
    case SpanKind::kApplyBatch: return "DynamicDfs::apply_batch";
    case SpanKind::kApplyBatchT1: return "DynamicDfs::apply_batch[t1]";
    case SpanKind::kIndexBuild: return "TreeIndex::build[auto]";
    case SpanKind::kIndexBuildSerial: return "TreeIndex::build[serial]";
    case SpanKind::kOracleBuild: return "AdjacencyOracle::build";
    case SpanKind::kOracleProbe: return "AdjacencyOracle::query_vertex_batch";
    case SpanKind::kExtract: return "DynamicDfs::extract_component";
    case SpanKind::kAdopt: return "DynamicDfs::adopt_component";
    case SpanKind::kCheckpoint: return "UpdateJournal::checkpoint";
    case SpanKind::kReplay: return "UpdateJournal::replay";
    case SpanKind::kStaticDfs: return "static_dfs";
  }
  return "unknown";
}

std::vector<double> durations(const std::vector<Span>& spans, SpanKind kind,
                              double unit_ns, int arg) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.kind == kind && (arg < 0 || s.arg == arg)) out.push_back(s.ns() / unit_ns);
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t cap) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const Span& s : spans) base = std::min(base, s.t0);
  const std::size_t stride = spans.size() > cap ? (spans.size() + cap - 1) / cap : 1;
  std::fputs("[\n", f);
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); i += stride) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"arg\":%u}}",
                 first ? "" : ",\n", span_name(s.kind), s.tid,
                 static_cast<double>(s.t0 - base) * 1e-3, s.us(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned>(s.arg));
    first = false;
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

std::string format_double(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
