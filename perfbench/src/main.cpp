// perfbench: the repository's end-to-end service benchmark.
//
//   perfbench --workload <update_storm|sharded_sessions>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--out <dir>] [--sha <git sha>] [--stream-hash]
//
// Untraced runs (--trace 0) set the service up several times, drive it for
// --seconds and print the end-to-end metrics. Traced runs split the time
// into an untraced and a traced half (their difference is the tracing
// overhead), then time each layer's public calls on the final state. Both
// end with the correctness gate: every shard's forest is validated, the
// served snapshots must equal the engines' forests, the served vertex and
// edge counts must equal the generator's mirror, every read cross-check
// must hold, and no update may fail. The last stdout line is a JSON object
// with every metric; the process exits 1 when the gate fails.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "inputs.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"
#include "pram/parallel.hpp"
#include "service/shard_router.hpp"
#include "tree/validation.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

using pardfs::Graph;
using pardfs::service::ServiceConfig;
using pardfs::service::ShardRouter;

constexpr int kSetupReps = 21;

struct Options {
  Workload workload = Workload::kUpdateStorm;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool stream_hash = false;
  std::string out = ".bench_results";
  std::string sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <update_storm|"
               "sharded_sessions> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--out <dir>] [--sha <sha>] [--stream-hash]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      if (!parse_workload(value(), &o.workload)) usage("unknown workload");
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      if (!(o.seconds > 0.0 && o.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--stream-hash") {
      o.stream_hash = true;
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--sha") {
      o.sha = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  std::string one, five;
  if (!(f >> one >> five)) return "unknown";
  return one + "/" + five;
}

// Aggregate CPU time counters of /proc/stat: {total, steal}, in ticks.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t total = 0, steal = 0, x = 0;
  if (!(f >> cpu) || cpu != "cpu") return {0, 0};
  for (int i = 0; i < 8 && (f >> x); ++i) {
    total += x;
    if (i == 7) steal = x;
  }
  return {total, steal};
}

// Share of the machine's CPU time the hypervisor gave to other guests
// since `before`: when it is high, the run's wall times are not the code's.
std::string steal_share(std::pair<std::uint64_t, std::uint64_t> before) {
  const auto after = cpu_ticks();
  if (after.first <= before.first) return "unknown";
  return format_double(static_cast<double>(after.second - before.second) /
                       static_cast<double>(after.first - before.first));
}

// Peak resident set of the run: the benchmark's working set, inputs included.
long max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024;
}

// The CPUs the service and its clients run on: the last `count` of the CPUs
// the process may use (WorkloadParams::load_cpus; 0 = all of them).
cpu_set_t load_cpus(const cpu_set_t& allowed, std::size_t count) {
  if (count == 0 || count >= static_cast<std::size_t>(CPU_COUNT(&allowed))) return allowed;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::size_t taken = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && taken < count; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      ++taken;
    }
  }
  return chosen;
}

std::string cpu_list(const cpu_set_t& set) {
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out += (out.empty() ? "" : ",") + std::to_string(c);
  }
  return out;
}

// Run context written into every result, so numbers from different
// machines, builds or thread settings are never compared unknowingly.
std::vector<std::pair<std::string, std::string>> stamp(
    const Options& o, const std::string& load_before,
    std::pair<std::uint64_t, std::uint64_t> ticks_before, const cpu_set_t& load) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return {
      {"git_sha", o.sha},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"engine_team", std::to_string(pardfs::pram::num_threads())},
      {"omp_num_threads", omp != nullptr ? omp : "unset"},
      {"load_cpus", cpu_list(load)},
      {"simd", pardfs::simd::level_name(pardfs::simd::active_level())},
      {"loadavg_before", load_before},
      {"loadavg_after", loadavg()},
      {"cpu_steal_share", steal_share(ticks_before)},
      {"max_rss_mb", std::to_string(max_rss_mb())},
  };
}

ServiceConfig service_config(const Inputs& in) {
  ServiceConfig c;  // the deployment defaults, engine team included
  c.num_shards = in.params.shards;
  return c;
}

// Constructs the router; the constructor returns once every shard's first
// snapshot is published, so its wall time is the set-up time.
std::unique_ptr<ShardRouter> set_up(const Inputs& in, double* seconds, SpanLog* log) {
  Graph g = in.initial;
  const std::uint64_t t0 = now_ns();
  auto router = std::make_unique<ShardRouter>(std::move(g), service_config(in));
  const std::uint64_t t1 = now_ns();
  if (log != nullptr) log->add(SpanKind::kSetup, t0, t1);
  *seconds = static_cast<double>(t1 - t0) * 1e-9;
  return router;
}

// The correctness gate over a stopped router and its load phase.
void gate(const ShardRouter& router, const Inputs& in, const LoadResult& load,
          std::vector<std::string>& violations) {
  for (const std::string& v : load.violations) violations.push_back("read: " + v);
  if (load.failed > 0) {
    violations.push_back(std::to_string(load.failed) + " of " +
                         std::to_string(load.attempted) + " updates failed");
  }
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const pardfs::DynamicDfs& core = router.core(s);
    const pardfs::ValidationResult ok =
        pardfs::validate_dfs_forest(core.graph(), core.parent());
    if (!ok) violations.push_back("shard " + std::to_string(s) + ": " + ok.reason);
    const auto served = router.shard_snapshot(s)->parent();
    if (!std::equal(served.begin(), served.end(), core.parent().begin(),
                    core.parent().end())) {
      violations.push_back("shard " + std::to_string(s) +
                           ": served snapshot differs from the engine's forest");
    }
    vertices += core.graph().num_vertices();
    edges += core.graph().num_edges();
  }
  std::int64_t want_v = in.initial.num_vertices();
  std::int64_t want_e = in.initial.num_edges();
  for (std::size_t w = 0; w < in.writers.size(); ++w) {
    want_v += in.writers[w].vertex_delta[load.consumed[w]];
    want_e += in.writers[w].edge_delta[load.consumed[w]];
  }
  if (vertices != want_v || edges != want_e || router.num_vertices() != want_v ||
      router.num_edges() != want_e) {
    violations.push_back("served graph has " + std::to_string(vertices) + " vertices / " +
                         std::to_string(edges) + " edges, the mirror " +
                         std::to_string(want_v) + " / " + std::to_string(want_e));
  }
}

// The union of every shard's graph, over the global id space.
Graph served_graph(const ShardRouter& router) {
  const Vertex cap = router.capacity();
  Graph g(cap);
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(cap), 0);
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const Graph& sg = router.core(s).graph();
    for (Vertex v = 0; v < sg.capacity(); ++v) {
      if (!sg.is_alive(v)) continue;
      alive[static_cast<std::size_t>(v)] = 1;
      for (Vertex u : sg.neighbors(v)) {
        if (v < u) g.add_edge(v, u);
      }
    }
  }
  for (Vertex v = 0; v < cap; ++v) {
    if (alive[static_cast<std::size_t>(v)] == 0) g.remove_vertex(v);
  }
  return g;
}

void end_to_end(MetricTable& m, const LoadResult& load, std::vector<double> setup_s,
                const pardfs::service::ServiceStats& end) {
  const char* svc = "service/shard_router";
  const auto reps = setup_s.size();
  m["setup_s"] = {quantile(setup_s, 0.5), "s", reps, svc};
  m["update_throughput"] = {static_cast<double>(load.applied) / load.update_seconds, "1/s",
                            load.applied, svc};
  std::vector<double> ack = load.ack_us;
  m["ack_p50_us"] = {quantile(ack, 0.5), "us", ack.size(), svc};
  // update_storm acks come 16 to a window with near-equal latencies, so the
  // p99 of a run rests on its ~4 slowest windows; the p95 has ~20 behind it.
  m["ack_p95_us"] = {quantile(ack, 0.95), "us", ack.size(), svc};
  m["ack_p99_us"] = {quantile(ack, 0.99), "us", ack.size(), svc};
  m["read_qps"] = {static_cast<double>(load.rated_reads) / load.read_seconds, "1/s",
                   load.rated_reads, "service/snapshot"};
  m["failed_share"] = {load.attempted > 0 ? static_cast<double>(load.failed) /
                                                static_cast<double>(load.attempted)
                                          : 0.0,
                       "share", load.attempted, svc};
  if (!load.merge_ack_us.empty()) {
    std::vector<double> merge = load.merge_ack_us;
    m["service.merge_ack_p99_us"] = {quantile(merge, 0.99), "us", merge.size(), svc};
  }
  // Cross-shard inserts per applied update and components migrated per
  // cross-shard insert, in each half of the load: the inputs keep the work
  // mix stationary, so the halves should agree.
  const pardfs::service::ServiceStats& mid = load.mid_stats;
  auto ratio = [&](const std::string& name, std::uint64_t num, std::uint64_t den) {
    if (den > 0 && end.cross_shard_inserts > 0) {
      m[name] = {static_cast<double>(num) / static_cast<double>(den), "count", den, svc};
    }
  };
  for (const bool first : {true, false}) {
    const std::string half = first ? ".first_half" : ".second_half";
    const auto delta = [&](std::uint64_t pardfs::service::ServiceStats::*field) {
      return first ? mid.*field : end.*field - mid.*field;
    };
    using S = pardfs::service::ServiceStats;
    ratio("service.cross_inserts_per_update" + half, delta(&S::cross_shard_inserts),
          delta(&S::updates_applied));
    ratio("service.migrations_per_cross_insert" + half, delta(&S::shard_migrations),
          delta(&S::cross_shard_inserts));
  }
}

// Sum and count of every series of a histogram family whose labels contain
// `label` (the service labels series by shard when it has several).
void histogram_family(const char* name, const char* label, double* sum,
                      std::uint64_t* count) {
  *sum = 0.0;
  *count = 0;
  for (const pardfs::obs::Histogram* h : pardfs::obs::Registry::global().histograms()) {
    if (h->name() == name && h->labels().find(label) != std::string::npos) {
      *sum += h->sum();
      *count += h->count();
    }
  }
}

std::uint64_t counter_family(const char* name) {
  std::uint64_t total = 0;
  for (const pardfs::obs::Counter* c : pardfs::obs::Registry::global().counters()) {
    if (c->name() == name) total += c->value();
  }
  return total;
}

// Per-layer metrics of the traced load half: client-side spans, plus the
// service's own phase histograms and stats.
void traced_load_metrics(MetricTable& m, const LoadResult& load, const ShardRouter& router) {
  const char* svc = "service/shard_router";
  auto median_of = [&](const char* name, SpanKind kind, double unit_ns, const char* unit,
                       const char* module, int arg = -1) {
    std::vector<double> d = durations(load.spans, kind, unit_ns, arg);
    m[name] = {quantile(d, 0.5), unit, d.size(), module};
  };
  median_of("service.submit_us", SpanKind::kSubmit, 1e3, "us", svc);
  median_of("service.ack_wait_us", SpanKind::kAckWait, 1e3, "us", svc);
  median_of("snapshot.load_ns", SpanKind::kSnapshotLoad, 1.0, "ns", "service/snapshot");
  median_of("router.resolve_ns", SpanKind::kResolve, 1.0, "ns", "service/shard_router");
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const std::string name =
        std::string("snapshot.query_ns.") + query_kind_name(static_cast<QueryKind>(k));
    median_of(name.c_str(), SpanKind::kQuery, 1.0, "ns",
              k == kLca ? "tree/lca" : "service/snapshot", k);
  }
  const pardfs::service::ServiceStats st = router.stats();
  // Mean of a phase per `per` events (per sample when `per` is 0).
  auto phase_mean = [&](const char* phase, std::uint64_t per) {
    double sum = 0.0;
    std::uint64_t count = 0;
    const std::string label = std::string("phase=\"") + phase + "\"";
    histogram_family("pardfs_update_phase_us", label.c_str(), &sum, &count);
    if (per == 0) per = count;
    return std::pair<double, std::uint64_t>{per > 0 ? sum / static_cast<double>(per) : 0.0,
                                            count};
  };
  const auto queue_wait = phase_mean("queue_wait", 0);
  const auto publish = phase_mean("publish", st.batches);
  m["service.queue_wait_us"] = {queue_wait.first, "us", queue_wait.second, svc};
  m["service.publish_us"] = {publish.first, "us", publish.second, svc};
  m["service.batch_size_mean"] = {
      st.batches > 0 ? static_cast<double>(st.updates_applied) / static_cast<double>(st.batches)
                     : 0.0,
      "count", st.batches, svc};
  m["service.batches"] = {static_cast<double>(st.batches), "count", 0, svc};
  m["service.index_rebuilds"] = {static_cast<double>(st.index_rebuilds), "count", 0, svc};
  m["service.base_rebuilds"] = {static_cast<double>(st.base_rebuilds), "count", 0, svc};
  m["service.migrations"] = {static_cast<double>(st.shard_migrations), "count", 0, svc};
  m["service.cross_shard_inserts"] = {static_cast<double>(st.cross_shard_inserts), "count", 0,
                                      svc};
  m["service.journal_checkpoints"] = {
      static_cast<double>(counter_family("pardfs_journal_checkpoints_total")), "count", 0,
      "service/journal"};

  // Accounting: how much of the mean ack the service's own phases explain.
  // Every update of a batch waits for the whole batch, so the per-batch
  // phase means add to the per-update queue wait.
  double engine = 0.0;
  for (const char* phase : {"patch", "reroot", "index_rebuild", "rebase"}) {
    engine += phase_mean(phase, st.batches).first;
  }
  const double ack_mean = mean(load.ack_us);
  m["service.engine_batch_us"] = {engine, "us", st.batches, "core/dynamic_dfs"};
  m["trace.unattributed_share"] = {
      ack_mean > 0.0 ? 1.0 - (queue_wait.first + engine + publish.first) / ack_mean : 0.0,
      "share", load.ack_us.size(), "accounting"};
}

void print_table(const Options& o, const MetricTable& m,
                 const std::vector<std::pair<std::string, std::string>>& st,
                 const std::vector<std::string>& violations, std::uint64_t hash) {
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d inputs=%016llx\n",
              workload_name(o.workload), static_cast<unsigned long long>(o.seed),
              format_double(o.seconds).c_str(), o.trace ? 1 : 0,
              static_cast<unsigned long long>(hash));
  std::printf("  stamp:");
  for (const auto& [k, v] : st) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s %14.6g %-6s", name.c_str(), metric.value, metric.unit.c_str());
    if (metric.samples > 0) {
      std::printf(" n=%-9llu", static_cast<unsigned long long>(metric.samples));
    } else {
      std::printf("            ");
    }
    std::printf(" [%s]\n", metric.module.c_str());
  }
  if (violations.empty()) {
    std::printf("  gate: PASS\n");
  } else {
    std::printf("  gate: FAIL (%zu violations)\n", violations.size());
    for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
      std::printf("    - %s\n", violations[i].c_str());
    }
  }
}

std::string result_json(const Options& o, const MetricTable& m,
                        const std::vector<std::pair<std::string, std::string>>& st,
                        const std::vector<std::string>& violations, const LoadResult& load,
                        std::uint64_t hash) {
  auto quote = [](const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out + "\"";
  };
  std::ostringstream j;
  j << "{\"workload\":" << quote(workload_name(o.workload)) << ",\"seed\":" << o.seed
    << ",\"seconds\":" << format_double(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
    << ",\"inputs_hash\":" << quote([&] {
         char buf[17];
         std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
         return std::string(buf);
       }())
    << ",\"correct\":" << (violations.empty() ? "true" : "false")
    << ",\"attempted\":" << load.attempted << ",\"failed\":" << load.failed << ",\"stamp\":{";
  for (std::size_t i = 0; i < st.size(); ++i) {
    j << (i ? "," : "") << quote(st[i].first) << ":" << quote(st[i].second);
  }
  j << "},\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    j << (i ? "," : "") << quote(violations[i]);
  }
  j << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    j << (first ? "" : ",") << quote(name) << ":{\"value\":" << format_double(metric.value)
      << ",\"unit\":" << quote(metric.unit) << ",\"samples\":" << metric.samples
      << ",\"module\":" << quote(metric.module) << "}";
    first = false;
  }
  j << "}}";
  return j.str();
}

int run(const Options& o) {
  const std::string load_before = loadavg();
  const auto ticks_before = cpu_ticks();
  const Inputs in = make_inputs(o.workload, o.seed, o.tiny);
  const std::uint64_t hash = hash_inputs(in);
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof(all), &all);
  const cpu_set_t load = load_cpus(all, in.params.load_cpus);
  if (o.stream_hash) {
    // Also the tag mix of every writer stream's first and second half.
    std::string halves;
    for (const UpdateStream& s : in.writers) {
      for (std::size_t h = 0; h < 2; ++h) {
        std::size_t counts[4] = {0, 0, 0, 0};
        const std::size_t half = s.tags.size() / 2;
        for (std::size_t i = h * half; i < (h + 1) * half; ++i) {
          ++counts[static_cast<std::size_t>(s.tags[i])];
        }
        halves += std::string(halves.empty() ? "" : ",") + "[" + std::to_string(counts[0]) +
                  "," + std::to_string(counts[1]) + "," + std::to_string(counts[2]) + "," +
                  std::to_string(counts[3]) + "]";
      }
    }
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"inputs_hash\":\"%016llx\","
                "\"tags_by_half\":[%s]}\n",
                workload_name(o.workload), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(hash), halves.c_str());
    return 0;
  }
  MetricTable m;
  std::vector<std::string> violations;
  LoadResult reported;
  SpanLog main_log(o.trace, 0);
  // The service's threads take the main thread's CPUs when they start.
  sched_setaffinity(0, sizeof(load), &load);
  if (!o.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<ShardRouter> router;
    for (int r = 0; r < kSetupReps; ++r) {
      router.reset();
      double s = 0.0;
      router = set_up(in, &s, nullptr);
      setup_s.push_back(s);
    }
    reported = run_load(*router, in, o.seconds, false);
    router->stop();
    gate(*router, in, reported, violations);
    end_to_end(m, reported, std::move(setup_s), router->stats());
  } else {
    // Untraced half, then the traced half on a fresh service with the same
    // inputs; the throughput difference is the tracing overhead.
    double s = 0.0;
    auto plain = set_up(in, &s, nullptr);
    const LoadResult untraced = run_load(*plain, in, o.seconds / 2, false);
    plain->stop();
    gate(*plain, in, untraced, violations);
    plain.reset();

    auto router = set_up(in, &s, &main_log);
    pardfs::obs::Registry::global().reset();
    reported = run_load(*router, in, o.seconds / 2, true);
    router->stop();
    gate(*router, in, reported, violations);
    traced_load_metrics(m, reported, *router);
    reported.attempted += untraced.attempted;
    reported.failed += untraced.failed;
    auto ops_rate = [](const LoadResult& l) {
      return static_cast<double>(l.applied + l.reads) / l.seconds;
    };
    m["trace.overhead_share"] = {1.0 - ops_rate(reported) / ops_rate(untraced), "share", 0,
                                 "accounting"};

    // The layer legs time the default engine team on every CPU.
    sched_setaffinity(0, sizeof(all), &all);
    const Graph final_graph = served_graph(*router);
    const std::vector<Vertex> final_parent = router->assemble_parent();
    const auto batch = static_cast<std::size_t>(m["service.batch_size_mean"].value + 0.5);
    for (auto& [name, metric] :
         run_layer_legs(in, final_graph, final_parent, batch, o.seed, main_log)) {
      m[name] = metric;
    }
  }
  const auto st = stamp(o, load_before, ticks_before, load);
  print_table(o, m, st, violations, hash);
  const std::string json = result_json(o, m, st, violations, reported, hash);
  const std::string base = o.out + "/" + workload_name(o.workload) + "-seed" +
                           std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0");
  if (std::ofstream f(base + ".json"); f) f << json << "\n";
  if (o.trace) {
    std::vector<Span> spans = reported.spans;
    spans.insert(spans.end(), main_log.spans().begin(), main_log.spans().end());
    if (!write_chrome_trace(base + ".trace.json", spans, 200000)) {
      std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n", base.c_str());
    }
  }
  std::printf("%s\n", json.c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The service runs with a one-worker engine team unless OMP_NUM_THREADS
  // says otherwise. On a shared VM the default team's wall time follows the
  // host's CPU steal rather than the code (README.md), so end-to-end numbers
  // at that team do not repeat; the traced legs still time the default
  // team. OpenMP reads the variable before main, hence the re-exec.
  if (std::getenv("OMP_NUM_THREADS") == nullptr) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec with OMP_NUM_THREADS=1");
    return 2;
  }
  return perfbench::run(perfbench::parse(argc, argv));
}
