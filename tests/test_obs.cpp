// The observability layer tested as a subsystem: log-bucket quantile error
// bounds, shard-merge correctness, concurrent recording (the TSAN target),
// Prometheus/JSON exposition validity — including the six writer-pipeline
// phases and the ack-latency quantiles the acceptance criteria pin — the
// runtime kill switch, and the determinism contract (same forest with
// metrics on, off, or compiled out).
//
// The registry is process-global by design, so tests either use their own
// metric names or assert on deltas, never on absolute process-wide values.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/shard_router.hpp"
#include "util/random.hpp"

namespace pardfs::obs {
namespace {

using pardfs::service::ShardRouter;

// Values recorded under PARDFS_NO_METRICS vanish; these tests assert the
// recorded-path arithmetic, so they pin zeros in that configuration instead.
#if defined(PARDFS_NO_METRICS)
constexpr bool kRecording = false;
#else
constexpr bool kRecording = true;
#endif

TEST(Obs, BucketOfRespectsLog2Boundaries) {
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);  // [1, 2)
  EXPECT_EQ(bucket_of(2), 2u);  // [2, 4)
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(1023), 10u);
  EXPECT_EQ(bucket_of(1024), 11u);
  // Everything past the last bound collapses into the overflow bucket.
  EXPECT_EQ(bucket_of(~0ull), kHistogramBuckets - 1);
}

TEST(Obs, CounterMergesShardsAcrossThreads) {
  Counter& c = Registry::global().counter("test_obs_counter_total");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value() - before, kRecording ? kThreads * kPerThread : 0u);
}

TEST(Obs, HistogramQuantileWithinOneLogBucket) {
  if (!kRecording) GTEST_SKIP() << "recording compiled out";
  Histogram& h =
      Registry::global().histogram("test_obs_quantile_bound", "", 1.0);
  // Uniform 1..4096: every log bucket in range gets mass.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v <= 4096; ++v) values.push_back(v);
  for (const std::uint64_t v : values) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  EXPECT_DOUBLE_EQ(snap.sum, 4096.0 * 4097.0 / 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 4096.0);
  for (const double q : {0.50, 0.90, 0.99}) {
    const std::uint64_t exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double est = snap.quantile(q);
    // One log2 bucket of slack in each direction: the estimate lives in the
    // same bucket as the exact order statistic.
    EXPECT_GE(est, static_cast<double>(exact) / 2.0) << "q=" << q;
    EXPECT_LE(est, static_cast<double>(exact) * 2.0) << "q=" << q;
  }
  // The p99 companion fields match quantile().
  EXPECT_DOUBLE_EQ(snap.p50, snap.quantile(0.50));
  EXPECT_DOUBLE_EQ(snap.p90, snap.quantile(0.90));
  EXPECT_DOUBLE_EQ(snap.p99, snap.quantile(0.99));
  // Quantiles never exceed the observed maximum.
  EXPECT_LE(snap.quantile(1.0), snap.max);
}

TEST(Obs, HistogramScaleAppliesAtSnapshotOnly) {
  if (!kRecording) GTEST_SKIP() << "recording compiled out";
  // Sub-microsecond values recorded raw in ns survive a 1e-3 display scale.
  Histogram& h =
      Registry::global().histogram("test_obs_scaled_us", "", 1e-3);
  h.record(250);  // 250 ns = 0.25 us
  h.record(750);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0);   // 1000 ns -> 1 us
  EXPECT_DOUBLE_EQ(snap.max, 0.75);  // scaled
  EXPECT_DOUBLE_EQ(h.sum(), 1.0);    // the cheap accessor agrees
}

TEST(Obs, HistogramShardMergeMatchesSingleThread) {
  if (!kRecording) GTEST_SKIP() << "recording compiled out";
  // The same multiset recorded by 8 threads (striped) and by one thread
  // must produce identical snapshots: merging shards loses nothing.
  Histogram& sharded =
      Registry::global().histogram("test_obs_merge_sharded", "", 1.0);
  Histogram& serial =
      Registry::global().histogram("test_obs_merge_serial", "", 1.0);
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 8000; ++i) values.push_back(i * 37 % 50000);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < values.size();
           i += kThreads) {
        sharded.record(values[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t v : values) serial.record(v);

  const HistogramSnapshot a = sharded.snapshot();
  const HistogramSnapshot b = serial.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

TEST(Obs, ConcurrentRecordAndSnapshotIsSafe) {
  // The TSAN target: writers hammer all three kinds while a reader
  // repeatedly snapshots and exports. No asserts on intermediate values —
  // the point is that this is race-free and the final totals are exact.
  Counter& c = Registry::global().counter("test_obs_race_total");
  Gauge& g = Registry::global().gauge("test_obs_race_gauge");
  Histogram& h = Registry::global().histogram("test_obs_race_hist", "", 1.0);
  const std::uint64_t c_before = c.value();
  const std::uint64_t h_before = h.count();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        g.max_of(static_cast<std::int64_t>(t * kPerThread + i));
        h.record(i);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    (void)h.snapshot();
    (void)prometheus_text();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value() - c_before, kRecording ? kThreads * kPerThread : 0u);
  EXPECT_EQ(h.count() - h_before, kRecording ? kThreads * kPerThread : 0u);
}

TEST(Obs, RuntimeKillSwitchStopsRecording) {
  Counter& c = Registry::global().counter("test_obs_killswitch_total");
  Histogram& h =
      Registry::global().histogram("test_obs_killswitch_hist", "", 1.0);
  const std::uint64_t c_before = c.value();
  const std::uint64_t h_before = h.count();
  ASSERT_TRUE(metrics_enabled()) << "tests assume the default-on switch";
  set_metrics_enabled(false);
  c.add(5);
  h.record(123);
  set_metrics_enabled(true);
  EXPECT_EQ(c.value(), c_before);
  EXPECT_EQ(h.count(), h_before);
  c.add(2);
  EXPECT_EQ(c.value() - c_before, kRecording ? 2u : 0u);
}

TEST(Obs, RegistryFindOrCreateIsStableAndLabelAware) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("test_obs_identity_total", "kind=\"x\"");
  Counter& b = reg.counter("test_obs_identity_total", "kind=\"x\"");
  Counter& c = reg.counter("test_obs_identity_total", "kind=\"y\"");
  EXPECT_EQ(&a, &b) << "same (name, labels) must be the same object";
  EXPECT_NE(&a, &c) << "different labels are different series";
  Histogram& h1 = reg.histogram("test_obs_identity_hist", "", 1e-3);
  Histogram& h2 = reg.histogram("test_obs_identity_hist");
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.scale(), 1e-3) << "first registration wins the scale";
}

TEST(Obs, PrometheusPageCarriesThePinnedSeries) {
  // Drive a real service so every writer-pipeline series exists, then check
  // the acceptance pins: all six phases and the ack-latency quantiles.
  Rng rng(7);
  ShardRouter svc(gen::random_connected(64, 128, rng));
  for (int i = 0; i < 20; ++i) {
    (void)svc.apply_sync(GraphUpdate::insert_vertex({static_cast<Vertex>(i)}));
  }
  svc.stop();
  const std::string page = svc.metrics_text();
  for (const char* phase :
       {"phase=\"queue_wait\"", "phase=\"patch\"", "phase=\"reroot\"",
        "phase=\"index_rebuild\"", "phase=\"rebase\"", "phase=\"publish\""}) {
    EXPECT_NE(page.find(std::string("pardfs_update_phase_us_count{") + phase),
              std::string::npos)
        << "missing phase series: " << phase << "\n" << page;
  }
  for (const char* series :
       {"pardfs_ack_latency_us_p50", "pardfs_ack_latency_us_p99",
        "pardfs_ack_latency_us_bucket{le=\"+Inf\"}",
        "pardfs_snapshot_staleness_us_count", "pardfs_queue_depth",
        "pardfs_coalesce_size", "pardfs_batches_total",
        "pardfs_updates_applied_total", "pardfs_snapshots_published_total",
        "pardfs_acks_rejected_total{reason=\"infeasible\"}",
        "pardfs_acks_rejected_total{reason=\"shutdown\"}"}) {
    EXPECT_NE(page.find(series), std::string::npos)
        << "missing series: " << series;
  }
  // Structural validity: every line is a comment or `name[{labels}] value`.
  std::size_t pos = 0;
  while (pos < page.size()) {
    const std::size_t eol = page.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "page must end in a newline";
    const std::string line = page.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
  if (kRecording) {
    // 20 accepted single-update batches through the full pipeline.
    EXPECT_NE(page.find("pardfs_updates_applied_total"), std::string::npos);
    EXPECT_GT(
        Registry::global().counter("pardfs_updates_applied_total").value(), 0u);
  }
}

TEST(Obs, JsonExportIsBalancedAndCarriesQuantiles) {
  // Register our own series: under ctest each TEST runs in its own process,
  // so nothing else is guaranteed to be in the registry.
  (void)Registry::global().counter("test_obs_json_total");
  (void)Registry::global().histogram("test_obs_json_hist", "", 1e-3);
  const std::string page = metrics_json();
  EXPECT_EQ(std::count(page.begin(), page.end(), '{'),
            std::count(page.begin(), page.end(), '}'));
  EXPECT_NE(page.find("\"counters\""), std::string::npos);
  EXPECT_NE(page.find("\"gauges\""), std::string::npos);
  EXPECT_NE(page.find("\"histograms\""), std::string::npos);
  EXPECT_NE(page.find("\"test_obs_json_total\""), std::string::npos);
  EXPECT_NE(page.find("\"test_obs_json_hist\""), std::string::npos);
  EXPECT_NE(page.find("\"p99\""), std::string::npos);
}

TEST(Obs, TraceSpansRenderAsChromeJson) {
  trace_reset();
  ASSERT_FALSE(tracing_enabled()) << "tracing must default to off";
  {
    // Spans while tracing is off must not be recorded.
    const Span off_span("test_obs_untraced");
  }
  set_tracing_enabled(true);
  {
    const Span outer("test_obs_outer");
    const Span inner("test_obs_inner");
  }
  std::thread([] { const Span t("test_obs_worker"); }).join();
  set_tracing_enabled(false);
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("test_obs_untraced"), std::string::npos);
  if (kRecording) {
    EXPECT_NE(json.find("\"test_obs_outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test_obs_inner\""), std::string::npos);
    EXPECT_NE(json.find("\"test_obs_worker\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  }
  trace_reset();
  const std::string empty = chrome_trace_json();
  EXPECT_EQ(empty.find("test_obs_outer"), std::string::npos);
}

TEST(Obs, ScopedPhaseRecordsIntoItsHistogram) {
  Histogram& h =
      Registry::global().histogram("test_obs_scoped_phase", "", 1e-3);
  const std::uint64_t before = h.count();
  {
    const ScopedPhase phase(h, "test_obs_scoped_phase");
  }
  EXPECT_EQ(h.count() - before, kRecording ? 1u : 0u);
}

TEST(Obs, ForestIsIdenticalWithMetricsOnAndOff) {
  // The determinism contract: recording must never feed back into the
  // algorithms. Same seed, same updates, metrics on vs runtime-off (and the
  // PARDFS_NO_METRICS build of this test covers compiled-out) — the parent
  // arrays must be byte-identical.
  const auto run = [](bool enabled) {
    set_metrics_enabled(enabled);
    Rng rng(11);
    DynamicDfs dfs(gen::random_connected(96, 200, rng));
    std::vector<GraphUpdate> batch;
    for (int i = 0; i < 60; ++i) {
      const Vertex u = (i * 7) % 96;
      const Vertex v = (i * 13 + 1) % 96;
      if (u == v) continue;
      batch.clear();
      if (dfs.graph().has_edge(u, v)) {
        batch.push_back(GraphUpdate::delete_edge(u, v));
      } else {
        batch.push_back(GraphUpdate::insert_edge(u, v));
      }
      (void)dfs.apply_batch(batch);
    }
    set_metrics_enabled(true);
    return std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Obs, StopwatchIsMonotone) {
  Stopwatch sw;
  const std::uint64_t a = sw.elapsed_ns();
  const std::uint64_t b = sw.elapsed_ns();
  EXPECT_GE(b, a);
  sw.reset();
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace pardfs::obs
