// E12/E23: team scaling of DynamicDfs::apply_batch.
//
// The rerooting engine steps its rounds on the calling thread (rerooter.cpp);
// the team argument scales only the pram facade's array loops around it —
// the D build, the CSR counts and the LCA fill (pram::parallel_for_t). This
// bench measures end-to-end batch-update latency at teams 1/2/4/8 on the two
// scenarios where rerooting dominates: adversarial_star (every spoke toggle
// reroots a Θ(n) ring subtree) and social_mix (power-law hub churn). The
// maintained forest is identical at every team size (pinned in
// tests/test_parallel_engine.cpp) — only wall clock may move. Real speedup
// needs real cores: on a single-core host every team size collapses to ~1×.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "core/dynamic_dfs.hpp"
#include "pram/parallel.hpp"
#include "service/workload.hpp"

namespace pardfs {
namespace {

void run_scenario(benchmark::State& state, service::Scenario scenario) {
  const int threads = static_cast<int>(state.range(0));
  const auto n = static_cast<Vertex>(state.range(1));
  // The facade's team is the one team parallel_for_t forks, so "1 thread"
  // is genuinely serial.
  pram::set_num_threads(threads);
  const service::WorkloadSpec spec{scenario, n, 42};
  service::WorkloadDriver driver(spec);
  DynamicDfs dfs(service::make_initial_graph(spec));
  // One iteration = one coalesced batch of epoch_period updates — the
  // largest batch the service layer hands to apply_batch in one drain.
  const std::size_t batch_size = dfs.epoch_period();
  std::vector<GraphUpdate> batch;
  std::uint64_t updates = 0;
  std::uint64_t rounds = 0;
  const UpdatePhaseBreakdown before = DynamicDfs::phase_breakdown();
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (std::size_t i = 0; i < batch_size; ++i) batch.push_back(driver.next());
    state.ResumeTiming();
    dfs.apply_batch(batch);
    updates += batch.size();
    rounds += dfs.last_stats().global_rounds;
  }
  pram::set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["batch_size"] = static_cast<double>(batch_size);
  state.counters["engine_rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  // E13 phase breakdown across the whole run (per absorbed update, µs):
  // shows how much of a batch is rerooting (serial) vs index rebuild / epoch
  // rebase (where the array loops fork) / patching. Read as a
  // mark-and-delta over the registry's cumulative series (DESIGN.md §11).
  const UpdatePhaseBreakdown after = DynamicDfs::phase_breakdown();
  const double per_update =
      updates > 0 ? 1.0 / static_cast<double>(updates) : 0.0;
  state.counters["patch_us/update"] =
      benchmark::Counter((after.patch_us - before.patch_us) * per_update);
  state.counters["reroot_us/update"] =
      benchmark::Counter((after.reroot_us - before.reroot_us) * per_update);
  state.counters["index_rebuild_us/update"] = benchmark::Counter(
      (after.index_rebuild_us - before.index_rebuild_us) * per_update);
  state.counters["rebase_us/update"] =
      benchmark::Counter((after.rebase_us - before.rebase_us) * per_update);
}

void BM_BatchUpdate_AdversarialStar(benchmark::State& state) {
  run_scenario(state, service::Scenario::kAdversarialStar);
}

void BM_BatchUpdate_SocialMix(benchmark::State& state) {
  run_scenario(state, service::Scenario::kSocialMix);
}

BENCHMARK(BM_BatchUpdate_AdversarialStar)
    ->ArgsProduct({{1, 2, 4, 8}, {1 << 15}})
    ->ArgNames({"threads", "n"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_BatchUpdate_SocialMix)
    ->ArgsProduct({{1, 2, 4, 8}, {1 << 15}})
    ->ArgNames({"threads", "n"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace pardfs
