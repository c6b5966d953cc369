// pardfs_fuzz — property-based fuzz gauntlet over the dynamic-DFS stack
// (see src/testing/fuzz.hpp for what one run checks).
//
// Modes:
//   * single run (default):    pardfs_fuzz --seed=7 --scenario=grid --entry=service
//   * sharded differential:    pardfs_fuzz --entry=sharded --shards=8
//       (S-shard router vs 1-shard reference, byte-compared every batch)
//   * chaos differential:      pardfs_fuzz --entry=chaos --chaos-seed=3
//       (seeded fault schedule armed: writer crashes / merge aborts / stalls
//        / sheds mid-run; every recovery must land byte-identical to the
//        un-faulted reference. Needs -DPARDFS_ENABLE_CHAOS=ON to inject.)
//   * fixed soak matrix:       pardfs_fuzz --soak=8 --batches=16
//       (8 seeds x {random, power_law, grid, dynamic_map}
//                x {core, service, sharded} + 3 chaos schedules each)
//   * time-budgeted CI soak:   pardfs_fuzz --minutes=5
//       (keeps sweeping the matrix with fresh seeds until the budget runs out)
//
// Every failure prints the exact replay line that reproduces it:
//   pardfs_fuzz --seed=... --scenario=... --entry=... --n=... --batches=...
// Exit code: 0 = all runs clean, 1 = mismatch found, 2 = bad usage.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "testing/fuzz.hpp"
#include "util/simd.hpp"

namespace {

using pardfs::testing::FuzzOptions;
using pardfs::testing::FuzzResult;

struct CliOptions {
  FuzzOptions fuzz;
  int soak_seeds = 0;      // --soak=N: fixed matrix of N seeds
  double minutes = 0.0;    // --minutes=M: time-budgeted matrix sweep
  bool scenario_set = false;
  bool entry_set = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed=U64] [--scenario=random|power_law|grid|dynamic_map]\n"
      "          [--entry=core|service|sharded|chaos] [--n=N] [--batches=B]\n"
      "          [--max-batch=K] [--shards=S] [--corrupt-at=B]\n"
      "          [--chaos-seed=U64] [--chaos-faults=F]\n"
      "          [--soak=SEEDS] [--minutes=M] [--force-scalar]\n"
      "(--entry=chaos needs -DPARDFS_ENABLE_CHAOS=ON to actually inject;\n"
      " otherwise it runs as the fault-free sharded differential)\n",
      argv0);
}

bool parse_arg(std::string_view arg, CliOptions& cli) {
  const auto value_of = [&](std::string_view key,
                            std::string_view& out) -> bool {
    if (arg.size() > key.size() && arg.substr(0, key.size()) == key &&
        arg[key.size()] == '=') {
      out = arg.substr(key.size() + 1);
      return true;
    }
    return false;
  };
  std::string_view v;
  if (value_of("--seed", v)) {
    cli.fuzz.seed = std::strtoull(std::string(v).c_str(), nullptr, 10);
    return true;
  }
  if (value_of("--scenario", v)) {
    cli.scenario_set = true;
    return pardfs::testing::parse_family(v, cli.fuzz.family);
  }
  if (value_of("--entry", v)) {
    cli.entry_set = true;
    return pardfs::testing::parse_entry(v, cli.fuzz.entry);
  }
  if (value_of("--n", v)) {
    cli.fuzz.n = static_cast<pardfs::Vertex>(std::atoll(std::string(v).c_str()));
    return cli.fuzz.n > 0;
  }
  if (value_of("--batches", v)) {
    cli.fuzz.batches = std::atoi(std::string(v).c_str());
    return cli.fuzz.batches > 0;
  }
  if (value_of("--max-batch", v)) {
    cli.fuzz.max_batch = std::atoi(std::string(v).c_str());
    return cli.fuzz.max_batch > 0;
  }
  if (value_of("--shards", v)) {
    cli.fuzz.num_shards = std::atoi(std::string(v).c_str());
    return cli.fuzz.num_shards > 0;
  }
  if (value_of("--corrupt-at", v)) {
    cli.fuzz.corrupt_at = std::atoi(std::string(v).c_str());
    return true;
  }
  if (value_of("--chaos-seed", v)) {
    cli.fuzz.chaos_seed = std::strtoull(std::string(v).c_str(), nullptr, 10);
    return true;
  }
  if (value_of("--chaos-faults", v)) {
    cli.fuzz.chaos_faults = std::atoi(std::string(v).c_str());
    return cli.fuzz.chaos_faults > 0;
  }
  if (value_of("--soak", v)) {
    cli.soak_seeds = std::atoi(std::string(v).c_str());
    return cli.soak_seeds > 0;
  }
  if (value_of("--minutes", v)) {
    cli.minutes = std::atof(std::string(v).c_str());
    return cli.minutes > 0.0;
  }
  if (arg == "--force-scalar") {
    cli.fuzz.force_scalar = true;
    return true;
  }
  return false;
}

int report(const FuzzResult& r) {
  if (r.ok) {
    std::printf("OK: %llu batches, %llu updates, %llu queries, 0 mismatches\n",
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.updates),
                static_cast<unsigned long long>(r.queries));
    return 0;
  }
  std::fprintf(stderr, "FUZZ FAILURE: %s\n", r.failure.c_str());
  std::fprintf(stderr, "replay: %s\n", r.replay.c_str());
  if (!r.obs_counters.empty()) {
    // Registry snapshot at failure time: replaying the seed in a fresh
    // process must land on the same counts (divergence = bad replay).
    std::fprintf(stderr, "obs:    %s\n", r.obs_counters.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    if (!parse_arg(argv[i], cli)) {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  // Reflect an ambient PARDFS_FORCE_SCALAR pin in the printed run lines so
  // they replay the effective dispatch mode.
  cli.fuzz.force_scalar = cli.fuzz.force_scalar || pardfs::simd::scalar_forced();

  if (cli.minutes > 0.0) {
    // Time-budgeted soak: sweep the full matrix with fresh seeds until the
    // budget is spent. Each sweep is itself deterministic per seed base, so
    // any failure still replays exactly.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<std::int64_t>(cli.minutes * 60e3));
    FuzzResult total;
    std::uint64_t seed_base = cli.fuzz.seed;
    do {
      const FuzzResult r = pardfs::testing::run_soak(
          seed_base, /*seeds=*/1, cli.fuzz.batches, cli.fuzz.n,
          cli.fuzz.force_scalar);
      if (!r.ok) return report(r);
      total.batches += r.batches;
      total.updates += r.updates;
      total.queries += r.queries;
      ++seed_base;
    } while (std::chrono::steady_clock::now() < deadline);
    std::printf("soak: %llu seeds swept\n",
                static_cast<unsigned long long>(seed_base - cli.fuzz.seed));
    return report(total);
  }

  if (cli.soak_seeds > 0) {
    return report(pardfs::testing::run_soak(
        cli.fuzz.seed, cli.soak_seeds, cli.fuzz.batches, cli.fuzz.n,
        cli.fuzz.force_scalar));
  }

  std::printf("run: %s\n", pardfs::testing::replay_line(cli.fuzz).c_str());
  return report(pardfs::testing::run_fuzz(cli.fuzz));
}
