// The fuzz harness tested as a subsystem: small runs of every family x entry
// cell must come back clean, the whole thing must be deterministic per seed
// (including across process teams), and — the part that proves the
// oracle has teeth — an injected corruption must FAIL the run with a replay
// line that reproduces it.
#include "testing/fuzz.hpp"

#include <gtest/gtest.h>

#include <string>

#include "team_size.hpp"

namespace pardfs::testing {
namespace {

FuzzOptions small_options(FuzzFamily family, FuzzEntry entry,
                          std::uint64_t seed) {
  FuzzOptions o;
  o.seed = seed;
  o.family = family;
  o.entry = entry;
  o.n = 48;
  o.batches = 8;
  o.queries_per_batch = 12;
  o.cut_checks_per_batch = 2;
  return o;
}

TEST(Fuzz, EveryFamilyAndEntryPassesSmallRuns) {
  for (const FuzzFamily family :
       {FuzzFamily::kRandom, FuzzFamily::kPowerLaw, FuzzFamily::kGrid,
        FuzzFamily::kDynamicMap}) {
    for (const FuzzEntry entry : {FuzzEntry::kCore, FuzzEntry::kService}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const FuzzResult r = run_fuzz(small_options(family, entry, seed));
        ASSERT_TRUE(r.ok) << family_name(family) << "/" << entry_name(entry)
                          << " seed " << seed << ": " << r.failure
                          << "\nreplay: " << r.replay;
        EXPECT_EQ(r.batches, 8u);
        EXPECT_GT(r.updates, 0u);
        EXPECT_GT(r.queries, 0u);
      }
    }
  }
}

TEST(Fuzz, DeterministicPerSeed) {
  for (const FuzzEntry entry : {FuzzEntry::kCore, FuzzEntry::kService}) {
    const FuzzOptions o = small_options(FuzzFamily::kPowerLaw, entry, 7);
    const FuzzResult a = run_fuzz(o);
    const FuzzResult b = run_fuzz(o);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.queries, b.queries);
  }
}

TEST(Fuzz, DeterministicAcrossThreadCounts) {
  // The engine's forest is identical at any process team (DESIGN.md §8), so
  // the whole fuzz verdict must be too.
  for (const FuzzEntry entry : {FuzzEntry::kCore, FuzzEntry::kService}) {
    const FuzzOptions o = small_options(FuzzFamily::kRandom, entry, 9);
    TeamSizeGuard team_size(1);
    const FuzzResult serial = run_fuzz(o);
    team_size.set(4);
    const FuzzResult parallel = run_fuzz(o);
    ASSERT_TRUE(serial.ok) << serial.failure;
    ASSERT_TRUE(parallel.ok) << parallel.failure;
    EXPECT_EQ(serial.batches, parallel.batches);
    EXPECT_EQ(serial.updates, parallel.updates);
    EXPECT_EQ(serial.queries, parallel.queries);
  }
}

TEST(Fuzz, InjectedCorruptionIsCaughtWithReplayLine) {
  for (const FuzzEntry entry : {FuzzEntry::kCore, FuzzEntry::kService}) {
    FuzzOptions o = small_options(FuzzFamily::kGrid, entry, 5);
    o.corrupt_at = 3;
    const FuzzResult r = run_fuzz(o);
    ASSERT_FALSE(r.ok) << entry_name(entry)
                       << ": corrupted forest slipped past the oracle";
    EXPECT_NE(r.failure.find("batch 3"), std::string::npos) << r.failure;
    EXPECT_NE(r.replay.find("--seed=5"), std::string::npos) << r.replay;
    EXPECT_NE(r.replay.find("--corrupt-at=3"), std::string::npos) << r.replay;
    EXPECT_NE(r.replay.find(std::string("--entry=") + entry_name(entry)),
              std::string::npos)
        << r.replay;
#if !defined(PARDFS_NO_METRICS)
    // The failure carries the registry's fuzz counters so a replayed seed
    // can be cross-checked against the original run's counts.
    EXPECT_NE(r.obs_counters.find("pardfs_fuzz_batches_total="),
              std::string::npos)
        << r.obs_counters;
    EXPECT_NE(r.obs_counters.find("pardfs_fuzz_queries_total="),
              std::string::npos)
        << r.obs_counters;
#else
    EXPECT_TRUE(r.obs_counters.empty());
#endif
    // The replay line must actually reproduce the failure.
    const FuzzResult again = run_fuzz(o);
    EXPECT_EQ(again.failure, r.failure);
  }
}

TEST(Fuzz, SoakMatrixAccumulatesAcrossCells) {
  const FuzzResult r = run_soak(/*seed_base=*/100, /*seeds=*/1, /*batches=*/4,
                                /*n=*/32);
  ASSERT_TRUE(r.ok) << r.failure << "\nreplay: " << r.replay;
  // 1 seed x 4 families x (3 fault-free entries + kChaosSchedulesPerSeed
  // chaos schedules) x 4 batches.
  EXPECT_EQ(r.batches, 4u * (3 + kChaosSchedulesPerSeed) * 4);
}

TEST(Fuzz, NamesRoundTrip) {
  for (const FuzzFamily f : {FuzzFamily::kRandom, FuzzFamily::kPowerLaw,
                             FuzzFamily::kGrid, FuzzFamily::kDynamicMap}) {
    FuzzFamily parsed;
    ASSERT_TRUE(parse_family(family_name(f), parsed));
    EXPECT_EQ(parsed, f);
  }
  for (const FuzzEntry e : {FuzzEntry::kCore, FuzzEntry::kService,
                            FuzzEntry::kSharded, FuzzEntry::kChaos}) {
    FuzzEntry parsed;
    ASSERT_TRUE(parse_entry(entry_name(e), parsed));
    EXPECT_EQ(parsed, e);
  }
  FuzzFamily f;
  FuzzEntry e;
  EXPECT_FALSE(parse_family("hexagonal", f));
  EXPECT_FALSE(parse_entry("sideways", e));
}

}  // namespace
}  // namespace pardfs::testing
