#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "pram/parallel.hpp"
#include "pram/scan.hpp"
#include "team_size.hpp"
#include "util/random.hpp"

namespace pardfs::pram {
namespace {

TEST(ParallelFor, CoversRange) {
  std::vector<int> hits(10000, 0);
  parallel_for_t(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(ParallelFor, ForksTheFacadeTeam) {
  // The facade's team setting is the one team parallel_for_t forks,
  // whatever OpenMP's default team on this thread is.
  const TeamSizeGuard team_size(3);
  set_num_threads(2);
  std::vector<int> worker(10000, -1);
  parallel_for_t(0, worker.size(), [&](std::size_t i) {
#if defined(_OPENMP)
    worker[i] = omp_get_thread_num();
#else
    worker[i] = 0;
#endif
  });
  EXPECT_LT(*std::max_element(worker.begin(), worker.end()), 2);
  EXPECT_GE(*std::min_element(worker.begin(), worker.end()), 0);
}

TEST(Scan, ExclusivePrefixSums) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{5000}}) {
    std::vector<std::uint32_t> in(n), out(n);
    Rng rng(n + 1);
    for (auto& x : in) x = static_cast<std::uint32_t>(rng.below(100));
    const std::uint64_t total = exclusive_scan(in, out);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], acc) << "index " << i;
      acc += in[i];
    }
    EXPECT_EQ(total, acc);
    // In place (out aliases in): the same sums.
    EXPECT_EQ(exclusive_scan(in, in), total);
    EXPECT_EQ(in, out);
  }
}

TEST(Rng, DeterministicAndUnbiasedish) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(1);
  std::size_t lo = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (c.below(10) < 5) ++lo;
  }
  EXPECT_NEAR(static_cast<double>(lo) / trials, 0.5, 0.03);
}

}  // namespace
}  // namespace pardfs::pram
