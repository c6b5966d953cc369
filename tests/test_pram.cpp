#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "pram/parallel.hpp"
#include "pram/scan.hpp"
#include "util/random.hpp"

namespace pardfs::pram {
namespace {

TEST(ParallelFor, CoversRange) {
  std::vector<int> hits(10000, 0);
  parallel_for_t(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(ParallelReduce, SumMatchesSerial) {
  const std::size_t n = 100000;
  const std::uint64_t total = parallel_reduce(
      std::size_t{0}, n, std::uint64_t{0}, [](std::size_t i) { return std::uint64_t(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, std::uint64_t(n) * (n - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const int r = parallel_reduce(
      std::size_t{5}, std::size_t{5}, -1, [](std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, -1);
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
