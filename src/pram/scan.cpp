#include "pram/scan.hpp"

#include <vector>

#include "pram/parallel.hpp"
#include "util/check.hpp"

namespace pardfs::pram {

std::uint64_t exclusive_scan(std::span<const std::uint32_t> in,
                             std::span<std::uint32_t> out) {
  PARDFS_CHECK(in.size() == out.size());
  const std::size_t n = in.size();
  if (n == 0) return 0;
  if (n < kSerialGrain) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t v = in[i];
      out[i] = static_cast<std::uint32_t>(acc);
      acc += v;
    }
    return acc;
  }
  const int threads = num_threads();
  const std::size_t block = (n + threads - 1) / threads;
  std::vector<std::uint64_t> block_sum(static_cast<std::size_t>(threads) + 1, 0);
  parallel_for_t(0, static_cast<std::size_t>(threads), [&](std::size_t t) {
    const std::size_t lo = t * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    std::uint64_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += in[i];
    block_sum[t + 1] = acc;
  });
  for (std::size_t t = 1; t <= static_cast<std::size_t>(threads); ++t) {
    block_sum[t] += block_sum[t - 1];
  }
  parallel_for_t(0, static_cast<std::size_t>(threads), [&](std::size_t t) {
    const std::size_t lo = t * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    std::uint64_t acc = block_sum[t];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t v = in[i];
      out[i] = static_cast<std::uint32_t>(acc);
      acc += v;
    }
  });
  return block_sum[static_cast<std::size_t>(threads)];
}

}  // namespace pardfs::pram
