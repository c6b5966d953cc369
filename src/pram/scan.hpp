// Exclusive prefix sum (scan), the workhorse of PRAM algorithms.
//
// Two-pass blocked implementation: per-block sums, serial scan of the block
// sums (there are O(P) of them), then per-block local scans. O(n) work,
// O(log n) PRAM depth — matching the classic EREW scan used implicitly all
// over the paper (compaction, processor allocation).
#pragma once

#include <cstdint>
#include <span>

namespace pardfs::pram {

// out[i] = sum of in[0..i); returns total sum. out may alias in.
std::uint64_t exclusive_scan(std::span<const std::uint32_t> in,
                             std::span<std::uint32_t> out);

}  // namespace pardfs::pram
