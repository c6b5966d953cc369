// Exclusive prefix sum (scan), the workhorse of PRAM algorithms.
//
// The PRAM formulation is the classic O(log n)-depth EREW scan used
// implicitly all over the paper (compaction, processor allocation);
// physically it is one left-to-right pass on the calling thread, O(n) work.
#pragma once

#include <cstdint>
#include <span>

namespace pardfs::pram {

// out[i] = sum of in[0..i); returns total sum. out may alias in.
std::uint64_t exclusive_scan(std::span<const std::uint32_t> in,
                             std::span<std::uint32_t> out);

}  // namespace pardfs::pram
