#include "pram/scan.hpp"

#include "util/check.hpp"

namespace pardfs::pram {

std::uint64_t exclusive_scan(std::span<const std::uint32_t> in,
                             std::span<std::uint32_t> out) {
  PARDFS_CHECK(in.size() == out.size());
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint32_t v = in[i];  // read before write: out may alias in
    out[i] = static_cast<std::uint32_t>(acc);
    acc += v;
  }
  return acc;
}

}  // namespace pardfs::pram
