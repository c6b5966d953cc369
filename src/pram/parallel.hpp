// Thin PRAM-style facade over OpenMP.
//
// The algorithm code reads as the paper's PRAM pseudo-code: `parallel_for_t`
// assigns one logical processor per element of an O(n)/O(m) array. It is the
// facade's only forking primitive; everything else (the rerooting engine's
// rounds, query reductions) runs its logical rounds on the calling thread and
// records them in the cost model (DESIGN.md §8).
//
// Grain control: spawning OpenMP teams for tiny loops costs more than the
// loop body; below `kSerialGrain` elements the facade runs serially. This
// changes nothing observable (the cost model counts logical rounds, not
// threads).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pardfs::pram {

inline constexpr std::size_t kSerialGrain = 2048;

// The team `parallel_for_t` forks (defaults to OpenMP's choice).
int num_threads();
void set_num_threads(int n);

// for (i in [begin, end)) body(i), one logical processor per index. Body is
// a template parameter (not std::function) so hot loops inline fully.
template <typename Body>
void parallel_for_t(std::size_t begin, std::size_t end, Body&& body) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  if (count < kSerialGrain) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
#if defined(_OPENMP)
#pragma omp parallel for schedule(static) num_threads(num_threads())
#endif
  for (std::int64_t i = static_cast<std::int64_t>(begin);
       i < static_cast<std::int64_t>(end); ++i) {
    body(static_cast<std::size_t>(i));
  }
}

}  // namespace pardfs::pram
