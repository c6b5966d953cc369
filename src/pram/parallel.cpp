#include "pram/parallel.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

#include <atomic>

namespace pardfs::pram {

namespace {
std::atomic<int> g_threads{0};  // 0 = OpenMP default
}  // namespace

int num_threads() {
  const int configured = g_threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;  // built without OpenMP: parallel_for_t runs serially
#endif
}

void set_num_threads(int n) { g_threads.store(n, std::memory_order_relaxed); }

}  // namespace pardfs::pram
