// Test helper: pins the process team — the pram facade's team (what
// parallel_for_t forks) and OpenMP's default team together — and restores
// both defaults on scope exit, so a failed assertion cannot leak a team size
// into later tests.
#pragma once

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "pram/parallel.hpp"

namespace pardfs {

class TeamSizeGuard {
 public:
  TeamSizeGuard() = default;
  explicit TeamSizeGuard(int team) { set(team); }
  TeamSizeGuard(const TeamSizeGuard&) = delete;
  TeamSizeGuard& operator=(const TeamSizeGuard&) = delete;
  ~TeamSizeGuard() {
    pram::set_num_threads(0);
#if defined(_OPENMP)
    omp_set_num_threads(omp_default_);
#endif
  }

  void set(int team) {
    pram::set_num_threads(team);
#if defined(_OPENMP)
    omp_set_num_threads(team);
#endif
  }

 private:
#if defined(_OPENMP)
  int omp_default_ = omp_get_max_threads();
#endif
};

}  // namespace pardfs
