#pragma once
// Parallel sums whose bits depend on neither the OpenMP thread count nor the
// order in which threads finish. An OpenMP reduction(+) adds the per-thread
// partials in completion order, so the same input can give a different last
// bit from call to call. fixed_sum computes one partial per fixed chunk of
// the index range in parallel and adds the partials in chunk order, so its
// result depends on the chunk size alone.

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace ptim {

// Points per partial of the grid sums (any fixed value gives bits that do
// not depend on the threads).
constexpr size_t kSumChunk = 512;

// sum_{i < n} term(i). Partial k adds term(i) for i in [k * chunk,
// min(n, (k + 1) * chunk)) in index order, starting from 0; the partials
// are then added in chunk order. chunk >= 1. term may also write a
// per-index output: each i is visited exactly once.
template <typename Term>
real_t fixed_sum(size_t n, const Term& term, size_t chunk = kSumChunk) {
  const size_t nchunks = (n + chunk - 1) / chunk;
  std::vector<real_t> part(nchunks);
#pragma omp parallel for schedule(static)
  for (size_t k = 0; k < nchunks; ++k) {
    const size_t end = std::min(n, (k + 1) * chunk);
    real_t s = 0.0;
    for (size_t i = k * chunk; i < end; ++i) s += term(i);
    part[k] = s;
  }
  real_t acc = 0.0;
  for (const real_t s : part) acc += s;
  return acc;
}

}  // namespace ptim
