// Per-ISA table lookup and per-thread scratch of the la lanes
// (la/simd.hpp); the ISA itself is chosen in common/isa.hpp.

#include "la/simd.hpp"

#include <vector>

namespace ptim::la::simd {

using isa::Isa;

const Kernels& active() {
  const Kernels* k = nullptr;
  switch (isa::active()) {
    case Isa::kScalar: k = detail::scalar_kernels(); break;
    case Isa::kAvx2:
    case Isa::kAvx512: k = detail::avx2_kernels(); break;
    case Isa::kNeon: break;
  }
  return k != nullptr ? *k : *detail::scalar_kernels();
}

double* scratch(size_t n) {
  thread_local std::vector<double> s;
  if (s.size() < n) s.resize(n);
  return s.data();
}

}  // namespace ptim::la::simd
