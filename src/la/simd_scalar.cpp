// Scalar-baseline table of the la lanes (la/simd.hpp): the one lane source
// (la/lane_kernels.hpp) compiled at the build's baseline ISA with
// -ffp-contract=off. The reference every vector ISA is pinned
// bitwise-identical to by tests/test_la.cpp.

#include "la/lane_kernels.hpp"

namespace ptim::la::simd::detail {

const Kernels* scalar_kernels() { return &kKernels; }

}  // namespace ptim::la::simd::detail
