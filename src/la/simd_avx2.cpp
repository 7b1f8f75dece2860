// AVX2 table of the la lanes (la/simd.hpp): the one lane source
// (la/lane_kernels.hpp) compiled with -mavx2 and -ffp-contract=off when the
// compiler supports the flag; an empty fallback TU otherwise. No FMA, so
// the results are bitwise-identical to the scalar table.

#include "la/simd.hpp"

#if defined(__AVX2__)

#include "la/lane_kernels.hpp"

namespace ptim::la::simd::detail {
const Kernels* avx2_kernels() { return &kKernels; }
}  // namespace ptim::la::simd::detail

#else  // !defined(__AVX2__)

namespace ptim::la::simd::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace ptim::la::simd::detail

#endif
