// Scalar-baseline table of the dispatched FFT codelets (fft/simd.hpp): the
// one codelet source (fft/codelets.hpp) compiled at the build's baseline
// ISA with -ffp-contract=off. The reference every vector ISA is pinned
// bitwise-identical to by tests/test_fft_conformance.cpp.

#include "fft/codelets.hpp"

namespace ptim::fft::simd::detail {

const PassKernels<double>* scalar_kernels_f64() { return &kKernelsF64; }
const PassKernels<float>* scalar_kernels_f32() { return &kKernelsF32; }

}  // namespace ptim::fft::simd::detail
