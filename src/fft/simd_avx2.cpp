// AVX2 table of the dispatched FFT codelets (fft/simd.hpp): the one codelet
// source (fft/codelets.hpp) compiled with -mavx2 and -ffp-contract=off when
// the compiler supports the flag; an empty fallback TU otherwise. No FMA,
// so the results are bitwise-identical to the scalar table.

#include "fft/simd.hpp"

#if defined(__AVX2__)

#include "fft/codelets.hpp"

namespace ptim::fft::simd::detail {
const PassKernels<double>* avx2_kernels_f64() { return &kKernelsF64; }
const PassKernels<float>* avx2_kernels_f32() { return &kKernelsF32; }
}  // namespace ptim::fft::simd::detail

#else  // !defined(__AVX2__)

namespace ptim::fft::simd::detail {
const PassKernels<double>* avx2_kernels_f64() { return nullptr; }
const PassKernels<float>* avx2_kernels_f32() { return nullptr; }
}  // namespace ptim::fft::simd::detail

#endif
