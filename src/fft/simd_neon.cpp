// NEON (AArch64 Advanced SIMD) table of the dispatched FFT codelets
// (fft/simd.hpp) — the paper's A64FX/ARM target. NEON is baseline on
// AArch64, so the one codelet source (fft/codelets.hpp) needs no extra
// compiler flag; an empty fallback TU is produced on other architectures.
// The TU is compiled with -ffp-contract=off (no fused vmla/vfma), so the
// results are bitwise-identical to the scalar table.

#include "fft/simd.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include "fft/codelets.hpp"

namespace ptim::fft::simd::detail {
const PassKernels<double>* neon_kernels_f64() { return &kKernelsF64; }
const PassKernels<float>* neon_kernels_f32() { return &kKernelsF32; }
}  // namespace ptim::fft::simd::detail

#else  // not AArch64 NEON

namespace ptim::fft::simd::detail {
const PassKernels<double>* neon_kernels_f64() { return nullptr; }
const PassKernels<float>* neon_kernels_f32() { return nullptr; }
}  // namespace ptim::fft::simd::detail

#endif
