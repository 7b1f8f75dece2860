#pragma once
// Runtime-dispatched SIMD kernels for the split-plane tile FFT engine.
//
// Plan1DT<R> runs every transform as Cooley–Tukey stages of radix 2, 3, 4,
// 5 or 7: a leaf codelet (strided input, no twiddles) at the bottom and a
// twiddled stage codelet per combine above it. The codelets are written
// once, as plain per-lane loops over the tile's lines, in
// fft/codelets.hpp. Each ISA's translation unit (scalar baseline, AVX2,
// AVX-512F, NEON) includes that one source, is compiled with its own
// -m<isa> flag and -ffp-contract=off, and exports the resulting table
// below. No lane's operation sequence depends on the vector width and
// nothing is fused or reassociated, so EVERY ISA is bitwise-identical to
// the scalar path in both FP64 and FP32 by construction — pinned by
// tests/test_fft_conformance.cpp.
//
// The ISA is the one choice of common/isa.hpp (isa::force, PTIM_SIMD, or
// the best available), shared with the la lanes. The seam sits under
// Plan1DT::transform_many_split, which both the serial batched engine
// (Fft3T via fft/axis_pass.hpp) and the distributed slab engine (DistFft3T)
// drive — one dispatch covers both.

#include <cstddef>

#include "common/isa.hpp"

namespace ptim::fft::simd {

// The codelets of one (scalar type, ISA) pair, indexed by radix (null
// outside {2, 3, 4, 5, 7}). Both operate on element-major split-plane
// tiles of `vlen` lanes: element k of lane l at [k*vlen + l].
inline constexpr size_t kRadixSlots = 8;
template <typename R>
struct PassKernels {
  // Leaf: out row k = sum_j w_r^{jk} in row j, forward sign, for r input
  // rows `in_rows` rows apart and r contiguous output rows.
  using Leaf = void (*)(const R* in_re, const R* in_im, size_t in_rows,
                        R* out_re, R* out_im, size_t vlen);
  // Stage, in place over r contiguous blocks of m rows: for each column
  // k2 < m, row j*m + k2 is multiplied by twiddle (tw_re, tw_im)[k2*(r-1)
  // + j-1] (j >= 1; column 0 is untwiddled), then the r rows of the
  // column are combined by the radix-r codelet.
  using Stage = void (*)(size_t m, R* re, R* im, const R* tw_re,
                         const R* tw_im, size_t vlen);
  Leaf leaf[kRadixSlots];
  Stage stage[kRadixSlots];
};

// Kernel table of one ISA; falls back to the scalar table when the ISA is
// not available in this build.
template <typename R>
const PassKernels<R>& pass_kernels(isa::Isa isa);

template <>
const PassKernels<double>& pass_kernels<double>(isa::Isa isa);
template <>
const PassKernels<float>& pass_kernels<float>(isa::Isa isa);

namespace detail {
// Per-TU kernel table getters; nullptr when the TU was compiled without
// that ISA (missing compiler flag or foreign architecture).
const PassKernels<double>* scalar_kernels_f64();
const PassKernels<float>* scalar_kernels_f32();
const PassKernels<double>* avx2_kernels_f64();
const PassKernels<float>* avx2_kernels_f32();
const PassKernels<double>* avx512_kernels_f64();
const PassKernels<float>* avx512_kernels_f32();
const PassKernels<double>* neon_kernels_f64();
const PassKernels<float>* neon_kernels_f32();
}  // namespace detail

}  // namespace ptim::fft::simd
