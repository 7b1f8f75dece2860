// Per-ISA kernel table lookup of the dispatched FFT codelets
// (fft/simd.hpp); the ISA itself is chosen in common/isa.hpp.

#include "fft/simd.hpp"

namespace ptim::fft::simd {

using isa::Isa;

namespace {

template <typename R>
const PassKernels<R>* table_for(Isa isa);

template <>
const PassKernels<double>* table_for<double>(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return detail::scalar_kernels_f64();
    case Isa::kAvx2: return detail::avx2_kernels_f64();
    case Isa::kAvx512: return detail::avx512_kernels_f64();
    case Isa::kNeon: return detail::neon_kernels_f64();
  }
  return nullptr;
}

template <>
const PassKernels<float>* table_for<float>(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return detail::scalar_kernels_f32();
    case Isa::kAvx2: return detail::avx2_kernels_f32();
    case Isa::kAvx512: return detail::avx512_kernels_f32();
    case Isa::kNeon: return detail::neon_kernels_f32();
  }
  return nullptr;
}

}  // namespace

template <>
const PassKernels<double>& pass_kernels<double>(Isa isa) {
  const PassKernels<double>* k = table_for<double>(isa);
  return k != nullptr ? *k : *detail::scalar_kernels_f64();
}

template <>
const PassKernels<float>& pass_kernels<float>(Isa isa) {
  const PassKernels<float>* k = table_for<float>(isa);
  return k != nullptr ? *k : *detail::scalar_kernels_f32();
}

}  // namespace ptim::fft::simd
