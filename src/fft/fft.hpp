#pragma once
// Complex FFTs written from scratch (no FFTW/cuFFT on this machine).
//
// Plan1DT<R>: mixed-radix Cooley–Tukey for sizes whose prime factors are in
// {2,3,5,7}, run as stages of constant-coefficient radix-2/3/4/5/7
// codelets (fft/codelets.hpp) with per-stage twiddle tables, and a
// Bluestein chirp-z fallback for anything else. Fft3T<R>: in-place 3-D
// transform over a column-major (i0 fastest) box, parallelized over
// independent lines with OpenMP — the drop-in stand-in for the batched
// cuFFT/FFTW calls in PWDFT's Fock-exchange inner loop.
//
// Both engines are templated over the scalar type R and instantiated for
// float and double: the FP32 instantiation carries the exact-exchange hot
// path (pair-density transforms and ring payloads) while the propagated
// trajectory stays in FP64. Twiddle/chirp tables are always computed in
// double and rounded once, so the float transforms lose no accuracy to
// table generation. This is also the seam a GPU/SVE backend would plug
// into — the codelets are already scalar-generic.
//
// Conventions: forward = sum_j x_j e^{-2 pi i jk/n} (no scaling);
//              inverse = sum_j x_j e^{+2 pi i jk/n} scaled by 1/n,
// so inverse(forward(x)) == x.
//
// Batched path: Plan1DT::*_many transform a tile of independent lines stored
// element-major (element k of line l at in[k*vlen + l]), so every twiddle
// factor is fetched once per codelet and applied across the whole tile in
// a contiguous, vectorizable inner loop. The single-line transforms are
// width-1 tiles of the same engine. Fft3T::forward_batch/inverse_batch run
// a contiguous batch of 3-D arrays through that machinery with one OpenMP
// region and per-thread tile scratch — the stand-in for the batched
// cuFFT/rocFFT calls that dominate the paper's exact-exchange apply.
//
// The engines are complex-to-complex only. Real (Γ-point) fields ride them
// two to a lane, packed by the one caller that needs it: the exchange pair
// engine (ham::ExchangeOperator::run_pairs), whose real-even kernel filters
// both residents of a lane exactly, so no spectrum unscramble exists.

#include <array>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fft/simd.hpp"

namespace ptim::fft {

template <typename R>
class Plan1DT {
 public:
  using C = std::complex<R>;

  explicit Plan1DT(size_t n);

  size_t size() const { return n_; }

  // Out-of-place transforms; in == out is allowed (internal copy).
  void forward(const C* in, C* out) const;
  // Unscaled inverse (conjugate-exponent transform).
  void inverse_unscaled(const C* in, C* out) const;
  // Scaled inverse: inverse_unscaled / n.
  void inverse(const C* in, C* out) const;

  // Vector transforms over `vlen` independent lines, element-major:
  // line l's element k lives at in[k*vlen + l] (and likewise in out).
  // in == out is NOT allowed (checked), and vlen must be <= kMaxTile
  // (checked) — both used to corrupt data silently.
  static constexpr size_t kMaxTile = 16;
  void forward_many(const C* in, C* out, size_t vlen) const;
  void inverse_unscaled_many(const C* in, C* out, size_t vlen) const;
  void inverse_many(const C* in, C* out, size_t vlen) const;

  // Split-plane (SoA) vector transforms: the same element-major tiles, but
  // real and imaginary parts live in separate R planes ([k*vlen + l] each).
  // This is the layout the batched 3-D engine gathers into: separate
  // re/im streams auto-vectorize at baseline ISAs, where interleaved
  // complex<float> lanes would need cross-lane shuffles (measured ~2x for
  // FP32 over the interleaved tile). Aliasing between any input and output
  // plane is NOT allowed (checked via the re planes).
  void forward_many_split(const R* in_re, const R* in_im, R* out_re,
                          R* out_im, size_t vlen) const;
  void inverse_unscaled_many_split(const R* in_re, const R* in_im, R* out_re,
                                   R* out_im, size_t vlen) const;
  void inverse_many_split(const R* in_re, const R* in_im, R* out_re,
                          R* out_im, size_t vlen) const;

 private:
  void transform(const C* in, C* out, bool fwd) const;
  void bluestein(const C* in, C* out, bool fwd) const;
  void transform_many(const C* in, C* out, size_t vlen, bool fwd) const;
  void transform_many_split(const R* in_re, const R* in_im, R* out_re,
                            R* out_im, size_t vlen, bool fwd) const;
  // Forward transform of stage s (length n, input lines `stride` rows
  // apart) into contiguous rows: radix_[s] sub-transforms, then the
  // stage's twiddled codelet — or the leaf codelet at the last stage. The
  // codelets run through the SIMD kernel table `ker`, selected ONCE per
  // transform_many_split call (fft/simd.hpp) — the runtime-dispatch seam
  // shared by the serial and distributed engines.
  void run_stage(size_t s, size_t n, const R* in_re, const R* in_im,
                 size_t stride, R* out_re, R* out_im, size_t vlen,
                 const simd::PassKernels<R>& ker) const;

  size_t n_ = 0;
  bool use_bluestein_ = false;
  // Cooley–Tukey radices, outermost stage first, radix 4 before 2 before
  // the odd primes (14 = 2*7, 28 = 4*7); the last one is the leaf. Stage s
  // (length len, m = len / r) owns the twiddles w_len^{j*k2}, j = 1..r-1,
  // k2 < m, at tw_re_/tw_im_[tw_off_[s] + k2*(r-1) + j-1].
  std::vector<size_t> radix_;
  std::vector<size_t> tw_off_;
  std::vector<R> tw_re_, tw_im_;

  // Bluestein precomputation.
  size_t m_ = 0;                           // power-of-two convolution size
  std::vector<C> chirp_;                   // e^{-i pi k^2 / n}
  std::vector<C> bfft_;                    // FFT of the chirp filter
  std::unique_ptr<Plan1DT<R>> conv_plan_;  // power-of-two inner plan
};

using Plan1D = Plan1DT<real_t>;
using Plan1Df = Plan1DT<realf_t>;

// Smallest m >= n with prime factors only in {2,3,5,7} ("FFT-friendly").
size_t next_fft_size(size_t n);

// Returns true when n factors into {2,3,5,7} primes only.
bool fft_size_ok(size_t n);

// `count` consecutive lines of one axis of a box; the first one starts at
// element `offset` of the box. A run list names a subset of an axis's
// lines in line order (fft/axis_pass.hpp walks it).
struct LineRun {
  size_t offset;
  size_t count;
};

// The axis-1 and axis-2 lines a transform of band-limited data visits: the
// G-sphere's "sticks" (pw::SphereGridMap builds them from its scatter map).
// `x` lists the i0 of the axis-1 lines of one xy plane, the same in every
// plane; `columns` lists the axis-2 lines of one box by i0 + n0*i1. Axis 0
// always runs every line. Every i0 of a column must be in `x`.
struct LineSubset {
  std::vector<LineRun> x;
  std::vector<LineRun> columns;
};

template <typename R>
class Fft3T {
 public:
  using C = std::complex<R>;

  Fft3T(size_t n0, size_t n1, size_t n2);

  size_t n0() const { return n0_; }
  size_t n1() const { return n1_; }
  size_t n2() const { return n2_; }
  size_t size() const { return n0_ * n1_ * n2_; }

  // In-place transforms on a size()-element array, index i0 + n0*(i1 + n1*i2).
  // The forward transform sweeps axes 0 -> 1 -> 2; the inverse sweeps
  // 2 -> 1 -> 0. The reversed inverse order is load-bearing: it lets the
  // z-slab-distributed transform (fft::DistFft3) reproduce this engine
  // bit-for-bit with a single pencil transpose per direction.
  //
  // Every entry point takes an optional line subset (absent = every line).
  // With one, the inverse runs only the listed axis-2 and axis-1 lines and
  // requires the input to be zero outside the listed columns; its output
  // equals the full transform's (an exact zero may change sign). The
  // forward computes only the listed lines: entries in the listed columns
  // equal the full transform's bit for bit, all others are left undefined.
  void forward(C* data, const LineSubset* lines = nullptr) const;
  void inverse(C* data, const LineSubset* lines = nullptr) const;  // 1/size()
  // inverse() without the 1/size() scale, for callers that fold it into a
  // pass of their own.
  void inverse_unscaled(C* data, const LineSubset* lines = nullptr) const;

  // In-place transforms on `nbatch` consecutive size()-element arrays.
  // Lines from the whole batch are tiled through the vector 1-D transforms
  // inside a single OpenMP region with per-thread scratch. Single-array
  // forward()/inverse() are width-1 batches of the SAME engine, so batched
  // and single calls are bit-identical per array by construction.
  void forward_batch(C* data, size_t nbatch,
                     const LineSubset* lines = nullptr) const;
  void inverse_batch(C* data, size_t nbatch,
                     const LineSubset* lines = nullptr) const;  // 1/size()

 private:
  enum class Dir { kForward, kInverse };
  void transform_batch(C* data, size_t nbatch, Dir dir,
                       const LineSubset* lines) const;

  size_t n0_, n1_, n2_;
  Plan1DT<R> p0_, p1_, p2_;
};

using Fft3 = Fft3T<real_t>;
using Fft3f = Fft3T<realf_t>;

extern template class Plan1DT<float>;
extern template class Plan1DT<double>;
extern template class Fft3T<float>;
extern template class Fft3T<double>;

}  // namespace ptim::fft
