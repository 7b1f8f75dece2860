#pragma once
// Constant-coefficient radix-2/3/4/5/7 codelets of the split-plane tile
// FFT (fft/simd.hpp), written once as plain per-lane loops over the tile's
// lines (element k of lane l at [k*vlen + l]).
//
// Included ONLY by the four kernel TUs (simd_scalar.cpp, simd_avx2.cpp,
// simd_avx512.cpp, simd_neon.cpp), each compiled with its own -m<isa> flag,
// so the compiler vectorizes the lane loops to whatever width that ISA
// offers. Two rules keep the tables apart and alike:
//  - Everything here has internal linkage and calls no library code (raw R
//    arrays; no std::complex accessors, std::fill or std::copy), and all
//    lane code is noexcept, so not even an exception-handling reference is
//    emitted. Each TU keeps its own copy, and the linker can never merge a
//    same-named inline instance compiled under one -m flag into another
//    ISA's table (scripts/check_isa_objects.py checks the objects).
//  - Each lane runs the same IEEE operation sequence whatever the vector
//    width: the TUs are built with -ffp-contract=off and nothing is
//    reassociated, so every ISA is bitwise-identical to the scalar table.
// The lane loops carry `#pragma omp simd`: without it GCC gives up on the
// run-time alias checks between the ~14 row pointers of a 7-point codelet
// and leaves the loop scalar.
//
// Radices 3, 5 and 7 use the symmetric-pair form: with a_k = x_k + x_{r-k}
// and b_k = x_k - x_{r-k},
//   y_q     = x_0 + sum_k cos(2 pi qk/r) a_k - i sum_k sin(2 pi qk/r) b_k,
//   y_{r-q} = the same with +i,
// so a radix-7 codelet costs 36 real multiplies instead of the direct DFT's
// 196. Radices 2 and 4 need no multiplies.

#include <cstddef>

#include "fft/simd.hpp"

namespace ptim::fft::simd::detail {
namespace {

// cos(2 pi k/r) and sin(2 pi k/r), correctly rounded doubles; cast to float
// each is also the correctly rounded float.
constexpr double kSin3 = 0.86602540378443864676372317075293618;
constexpr double kCos5a = 0.30901699437494742410229341718281906;
constexpr double kCos5b = -0.80901699437494742410229341718281906;
constexpr double kSin5a = 0.95105651629515357211643933337938214;
constexpr double kSin5b = 0.58778525229247312916870595463907277;
constexpr double kCos7a = 0.62348980185873353052500488400423981;
constexpr double kCos7b = -0.22252093395631440428890256449679476;
constexpr double kCos7c = -0.90096886790241912623610231950744505;
constexpr double kSin7a = 0.78183148246802980870844452667405775;
constexpr double kSin7b = 0.97492791218182360701813168299393122;
constexpr double kSin7c = 0.43388373911755812047576833284835875;

// y_q = p - i q and y_{r-q} = p + i q of the symmetric-pair form.
template <typename R>
inline void pair_out(R pr, R pi, R qr, R qi, R& yqr, R& yqi, R& ynr,
                     R& yni) noexcept {
  yqr = pr + qi;
  yqi = pi - qr;
  ynr = pr - qi;
  yni = pi + qr;
}

// Forward DFT_r of one lane, in place: y_k = sum_j x_j e^{-2 pi i jk/r}.
template <typename R>
inline void dft(R (&xr)[2], R (&xi)[2]) noexcept {
  const R sr = xr[0] + xr[1], si = xi[0] + xi[1];
  xr[1] = xr[0] - xr[1];
  xi[1] = xi[0] - xi[1];
  xr[0] = sr;
  xi[0] = si;
}

template <typename R>
inline void dft(R (&xr)[3], R (&xi)[3]) noexcept {
  const R s = static_cast<R>(kSin3);
  const R ar = xr[1] + xr[2], ai = xi[1] + xi[2];
  const R qr = s * (xr[1] - xr[2]), qi = s * (xi[1] - xi[2]);
  const R pr = xr[0] + R(-0.5) * ar, pi = xi[0] + R(-0.5) * ai;
  xr[0] = xr[0] + ar;
  xi[0] = xi[0] + ai;
  pair_out(pr, pi, qr, qi, xr[1], xi[1], xr[2], xi[2]);
}

template <typename R>
inline void dft(R (&xr)[4], R (&xi)[4]) noexcept {
  const R t0r = xr[0] + xr[2], t0i = xi[0] + xi[2];
  const R t1r = xr[0] - xr[2], t1i = xi[0] - xi[2];
  const R t2r = xr[1] + xr[3], t2i = xi[1] + xi[3];
  const R t3r = xr[1] - xr[3], t3i = xi[1] - xi[3];
  xr[0] = t0r + t2r;
  xi[0] = t0i + t2i;
  xr[2] = t0r - t2r;
  xi[2] = t0i - t2i;
  pair_out(t1r, t1i, t3r, t3i, xr[1], xi[1], xr[3], xi[3]);
}

template <typename R>
inline void dft(R (&xr)[5], R (&xi)[5]) noexcept {
  const R c1 = static_cast<R>(kCos5a), c2 = static_cast<R>(kCos5b);
  const R s1 = static_cast<R>(kSin5a), s2 = static_cast<R>(kSin5b);
  const R a1r = xr[1] + xr[4], a1i = xi[1] + xi[4];
  const R b1r = xr[1] - xr[4], b1i = xi[1] - xi[4];
  const R a2r = xr[2] + xr[3], a2i = xi[2] + xi[3];
  const R b2r = xr[2] - xr[3], b2i = xi[2] - xi[3];
  const R x0r = xr[0], x0i = xi[0];
  xr[0] = x0r + a1r + a2r;
  xi[0] = x0i + a1i + a2i;
  pair_out(x0r + c1 * a1r + c2 * a2r, x0i + c1 * a1i + c2 * a2i,
           s1 * b1r + s2 * b2r, s1 * b1i + s2 * b2i, xr[1], xi[1], xr[4],
           xi[4]);
  pair_out(x0r + c2 * a1r + c1 * a2r, x0i + c2 * a1i + c1 * a2i,
           s2 * b1r - s1 * b2r, s2 * b1i - s1 * b2i, xr[2], xi[2], xr[3],
           xi[3]);
}

template <typename R>
inline void dft(R (&xr)[7], R (&xi)[7]) noexcept {
  const R c1 = static_cast<R>(kCos7a);
  const R c2 = static_cast<R>(kCos7b);
  const R c3 = static_cast<R>(kCos7c);
  const R s1 = static_cast<R>(kSin7a);
  const R s2 = static_cast<R>(kSin7b);
  const R s3 = static_cast<R>(kSin7c);
  const R a1r = xr[1] + xr[6], a1i = xi[1] + xi[6];
  const R b1r = xr[1] - xr[6], b1i = xi[1] - xi[6];
  const R a2r = xr[2] + xr[5], a2i = xi[2] + xi[5];
  const R b2r = xr[2] - xr[5], b2i = xi[2] - xi[5];
  const R a3r = xr[3] + xr[4], a3i = xi[3] + xi[4];
  const R b3r = xr[3] - xr[4], b3i = xi[3] - xi[4];
  const R x0r = xr[0], x0i = xi[0];
  xr[0] = x0r + a1r + a2r + a3r;
  xi[0] = x0i + a1i + a2i + a3i;
  pair_out(x0r + c1 * a1r + c2 * a2r + c3 * a3r,
           x0i + c1 * a1i + c2 * a2i + c3 * a3i,
           s1 * b1r + s2 * b2r + s3 * b3r, s1 * b1i + s2 * b2i + s3 * b3i,
           xr[1], xi[1], xr[6], xi[6]);
  pair_out(x0r + c2 * a1r + c3 * a2r + c1 * a3r,
           x0i + c2 * a1i + c3 * a2i + c1 * a3i,
           s2 * b1r - s3 * b2r - s1 * b3r, s2 * b1i - s3 * b2i - s1 * b3i,
           xr[2], xi[2], xr[5], xi[5]);
  pair_out(x0r + c3 * a1r + c1 * a2r + c2 * a3r,
           x0i + c3 * a1i + c1 * a2i + c2 * a3i,
           s3 * b1r - s1 * b2r + s2 * b3r, s3 * b1i - s1 * b2i + s2 * b3i,
           xr[3], xi[3], xr[4], xi[4]);
}

// Lane l of a radix-P codelet: x_j = input row j (rows `is` elements
// apart), times twiddle (wr, wi)[j] for j >= 1 when kTwiddle, then DFT_P
// into output row k (rows `os` apart). Reads all its rows before writing,
// so in place (in == out) is allowed.
template <typename R, size_t P, bool kTwiddle>
inline void codelet_lane(const R* in_re, const R* in_im, size_t is,
                         R* out_re, R* out_im, size_t os, const R* wr,
                         const R* wi, size_t l) noexcept {
  R xr[P], xi[P];
  for (size_t j = 0; j < P; ++j) {
    const R a = in_re[j * is + l], b = in_im[j * is + l];
    const bool twiddled = kTwiddle && j > 0;
    xr[j] = twiddled ? wr[j] * a - wi[j] * b : a;
    xi[j] = twiddled ? wr[j] * b + wi[j] * a : b;
  }
  dft(xr, xi);
  for (size_t k = 0; k < P; ++k) {
    out_re[k * os + l] = xr[k];
    out_im[k * os + l] = xi[k];
  }
}

// The lane loop of one codelet over `vlen` lanes; (tw_re, tw_im) hold
// twiddles 1..P-1 when kTwiddle. The lane body is a separate function so
// its arrays are ordinary locals: arrays declared inside an omp simd loop
// become per-lane privatized copies, and GCC then leaves the loop scalar.
template <typename R, size_t P, bool kTwiddle>
void codelet_rows(const R* in_re, const R* in_im, size_t is, R* out_re,
                  R* out_im, size_t os, const R* tw_re, const R* tw_im,
                  size_t vlen) {
  R wr[P] = {}, wi[P] = {};
  if (kTwiddle) {
    for (size_t j = 1; j < P; ++j) {
      wr[j] = tw_re[j - 1];
      wi[j] = tw_im[j - 1];
    }
  }
#pragma omp simd
  for (size_t l = 0; l < vlen; ++l)
    codelet_lane<R, P, kTwiddle>(in_re, in_im, is, out_re, out_im, os, wr,
                                 wi, l);
}

// PassKernels::Leaf for radix P.
template <typename R, size_t P>
void leaf(const R* in_re, const R* in_im, size_t in_rows, R* out_re,
          R* out_im, size_t vlen) {
  codelet_rows<R, P, false>(in_re, in_im, in_rows * vlen, out_re, out_im,
                            vlen, nullptr, nullptr, vlen);
}

// PassKernels::Stage for radix P: column 0's twiddles are all 1.
template <typename R, size_t P>
void stage(size_t m, R* re, R* im, const R* tw_re, const R* tw_im,
           size_t vlen) {
  const size_t s = m * vlen;
  codelet_rows<R, P, false>(re, im, s, re, im, s, nullptr, nullptr, vlen);
  for (size_t k2 = 1; k2 < m; ++k2) {
    const size_t o = k2 * vlen, t = k2 * (P - 1);
    codelet_rows<R, P, true>(re + o, im + o, s, re + o, im + o, s, tw_re + t,
                             tw_im + t, vlen);
  }
}

template <typename R>
constexpr PassKernels<R> make_kernels() {
  return {{nullptr, nullptr, &leaf<R, 2>, &leaf<R, 3>, &leaf<R, 4>,
           &leaf<R, 5>, nullptr, &leaf<R, 7>},
          {nullptr, nullptr, &stage<R, 2>, &stage<R, 3>, &stage<R, 4>,
           &stage<R, 5>, nullptr, &stage<R, 7>}};
}

// This TU's own tables (internal linkage, one copy per ISA unit).
const PassKernels<double> kKernelsF64 = make_kernels<double>();
const PassKernels<float> kKernelsF32 = make_kernels<float>();

}  // namespace
}  // namespace ptim::fft::simd::detail
