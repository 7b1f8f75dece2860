#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fft/axis_pass.hpp"
#include "fft/simd.hpp"

namespace ptim::fft {

namespace {

bool factors_into_small_primes(size_t n) {
  for (size_t p : {size_t{2}, size_t{3}, size_t{5}, size_t{7}})
    while (n % p == 0) n /= p;
  return n == 1;
}

// Twiddle/chirp angles are evaluated in double regardless of the plan's
// scalar type, then rounded once — the float tables carry no generation
// error beyond the final rounding.
template <typename R>
std::complex<R> unit_root(double ang) {
  return {static_cast<R>(std::cos(ang)), static_cast<R>(std::sin(ang))};
}

}  // namespace

bool fft_size_ok(size_t n) { return n >= 1 && factors_into_small_primes(n); }

size_t next_fft_size(size_t n) {
  if (n < 1) return 1;
  while (!factors_into_small_primes(n)) ++n;
  return n;
}

template <typename R>
Plan1DT<R>::Plan1DT(size_t n) : n_(n) {
  PTIM_CHECK_MSG(n >= 1, "Plan1D: size must be positive");
  use_bluestein_ = !factors_into_small_primes(n) && n > 1;
  if (!use_bluestein_) {
    size_t rest = n;
    for (size_t r : {size_t{4}, size_t{2}, size_t{3}, size_t{5}, size_t{7}})
      for (; rest % r == 0; rest /= r) radix_.push_back(r);
    size_t len = n;
    for (size_t s = 0; s + 1 < radix_.size(); ++s) {
      const size_t r = radix_[s], m = len / r;
      tw_off_.push_back(tw_re_.size());
      for (size_t k2 = 0; k2 < m; ++k2)
        for (size_t j = 1; j < r; ++j) {
          const double ang = -kTwoPi * static_cast<double>((j * k2) % len) /
                             static_cast<double>(len);
          const C w = unit_root<R>(ang);
          tw_re_.push_back(w.real());
          tw_im_.push_back(w.imag());
        }
      len = m;
    }
  } else {
    const double dn = static_cast<double>(n);
    m_ = 1;
    while (m_ < 2 * n - 1) m_ *= 2;
    conv_plan_ = std::make_unique<Plan1DT<R>>(m_);
    chirp_.resize(n);
    for (size_t k = 0; k < n; ++k) {
      // e^{-i pi k^2 / n}; reduce k^2 mod 2n to keep the angle accurate.
      const size_t k2 = (k * k) % (2 * n);
      const double ang = -kPi * static_cast<double>(k2) / dn;
      chirp_[k] = unit_root<R>(ang);
    }
    // Filter b_j = conj(chirp) extended circularly; precompute its FFT.
    std::vector<C> b(m_, C(0.0));
    b[0] = std::conj(chirp_[0]);
    for (size_t k = 1; k < n; ++k) {
      b[k] = std::conj(chirp_[k]);
      b[m_ - k] = std::conj(chirp_[k]);
    }
    bfft_.resize(m_);
    conv_plan_->forward(b.data(), bfft_.data());
  }
}

template <typename R>
void Plan1DT<R>::forward(const C* in, C* out) const {
  transform(in, out, true);
}

template <typename R>
void Plan1DT<R>::inverse_unscaled(const C* in, C* out) const {
  transform(in, out, false);
}

template <typename R>
void Plan1DT<R>::inverse(const C* in, C* out) const {
  transform(in, out, false);
  const R inv = R(1) / static_cast<R>(n_);
  for (size_t i = 0; i < n_; ++i) out[i] *= inv;
}

// A single line is a width-1 tile of the same engine.
template <typename R>
void Plan1DT<R>::transform(const C* in, C* out, bool fwd) const {
  if (in == out) {
    const std::vector<C> copy(in, in + n_);
    transform_many(copy.data(), out, 1, fwd);
  } else {
    transform_many(in, out, 1, fwd);
  }
}

template <typename R>
void Plan1DT<R>::forward_many(const C* in, C* out, size_t vlen) const {
  transform_many(in, out, vlen, true);
}

template <typename R>
void Plan1DT<R>::inverse_unscaled_many(const C* in, C* out, size_t vlen) const {
  transform_many(in, out, vlen, false);
}

template <typename R>
void Plan1DT<R>::inverse_many(const C* in, C* out, size_t vlen) const {
  transform_many(in, out, vlen, false);
  const R inv = R(1) / static_cast<R>(n_);
  for (size_t i = 0; i < n_ * vlen; ++i) out[i] *= inv;
}

// Interleaved-tile entry points: thin de/re-interleaving wrappers over the
// split-plane engine, for single lines and callers that hold complex tiles
// (the 3-D batch engine gathers into planes directly and skips this copy).
template <typename R>
void Plan1DT<R>::transform_many(const C* in, C* out, size_t vlen,
                                bool fwd) const {
  PTIM_CHECK_MSG(vlen >= 1 && vlen <= kMaxTile,
                 "Plan1D: vlen outside [1, kMaxTile]");
  PTIM_CHECK_MSG(in != out,
                 "Plan1D: *_many transforms do not support in == out aliasing");
  if (n_ == 1) {
    std::copy(in, in + vlen, out);
    return;
  }
  std::vector<R> ir(n_ * vlen), ii(n_ * vlen), wr(n_ * vlen), wi(n_ * vlen);
  for (size_t i = 0; i < n_ * vlen; ++i) {
    ir[i] = in[i].real();
    ii[i] = in[i].imag();
  }
  transform_many_split(ir.data(), ii.data(), wr.data(), wi.data(), vlen, fwd);
  for (size_t i = 0; i < n_ * vlen; ++i) out[i] = C(wr[i], wi[i]);
}

template <typename R>
void Plan1DT<R>::forward_many_split(const R* in_re, const R* in_im, R* out_re,
                                    R* out_im, size_t vlen) const {
  transform_many_split(in_re, in_im, out_re, out_im, vlen, true);
}

template <typename R>
void Plan1DT<R>::inverse_unscaled_many_split(const R* in_re, const R* in_im,
                                             R* out_re, R* out_im,
                                             size_t vlen) const {
  transform_many_split(in_re, in_im, out_re, out_im, vlen, false);
}

template <typename R>
void Plan1DT<R>::inverse_many_split(const R* in_re, const R* in_im, R* out_re,
                                    R* out_im, size_t vlen) const {
  transform_many_split(in_re, in_im, out_re, out_im, vlen, false);
  const R inv = R(1) / static_cast<R>(n_);
  for (size_t i = 0; i < n_ * vlen; ++i) {
    out_re[i] *= inv;
    out_im[i] *= inv;
  }
}

template <typename R>
void Plan1DT<R>::transform_many_split(const R* in_re, const R* in_im,
                                      R* out_re, R* out_im, size_t vlen,
                                      bool fwd) const {
  PTIM_CHECK_MSG(vlen >= 1 && vlen <= kMaxTile,
                 "Plan1D: vlen outside [1, kMaxTile]");
  PTIM_CHECK_MSG(in_re != out_re && in_re != out_im && in_im != out_re &&
                     in_im != out_im,
                 "Plan1D: *_many transforms do not support aliased planes");
  if (n_ == 1) {
    std::copy(in_re, in_re + vlen, out_re);
    std::copy(in_im, in_im + vlen, out_im);
    return;
  }
  if (use_bluestein_) {
    // Bluestein sizes never occur on FFT-friendly grids; keep the fallback
    // simple: re-interleave each line and run the scalar chirp transform.
    std::vector<C> line(n_), res(n_);
    for (size_t l = 0; l < vlen; ++l) {
      for (size_t k = 0; k < n_; ++k)
        line[k] = C(in_re[k * vlen + l], in_im[k * vlen + l]);
      bluestein(line.data(), res.data(), fwd);
      for (size_t k = 0; k < n_; ++k) {
        out_re[k * vlen + l] = res[k].real();
        out_im[k * vlen + l] = res[k].imag();
      }
    }
    return;
  }
  // The inverse is the forward transform of the swapped planes: with
  // swap(a + ib) = b + ia, swap(DFT(swap(x))) is the unscaled inverse DFT,
  // so one set of forward codelets and twiddles serves both directions.
  if (!fwd) {
    std::swap(in_re, in_im);
    std::swap(out_re, out_im);
  }
  // Fetch the active ISA's kernel table once per transform; the stages
  // below touch data only through it.
  const simd::PassKernels<R>& ker = simd::pass_kernels<R>(isa::active());
  run_stage(0, n_, in_re, in_im, 1, out_re, out_im, vlen, ker);
}

// Decimation in time: stage s reads r interleaved subsequences of its
// input (every r-th line row), transforms each into a contiguous block of
// m rows, and combines the blocks in place with the twiddled radix-r
// codelet: X[q*m + k2] = sum_j w_r^{jq} (w_n^{j k2} Y_j[k2]).
template <typename R>
void Plan1DT<R>::run_stage(size_t s, size_t n, const R* in_re,
                           const R* in_im, size_t stride, R* out_re,
                           R* out_im, size_t vlen,
                           const simd::PassKernels<R>& ker) const {
  const size_t r = radix_[s];
  if (s + 1 == radix_.size()) {
    ker.leaf[r](in_re, in_im, stride, out_re, out_im, vlen);
    return;
  }
  const size_t m = n / r;
  for (size_t j = 0; j < r; ++j)
    run_stage(s + 1, m, in_re + j * stride * vlen, in_im + j * stride * vlen,
              stride * r, out_re + j * m * vlen, out_im + j * m * vlen, vlen,
              ker);
  ker.stage[r](m, out_re, out_im, tw_re_.data() + tw_off_[s],
               tw_im_.data() + tw_off_[s], vlen);
}

template <typename R>
void Plan1DT<R>::bluestein(const C* in, C* out, bool fwd) const {
  const size_t n = n_;
  std::vector<C> a(m_, C(0.0)), afft(m_);
  for (size_t k = 0; k < n; ++k) {
    const C c = fwd ? chirp_[k] : std::conj(chirp_[k]);
    a[k] = in[k] * c;
  }
  conv_plan_->forward(a.data(), afft.data());
  if (fwd) {
    for (size_t k = 0; k < m_; ++k) afft[k] *= bfft_[k];
  } else {
    // Inverse chirp filter is the conjugate; its FFT is index-reversed conj.
    for (size_t k = 0; k < m_; ++k) {
      const size_t rk = (m_ - k) % m_;
      afft[k] *= std::conj(bfft_[rk]);
    }
  }
  conv_plan_->inverse(afft.data(), a.data());
  for (size_t k = 0; k < n; ++k) {
    const C c = fwd ? chirp_[k] : std::conj(chirp_[k]);
    out[k] = a[k] * c;
  }
}

template <typename R>
Fft3T<R>::Fft3T(size_t n0, size_t n1, size_t n2)
    : n0_(n0), n1_(n1), n2_(n2), p0_(n0), p1_(n1), p2_(n2) {}

template <typename R>
void Fft3T<R>::forward_batch(C* data, size_t nbatch,
                             const LineSubset* lines) const {
  if (nbatch == 0) return;
  transform_batch(data, nbatch, Dir::kForward, lines);
}

template <typename R>
void Fft3T<R>::inverse_batch(C* data, size_t nbatch,
                             const LineSubset* lines) const {
  if (nbatch == 0) return;
  transform_batch(data, nbatch, Dir::kInverse, lines);
  const R s = R(1) / static_cast<R>(size());
  const size_t total = nbatch * size();
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < total; ++i) data[i] *= s;
}

// The whole batch runs through the shared axis pass (fft/axis_pass.hpp):
// lines are gathered in tiles of kMaxTile into element-major SPLIT-PLANE
// scratch (the de-interleave rides along with the gather for free), pushed
// through the split vector 1-D transforms (twiddles amortized over the
// tile, R-wide vectorization over the lanes), and scattered back.
// Consecutive line indices are chosen so that tile gathers walk memory
// contiguously on the strided axes. The distributed slab engine
// (DistFft3T) calls the SAME axis_pass on the same BoxAxes line sets over
// its local extents, which is what makes it bit-identical to this engine
// by construction.
//
// Axis order: forward sweeps 0 -> 1 -> 2, the inverse sweeps 2 -> 1 -> 0.
// The reversed inverse is what makes a z-slab-distributed transform
// bit-identical with one transpose per direction: both directions touch
// the z axis only while the data is pencil-distributed (full z). It is
// also what lets a line subset prune both directions alike: the inverse
// skips axis-2 lines that hold only zeros and then axis-1 lines that
// still do, the forward skips the axis-1 and axis-2 lines whose outputs
// no listed column reads.
template <typename R>
void Fft3T<R>::transform_batch(C* data, size_t nbatch, Dir dir,
                               const LineSubset* lines) const {
  const detail::BoxAxes ax(n0_, n1_, n2_, n2_, n0_ * n1_, nbatch, lines);
  if (dir == Dir::kForward) {
    detail::axis_pass(p0_, ax.a0, data, true);
    detail::axis_pass(p1_, ax.a1, data, true);
    detail::axis_pass(p2_, ax.a2, data, true);
  } else {
    detail::axis_pass(p2_, ax.a2, data, false);
    detail::axis_pass(p1_, ax.a1, data, false);
    detail::axis_pass(p0_, ax.a0, data, false);
  }
}

// Single-array transforms are width-1 batches: one engine, so a single call
// is bit-identical to the corresponding batch member by construction (the
// per-line split-plane arithmetic is independent of the tile width).
template <typename R>
void Fft3T<R>::forward(C* data, const LineSubset* lines) const {
  transform_batch(data, 1, Dir::kForward, lines);
}

template <typename R>
void Fft3T<R>::inverse_unscaled(C* data, const LineSubset* lines) const {
  transform_batch(data, 1, Dir::kInverse, lines);
}

template <typename R>
void Fft3T<R>::inverse(C* data, const LineSubset* lines) const {
  transform_batch(data, 1, Dir::kInverse, lines);
  const R s = R(1) / static_cast<R>(size());
  const size_t ng = size();
  for (size_t i = 0; i < ng; ++i) data[i] *= s;
}

template class Plan1DT<float>;
template class Plan1DT<double>;
template class Fft3T<float>;
template class Fft3T<double>;

}  // namespace ptim::fft
