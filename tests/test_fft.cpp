// FFT engine: roundtrips over mixed-radix and Bluestein sizes, Parseval,
// known analytic transforms, linearity, the convolution theorem, and 3-D
// transforms — everything the Fock-exchange inner loop depends on.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

using namespace ptim;

namespace {

std::vector<cplx> random_signal(size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = rng.uniform_cplx();
  return x;
}

std::vector<cplx> dft_reference(const std::vector<cplx>& x, int sign) {
  const size_t n = x.size();
  std::vector<cplx> out(n, cplx(0.0));
  for (size_t k = 0; k < n; ++k)
    for (size_t j = 0; j < n; ++j) {
      const real_t ang =
          sign * kTwoPi * static_cast<real_t>(j * k % n) / static_cast<real_t>(n);
      out[k] += x[j] * cplx{std::cos(ang), std::sin(ang)};
    }
  return out;
}

}  // namespace

class FftSize : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSize, MatchesReferenceDft) {
  const size_t n = GetParam();
  const auto x = random_signal(n, 10 + static_cast<unsigned>(n));
  fft::Plan1D plan(n);
  std::vector<cplx> y(n);
  plan.forward(x.data(), y.data());
  const auto ref = dft_reference(x, -1);
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(y[k] - ref[k]), 0.0, 1e-9 * static_cast<real_t>(n))
        << "n=" << n << " k=" << k;
}

TEST_P(FftSize, RoundTrip) {
  const size_t n = GetParam();
  const auto x = random_signal(n, 20 + static_cast<unsigned>(n));
  fft::Plan1D plan(n);
  std::vector<cplx> y(n), z(n);
  plan.forward(x.data(), y.data());
  plan.inverse(y.data(), z.data());
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(z[k] - x[k]), 0.0, 1e-10 * static_cast<real_t>(n));
}

TEST_P(FftSize, Parseval) {
  const size_t n = GetParam();
  const auto x = random_signal(n, 30 + static_cast<unsigned>(n));
  fft::Plan1D plan(n);
  std::vector<cplx> y(n);
  plan.forward(x.data(), y.data());
  real_t ex = 0.0, ey = 0.0;
  for (size_t k = 0; k < n; ++k) {
    ex += std::norm(x[k]);
    ey += std::norm(y[k]);
  }
  EXPECT_NEAR(ey, ex * static_cast<real_t>(n), 1e-8 * ex * n);
}

// Mixed-radix {2,3,5,7} sizes plus primes (Bluestein) and awkward products;
// the multiples of 7 cover the grids the code runs (7^3 exchange, 14^3
// density) and every radix-7 leaf and stage combination up to 56 = 4*2*7.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSize,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                                           15, 16, 18, 20, 24, 25, 27, 30, 32,
                                           36, 45, 48, 60, 64, 11, 13, 17, 31,
                                           101, 121, 77, 14, 21, 28, 35, 42,
                                           49, 56));

TEST(Fft, DeltaIsConstant) {
  const size_t n = 24;
  std::vector<cplx> x(n, cplx(0.0)), y(n);
  x[0] = 1.0;
  fft::Plan1D plan(n);
  plan.forward(x.data(), y.data());
  for (size_t k = 0; k < n; ++k) EXPECT_NEAR(std::abs(y[k] - cplx(1.0)), 0.0, 1e-12);
}

TEST(Fft, SingleModeIsDelta) {
  const size_t n = 30, mode = 7;
  std::vector<cplx> x(n), y(n);
  for (size_t j = 0; j < n; ++j) {
    const real_t ang = kTwoPi * static_cast<real_t>(mode * j) / n;
    x[j] = cplx{std::cos(ang), std::sin(ang)};
  }
  fft::Plan1D plan(n);
  plan.forward(x.data(), y.data());
  for (size_t k = 0; k < n; ++k) {
    const real_t expect = (k == mode) ? static_cast<real_t>(n) : 0.0;
    EXPECT_NEAR(std::abs(y[k]), expect, 1e-9);
  }
}

TEST(Fft, Linearity) {
  const size_t n = 40;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  fft::Plan1D plan(n);
  std::vector<cplx> fa(n), fb(n), fc(n), c(n);
  const cplx alpha{0.3, -1.2};
  for (size_t i = 0; i < n; ++i) c[i] = a[i] + alpha * b[i];
  plan.forward(a.data(), fa.data());
  plan.forward(b.data(), fb.data());
  plan.forward(c.data(), fc.data());
  for (size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fc[i] - (fa[i] + alpha * fb[i])), 0.0, 1e-10);
}

TEST(Fft, ConvolutionTheorem) {
  const size_t n = 36;
  const auto a = random_signal(n, 3);
  const auto b = random_signal(n, 4);
  // Direct circular convolution.
  std::vector<cplx> conv(n, cplx(0.0));
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) conv[(i + j) % n] += a[i] * b[j];
  // Spectral path.
  fft::Plan1D plan(n);
  std::vector<cplx> fa(n), fb(n), prod(n), back(n);
  plan.forward(a.data(), fa.data());
  plan.forward(b.data(), fb.data());
  for (size_t i = 0; i < n; ++i) prod[i] = fa[i] * fb[i];
  plan.inverse(prod.data(), back.data());
  for (size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(back[i] - conv[i]), 0.0, 1e-8);
}

TEST(Fft, InPlaceTransform) {
  const size_t n = 20;
  const auto x = random_signal(n, 5);
  fft::Plan1D plan(n);
  std::vector<cplx> y = x, ref(n);
  plan.forward(x.data(), ref.data());
  plan.forward(y.data(), y.data());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(y[i] - ref[i]), 0.0, 1e-11);
}

TEST(FftSizeHelpers, NextFftSize) {
  EXPECT_EQ(fft::next_fft_size(1), 1u);
  EXPECT_EQ(fft::next_fft_size(11), 12u);
  EXPECT_EQ(fft::next_fft_size(13), 14u);
  EXPECT_EQ(fft::next_fft_size(17), 18u);
  EXPECT_EQ(fft::next_fft_size(97), 98u);
  EXPECT_TRUE(fft::fft_size_ok(2 * 3 * 5 * 7));
  EXPECT_FALSE(fft::fft_size_ok(11));
}

TEST(Fft3, RoundTripAndParseval) {
  fft::Fft3 f(6, 5, 4);
  const size_t ng = f.size();
  auto x = random_signal(ng, 6);
  auto orig = x;
  f.forward(x.data());
  real_t ex = 0.0, ey = 0.0;
  for (size_t i = 0; i < ng; ++i) ey += std::norm(x[i]);
  for (size_t i = 0; i < ng; ++i) ex += std::norm(orig[i]);
  EXPECT_NEAR(ey, ex * static_cast<real_t>(ng), 1e-8 * ex * ng);
  f.inverse(x.data());
  for (size_t i = 0; i < ng; ++i)
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
}

// ------------------------------------------------------- batched FFTs ---

TEST(Fft1Batch, ManyMatchesScalarLines) {
  for (const size_t n : {size_t(8), size_t(12), size_t(30), size_t(13)}) {
    const size_t vlen = 5;
    fft::Plan1D plan(n);
    // Element-major tile: line l's element k at tile[k*vlen + l].
    std::vector<cplx> tile(n * vlen), tile_out(n * vlen);
    std::vector<std::vector<cplx>> lines(vlen);
    for (size_t l = 0; l < vlen; ++l) {
      lines[l] = random_signal(n, 500 + static_cast<unsigned>(n * vlen + l));
      for (size_t k = 0; k < n; ++k) tile[k * vlen + l] = lines[l][k];
    }
    plan.forward_many(tile.data(), tile_out.data(), vlen);
    for (size_t l = 0; l < vlen; ++l) {
      std::vector<cplx> ref(n);
      plan.forward(lines[l].data(), ref.data());
      for (size_t k = 0; k < n; ++k)
        EXPECT_NEAR(std::abs(tile_out[k * vlen + l] - ref[k]), 0.0, 1e-10)
            << "n=" << n << " l=" << l << " k=" << k;
    }
    // Scaled inverse round-trips the tile.
    std::vector<cplx> back(n * vlen);
    plan.inverse_many(tile_out.data(), back.data(), vlen);
    for (size_t i = 0; i < n * vlen; ++i)
      EXPECT_NEAR(std::abs(back[i] - tile[i]), 0.0, 1e-10);
  }
}

TEST(Fft3Batch, MatchesSingleTransforms) {
  fft::Fft3 f(6, 5, 4);
  const size_t ng = f.size();
  const size_t nbatch = 7;
  auto batch = random_signal(ng * nbatch, 40);
  auto singles = batch;
  f.forward_batch(batch.data(), nbatch);
  for (size_t b = 0; b < nbatch; ++b) f.forward(singles.data() + b * ng);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(batch[i] - singles[i]), 0.0, 1e-9)
        << "i=" << i;
  f.inverse_batch(batch.data(), nbatch);
  for (size_t b = 0; b < nbatch; ++b) f.inverse(singles.data() + b * ng);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(batch[i] - singles[i]), 0.0, 1e-10);
}

TEST(Fft3Batch, RoundTrip) {
  fft::Fft3 f(8, 6, 5);
  const size_t ng = f.size();
  // More arrays than the internal tile width to exercise partial tiles.
  const size_t nbatch = fft::Plan1D::kMaxTile + 3;
  const auto orig = random_signal(ng * nbatch, 41);
  auto x = orig;
  f.forward_batch(x.data(), nbatch);
  f.inverse_batch(x.data(), nbatch);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
}

TEST(Fft3Batch, SingleArrayBatchEqualsPlainCall) {
  fft::Fft3 f(6, 6, 3);
  auto a = random_signal(f.size(), 42);
  auto b = a;
  f.forward_batch(a.data(), 1);
  f.forward(b.data());
  for (size_t i = 0; i < f.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10);
}

TEST(Fft3Batch, ZeroBatchIsNoop) {
  fft::Fft3 f(4, 4, 4);
  f.forward_batch(nullptr, 0);
  f.inverse_batch(nullptr, 0);
}

// ----------------------------------------------- *_many misuse guards ---

TEST(Fft1Batch, ManyRejectsAliasedBuffers) {
  // in == out used to corrupt data silently; now it throws.
  fft::Plan1D plan(12);
  std::vector<cplx> buf(12 * 4);
  EXPECT_THROW(plan.forward_many(buf.data(), buf.data(), 4), Error);
  EXPECT_THROW(plan.inverse_many(buf.data(), buf.data(), 4), Error);
}

TEST(Fft1Batch, ManyRejectsOversizedTile) {
  fft::Plan1D plan(8);
  const size_t vlen = fft::Plan1D::kMaxTile + 1;
  std::vector<cplx> in(8 * vlen), out(8 * vlen);
  EXPECT_THROW(plan.forward_many(in.data(), out.data(), vlen), Error);
  EXPECT_THROW(plan.forward_many(in.data(), out.data(), 0), Error);
}

// ------------------------------------------------- float instantiation ---

namespace {

std::vector<cplxf> to_f32(const std::vector<cplx>& x) {
  std::vector<cplxf> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = static_cast<cplxf>(x[i]);
  return y;
}

}  // namespace

class FftSizeF32 : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSizeF32, MatchesDoubleReference) {
  // The float plan agrees with the double transform of the same signal at
  // single-precision accuracy — mixed-radix and Bluestein sizes alike.
  const size_t n = GetParam();
  const auto x = random_signal(n, 70 + static_cast<unsigned>(n));
  fft::Plan1D plan64(n);
  fft::Plan1Df plan32(n);
  std::vector<cplx> ref(n);
  plan64.forward(x.data(), ref.data());
  const auto xf = to_f32(x);
  std::vector<cplxf> y(n);
  plan32.forward(xf.data(), y.data());
  real_t scale = 0.0;
  for (size_t k = 0; k < n; ++k) scale = std::max(scale, std::abs(ref[k]));
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(static_cast<cplx>(y[k]) - ref[k]), 0.0,
                2e-6 * std::max(scale, real_t(1.0)) *
                    std::sqrt(static_cast<real_t>(n)))
        << "n=" << n << " k=" << k;
}

TEST_P(FftSizeF32, RoundTrip) {
  const size_t n = GetParam();
  const auto xf = to_f32(random_signal(n, 80 + static_cast<unsigned>(n)));
  fft::Plan1Df plan(n);
  std::vector<cplxf> y(n), z(n);
  plan.forward(xf.data(), y.data());
  plan.inverse(y.data(), z.data());
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(z[k] - xf[k]), 0.0, 1e-5f * static_cast<float>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeF32,
                         ::testing::Values(1, 2, 6, 8, 16, 20, 30, 36, 48, 64,
                                           11, 13, 17, 31, 101, 77, 14, 21, 28,
                                           35, 42, 49, 56));

// Bluestein-sized (non-{2,3,5,7}) boxes through the batched 3-D engine, in
// both precisions: every axis of {11,13,9} except the last needs the
// chirp-z fallback inside forward_batch/inverse_batch.
TEST(Fft3Batch, BluesteinSizedGridDouble) {
  fft::Fft3 f(11, 13, 9);
  const size_t ng = f.size();
  const size_t nbatch = 5;
  auto batch = random_signal(ng * nbatch, 90);
  auto singles = batch;
  f.forward_batch(batch.data(), nbatch);
  for (size_t b = 0; b < nbatch; ++b) f.forward(singles.data() + b * ng);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(batch[i] - singles[i]), 0.0, 1e-8) << "i=" << i;
  const auto orig = random_signal(ng * nbatch, 91);
  auto x = orig;
  f.forward_batch(x.data(), nbatch);
  f.inverse_batch(x.data(), nbatch);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-9);
}

TEST(Fft3Batch, BluesteinSizedGridSingle) {
  fft::Fft3f f32(11, 13, 9);
  fft::Fft3 f64(11, 13, 9);
  const size_t ng = f32.size();
  const size_t nbatch = 3;
  const auto orig = random_signal(ng * nbatch, 92);
  auto ref = orig;
  f64.forward_batch(ref.data(), nbatch);
  auto x = to_f32(orig);
  f32.forward_batch(x.data(), nbatch);
  real_t scale = 0.0;
  for (size_t i = 0; i < ng * nbatch; ++i)
    scale = std::max(scale, std::abs(ref[i]));
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(static_cast<cplx>(x[i]) - ref[i]), 0.0,
                1e-4 * std::max(scale, real_t(1.0)))
        << "i=" << i;
  // Scaled-inverse round trip at float accuracy.
  f32.inverse_batch(x.data(), nbatch);
  const auto origf = to_f32(orig);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(x[i] - origf[i]), 0.0, 2e-4f);
}

TEST(Fft3BatchF32, MatchesSingleTransforms) {
  fft::Fft3f f(6, 5, 4);
  const size_t ng = f.size();
  const size_t nbatch = 7;
  auto batch = to_f32(random_signal(ng * nbatch, 93));
  auto singles = batch;
  f.forward_batch(batch.data(), nbatch);
  for (size_t b = 0; b < nbatch; ++b) f.forward(singles.data() + b * ng);
  for (size_t i = 0; i < ng * nbatch; ++i)
    EXPECT_NEAR(std::abs(batch[i] - singles[i]), 0.0, 1e-4f) << "i=" << i;
}

TEST(Fft3, PlaneWaveIsDelta) {
  const size_t n0 = 6, n1 = 6, n2 = 3;
  fft::Fft3 f(n0, n1, n2);
  std::vector<cplx> x(f.size());
  const int m0 = 2, m1 = 1, m2 = 0;  // mode indices
  for (size_t i2 = 0; i2 < n2; ++i2)
    for (size_t i1 = 0; i1 < n1; ++i1)
      for (size_t i0 = 0; i0 < n0; ++i0) {
        const real_t ang = kTwoPi * (static_cast<real_t>(m0 * i0) / n0 +
                                     static_cast<real_t>(m1 * i1) / n1 +
                                     static_cast<real_t>(m2 * i2) / n2);
        x[i0 + n0 * (i1 + n1 * i2)] = cplx{std::cos(ang), std::sin(ang)};
      }
  f.forward(x.data());
  for (size_t i2 = 0; i2 < n2; ++i2)
    for (size_t i1 = 0; i1 < n1; ++i1)
      for (size_t i0 = 0; i0 < n0; ++i0) {
        const bool hit = (i0 == m0 && i1 == m1 && i2 == m2);
        const real_t expect = hit ? static_cast<real_t>(f.size()) : 0.0;
        EXPECT_NEAR(std::abs(x[i0 + n0 * (i1 + n1 * i2)]), expect, 1e-8);
      }
}
