// Cross-variant FFT conformance suite: one randomized property set
// (linearity, Parseval, impulse, round-trip, conjugate symmetry of
// real-input spectra, Bluestein odd-prime dims, width-1 tiles) replayed
// against EVERY engine variant — scalar/AVX2/AVX-512/NEON kernels x
// FP64/FP32 x serial/distributed x c2c/packed-r2c — plus the bitwise pins
// that make engine selection a pure performance knob:
//   * every vector ISA produces bit-identical transforms to the scalar
//     kernels (no FMA, -ffp-contract=off; see fft/simd.hpp),
//   * real-input spectra satisfy spec[-k] == conj(spec[k]) exactly,
//   * the distributed packed-real path filters real-even kernels like the
//     serial engine and moves HALF the Alltoallv bytes per field,
//   * concurrent callers (distinct plans or a shared plan) never race —
//     all tile scratch is per-thread and function-local (the TSan CI job
//     runs this suite via the dist label).
// CI runs the suite twice through `ctest -L fftconf`: once with
// PTIM_SIMD=scalar and once with the default best-available ISA.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/dist_fft.hpp"
#include "fft/fft.hpp"
#include "fft/simd.hpp"
#include "ptmpi/comm.hpp"

using namespace ptim;
using fft::simd::Isa;

namespace {

template <typename R>
std::vector<std::complex<R>> random_box(size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<std::complex<R>> v(n);
  for (auto& x : v)
    x = std::complex<R>(static_cast<R>(rng.uniform() - 0.5),
                        static_cast<R>(rng.uniform() - 0.5));
  return v;
}

template <typename R>
std::vector<R> random_real_box(size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<R> v(n);
  for (auto& x : v) x = static_cast<R>(rng.uniform() - 0.5);
  return v;
}

// Property tolerance per scalar type (absolute, on O(1) random data).
template <typename R>
constexpr double prop_tol() {
  return std::is_same_v<R, float> ? 2e-4 : 1e-10;
}

// Force an ISA for the current scope (exception-safe clear).
struct IsaGuard {
  explicit IsaGuard(Isa isa) { fft::simd::force_isa(isa); }
  ~IsaGuard() { fft::simd::clear_forced_isa(); }
};

constexpr std::array<Isa, 4> kAllIsas{Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                                      Isa::kNeon};

// A real, EVEN spectral filter on the dims box (K(-G) == K(G) under the
// modular index negation) — the shape class the exchange kernel belongs
// to, and the only class the PACKED distributed real spectra support.
template <typename R>
std::vector<R> real_even_kernel(std::array<size_t, 3> d) {
  std::vector<R> k(d[0] * d[1] * d[2]);
  size_t i = 0;
  for (size_t i2 = 0; i2 < d[2]; ++i2)
    for (size_t i1 = 0; i1 < d[1]; ++i1)
      for (size_t i0 = 0; i0 < d[0]; ++i0, ++i) {
        const size_t m0 = std::min(i0, d[0] - i0);
        const size_t m1 = std::min(i1, d[1] - i1);
        const size_t m2 = std::min(i2, d[2] - i2);
        k[i] = R(1) / static_cast<R>(1 + m0 * m0 + m1 * m1 + m2 * m2);
      }
  return k;
}

// ---------------------------------------------- per-variant property set --
// Every checker below drives the BATCHED engines (forward_batch and
// friends), because that is the path running through the dispatched SIMD
// tile kernels; the ISA under test is forced by the fixture.

template <typename R>
void check_roundtrip_c2c(std::array<size_t, 3> d, size_t nbatch,
                         unsigned seed) {
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const auto orig = random_box<R>(nbatch * f.size(), seed);
  auto x = orig;
  f.forward_batch(x.data(), nbatch);
  f.inverse_batch(x.data(), nbatch);
  for (size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(std::abs(x[i] - orig[i]), 0.0, prop_tol<R>()) << "i=" << i;
}

template <typename R>
void check_linearity(std::array<size_t, 3> d, unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  auto a = random_box<R>(ng, seed);
  auto b = random_box<R>(ng, seed + 1);
  const C alpha(R(0.3), R(-1.2));
  std::vector<C> c(ng);
  for (size_t i = 0; i < ng; ++i) c[i] = a[i] + alpha * b[i];
  f.forward_batch(a.data(), 1);
  f.forward_batch(b.data(), 1);
  f.forward_batch(c.data(), 1);
  for (size_t i = 0; i < ng; ++i)
    ASSERT_NEAR(std::abs(c[i] - (a[i] + alpha * b[i])), 0.0,
                prop_tol<R>() * static_cast<double>(ng))
        << "i=" << i;
}

template <typename R>
void check_parseval(std::array<size_t, 3> d, unsigned seed) {
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  auto x = random_box<R>(ng, seed);
  double ex = 0.0;
  for (size_t i = 0; i < ng; ++i) ex += std::norm(static_cast<cplx>(x[i]));
  f.forward_batch(x.data(), 1);
  double ey = 0.0;
  for (size_t i = 0; i < ng; ++i) ey += std::norm(static_cast<cplx>(x[i]));
  EXPECT_NEAR(ey, ex * static_cast<double>(ng),
              prop_tol<R>() * ex * static_cast<double>(ng));
}

template <typename R>
void check_impulse(std::array<size_t, 3> d) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  std::vector<C> x(f.size(), C(0));
  x[0] = C(1);
  f.forward_batch(x.data(), 1);
  for (size_t i = 0; i < f.size(); ++i)
    ASSERT_NEAR(std::abs(x[i] - C(1)), 0.0, prop_tol<R>()) << "i=" << i;
}

// Packed r2c: conjugate symmetry is BITWISE (the unscramble computes
// spec[k] and spec[-k] from the same mirrored sums), the spectra match the
// complex engine on real inputs at tolerance, and the r2c/c2r pair round
// trips — including an ODD field count (zero-padded trailing lane).
template <typename R>
void check_real_batch(std::array<size_t, 3> d, size_t nreal, unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  const auto x = random_real_box<R>(nreal * ng, seed);
  std::vector<C> spec(nreal * ng);
  f.forward_batch_real(x.data(), spec.data(), nreal);

  for (size_t b = 0; b < nreal; ++b) {
    const C* s = spec.data() + b * ng;
    // Bitwise conjugate symmetry over the 3-D negated index.
    size_t i = 0;
    for (size_t i2 = 0; i2 < d[2]; ++i2)
      for (size_t i1 = 0; i1 < d[1]; ++i1)
        for (size_t i0 = 0; i0 < d[0]; ++i0, ++i) {
          const size_t ni = ((d[0] - i0) % d[0]) +
                            d[0] * (((d[1] - i1) % d[1]) +
                                    d[1] * ((d[2] - i2) % d[2]));
          ASSERT_EQ(s[ni], std::conj(s[i])) << "b=" << b << " i=" << i;
        }
    // Against the complex engine on the same (real) field.
    std::vector<C> z(ng);
    for (size_t j = 0; j < ng; ++j) z[j] = C(x[b * ng + j], R(0));
    f.forward_batch(z.data(), 1);
    for (size_t j = 0; j < ng; ++j)
      ASSERT_NEAR(std::abs(s[j] - z[j]), 0.0,
                  prop_tol<R>() * static_cast<double>(ng))
          << "b=" << b << " j=" << j;
  }

  std::vector<R> back(nreal * ng);
  f.inverse_batch_real(spec.data(), back.data(), nreal);
  for (size_t i = 0; i < back.size(); ++i)
    ASSERT_NEAR(static_cast<double>(std::abs(back[i] - x[i])), 0.0,
                prop_tol<R>())
        << "i=" << i;
}

// 1-D Γ-point pair: two real signals through one complex transform match
// two complex transforms, unpaired (null b) included, and round trip.
template <typename R>
void check_real_pair_1d(size_t n, unsigned seed) {
  using C = std::complex<R>;
  fft::Plan1DT<R> plan(n);
  const auto a = random_real_box<R>(n, seed);
  const auto b = random_real_box<R>(n, seed + 1);
  std::vector<C> fa(n), fb(n), ref(n);
  plan.forward_real_pair(a.data(), b.data(), fa.data(), fb.data());
  for (const auto* s : {&a, &b}) {
    std::vector<C> z(n);
    for (size_t j = 0; j < n; ++j) z[j] = C((*s)[j], R(0));
    plan.forward(z.data(), ref.data());
    const C* got = (s == &a) ? fa.data() : fb.data();
    for (size_t j = 0; j < n; ++j)
      ASSERT_NEAR(std::abs(got[j] - ref[j]), 0.0,
                  prop_tol<R>() * static_cast<double>(n))
          << "n=" << n << " j=" << j;
  }
  std::vector<R> ra(n), rb(n);
  plan.inverse_real_pair(fa.data(), fb.data(), ra.data(), rb.data());
  for (size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(static_cast<double>(std::abs(ra[j] - a[j])), 0.0,
                prop_tol<R>());
    ASSERT_NEAR(static_cast<double>(std::abs(rb[j] - b[j])), 0.0,
                prop_tol<R>());
  }
  // Unpaired trailing signal: fb may be null.
  std::vector<C> fa2(n);
  plan.forward_real_pair(a.data(), nullptr, fa2.data(), nullptr);
  for (size_t j = 0; j < n; ++j)
    ASSERT_NEAR(std::abs(fa2[j] - fa[j]), 0.0,
                prop_tol<R>() * static_cast<double>(n));
}

}  // namespace

// ------------------------------------------------- ISA-parameterized run --

class FftConformance : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!fft::simd::available(GetParam()))
      GTEST_SKIP() << "ISA not available in this build/CPU: "
                   << fft::simd::isa_name(GetParam());
    fft::simd::force_isa(GetParam());
  }
  void TearDown() override { fft::simd::clear_forced_isa(); }
};

INSTANTIATE_TEST_SUITE_P(
    Isas, FftConformance,
    ::testing::Values(Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(fft::simd::isa_name(info.param));
    });

TEST_P(FftConformance, RoundTripC2C) {
  check_roundtrip_c2c<double>({6, 5, 4}, 3, 1000);
  check_roundtrip_c2c<float>({6, 5, 4}, 3, 1001);
}

TEST_P(FftConformance, BluesteinOddPrimeDims) {
  // Every axis of {11, 13, 9} except the last runs the chirp-z fallback.
  check_roundtrip_c2c<double>({11, 13, 9}, 2, 1010);
  check_roundtrip_c2c<float>({11, 13, 9}, 2, 1011);
  check_real_batch<double>({11, 13, 9}, 3, 1012);
  check_real_pair_1d<double>(31, 1013);
  check_real_pair_1d<float>(13, 1014);
}

TEST_P(FftConformance, Linearity) {
  check_linearity<double>({6, 5, 4}, 1020);
  check_linearity<float>({6, 5, 4}, 1021);
}

TEST_P(FftConformance, Parseval) {
  check_parseval<double>({8, 5, 7}, 1030);
  check_parseval<float>({8, 5, 7}, 1031);
}

TEST_P(FftConformance, Impulse) {
  check_impulse<double>({6, 6, 3});
  check_impulse<float>({6, 6, 3});
}

TEST_P(FftConformance, RealBatchConjugateSymmetryAndRoundTrip) {
  // Odd field counts exercise the zero-padded trailing lane.
  check_real_batch<double>({6, 5, 4}, 5, 1040);
  check_real_batch<float>({6, 5, 4}, 5, 1041);
  check_real_batch<double>({4, 4, 4}, 1, 1042);
}

TEST_P(FftConformance, RealPair1D) {
  check_real_pair_1d<double>(24, 1050);
  check_real_pair_1d<float>(30, 1051);
}

TEST_P(FftConformance, Width1Tiles) {
  // {1, 1, n} boxes push vlen == 1 tiles through the kernels on axis 2,
  // and the single-array call must stay bit-identical to a width-1 batch.
  check_roundtrip_c2c<double>({1, 1, 30}, 2, 1060);
  check_roundtrip_c2c<float>({1, 1, 30}, 2, 1061);
  fft::Fft3 f(6, 5, 4);
  auto a = random_box<double>(f.size(), 1062);
  auto b = a;
  f.forward(a.data());
  f.forward_batch(b.data(), 1);
  for (size_t i = 0; i < f.size(); ++i) ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ------------------------------------------------ bitwise scalar-vs-SIMD --

namespace {

// Forward + inverse of every available vector ISA must be bit-identical to
// the scalar kernels — c2c and packed r2c, FP64 and FP32 alike.
template <typename R>
void check_bitwise_vs_scalar(std::array<size_t, 3> d, size_t nbatch,
                             unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  const auto input = random_box<R>(nbatch * ng, seed);
  const auto rinput = random_real_box<R>(nbatch * ng, seed + 1);

  std::vector<C> ref_fwd, ref_inv, ref_spec;
  std::vector<R> ref_real;
  {
    IsaGuard g(Isa::kScalar);
    ref_fwd = input;
    f.forward_batch(ref_fwd.data(), nbatch);
    ref_inv = ref_fwd;
    f.inverse_batch(ref_inv.data(), nbatch);
    ref_spec.resize(nbatch * ng);
    f.forward_batch_real(rinput.data(), ref_spec.data(), nbatch);
    ref_real.resize(nbatch * ng);
    f.inverse_batch_real(ref_spec.data(), ref_real.data(), nbatch);
  }

  for (const Isa isa : kAllIsas) {
    if (isa == Isa::kScalar || !fft::simd::available(isa)) continue;
    IsaGuard g(isa);
    auto fwd = input;
    f.forward_batch(fwd.data(), nbatch);
    auto inv = fwd;
    f.inverse_batch(inv.data(), nbatch);
    std::vector<C> spec(nbatch * ng);
    f.forward_batch_real(rinput.data(), spec.data(), nbatch);
    std::vector<R> real_back(nbatch * ng);
    f.inverse_batch_real(spec.data(), real_back.data(), nbatch);
    for (size_t i = 0; i < fwd.size(); ++i) {
      ASSERT_EQ(fwd[i], ref_fwd[i])
          << fft::simd::isa_name(isa) << " fwd i=" << i;
      ASSERT_EQ(inv[i], ref_inv[i])
          << fft::simd::isa_name(isa) << " inv i=" << i;
      ASSERT_EQ(spec[i], ref_spec[i])
          << fft::simd::isa_name(isa) << " spec i=" << i;
      ASSERT_EQ(real_back[i], ref_real[i])
          << fft::simd::isa_name(isa) << " real i=" << i;
    }
  }
}

}  // namespace

// {7,7,7} and {14,14,14} are the exchange and density grids the code runs;
// {28,14,7} puts a radix-4 and a radix-2 stage over radix-7 leaves.
TEST(FftSimdBitwise, VectorIsasMatchScalarFp64) {
  check_bitwise_vs_scalar<double>({6, 5, 4}, 3, 2000);
  check_bitwise_vs_scalar<double>({11, 13, 9}, 2, 2001);  // Bluestein axes
  check_bitwise_vs_scalar<double>({16, 8, 4}, 1, 2002);   // pow-2 radix path
  check_bitwise_vs_scalar<double>({7, 7, 7}, 3, 2003);
  check_bitwise_vs_scalar<double>({14, 14, 14}, 2, 2004);
  check_bitwise_vs_scalar<double>({28, 14, 7}, 1, 2005);
}

TEST(FftSimdBitwise, VectorIsasMatchScalarFp32) {
  check_bitwise_vs_scalar<float>({6, 5, 4}, 3, 2010);
  check_bitwise_vs_scalar<float>({11, 13, 9}, 2, 2011);
  check_bitwise_vs_scalar<float>({16, 8, 4}, 1, 2012);
  check_bitwise_vs_scalar<float>({7, 7, 7}, 3, 2013);
  check_bitwise_vs_scalar<float>({14, 14, 14}, 2, 2014);
  check_bitwise_vs_scalar<float>({28, 14, 7}, 1, 2015);
}

TEST(FftSimdDispatch, SelectionAndForcing) {
  // The scalar table is always compiled and available; best_available()
  // and active_isa() return something this CPU can run; forcing an
  // unavailable ISA throws instead of silently misdispatching.
  EXPECT_TRUE(fft::simd::compiled(Isa::kScalar));
  EXPECT_TRUE(fft::simd::available(Isa::kScalar));
  EXPECT_TRUE(fft::simd::available(fft::simd::best_available()));
  EXPECT_TRUE(fft::simd::available(fft::simd::active_isa()));
  for (const Isa isa : kAllIsas) {
    if (!fft::simd::available(isa)) {
      EXPECT_THROW(fft::simd::force_isa(isa), Error);
    }
  }
}

// -------------------------------------------------- distributed variants --

namespace {

// This rank's z slab of `nfields` full boxes (real or complex elements).
template <typename T>
std::vector<T> slice_real_slab(const std::vector<T>& full,
                               const std::array<size_t, 3>& d,
                               const dist::BlockLayout& z, int r,
                               size_t nfields) {
  const size_t plane = d[0] * d[1];
  const size_t ng = plane * d[2];
  std::vector<T> out(nfields * plane * z.count(r));
  size_t w = 0;
  for (size_t b = 0; b < nfields; ++b)
    for (size_t zz = z.offset(r); zz < z.offset(r) + z.count(r); ++zz)
      for (size_t i = 0; i < plane; ++i)
        out[w++] = full[b * ng + zz * plane + i];
  return out;
}

// Distributed packed-real filter pipeline vs the serial engine: the packed
// pencil spectra carry TWO real fields per lane, so a REAL EVEN kernel
// multiply filters both exactly (the documented contract) — the full
// forward -> filter -> inverse chain must agree with the serial
// r2c -> filter -> c2r chain on every rank.
template <typename R>
void check_dist_real_filter(std::array<size_t, 3> d, int pg, size_t nfields,
                            unsigned seed) {
  using C = std::complex<R>;
  const size_t ng = d[0] * d[1] * d[2];
  const auto input = random_real_box<R>(nfields * ng, seed);
  const auto kernel = real_even_kernel<R>(d);

  fft::Fft3T<R> serial(d[0], d[1], d[2]);
  std::vector<C> spec(nfields * ng);
  serial.forward_batch_real(input.data(), spec.data(), nfields);
  for (size_t b = 0; b < nfields; ++b)
    for (size_t i = 0; i < ng; ++i) spec[b * ng + i] *= kernel[i];
  std::vector<R> ref(nfields * ng);
  serial.inverse_batch_real(spec.data(), ref.data(), nfields);

  ptmpi::run_ranks(pg, 2, [&](ptmpi::Comm& c) {
    fft::DistFft3T<R> f(d, c);
    const auto slab =
        slice_real_slab(input, d, f.zslabs(), c.rank(), nfields);
    const size_t nlanes = (nfields + 1) / 2;
    std::vector<C> pencil(nlanes * f.npencil());
    f.forward_batch_real(slab.data(), pencil.data(), nfields);
    for (size_t q = 0; q < nlanes; ++q)
      for (size_t i = 0; i < f.npencil(); ++i)
        pencil[q * f.npencil() + i] *= kernel[f.pencil_to_global(i)];
    std::vector<R> back(nfields * f.nreal());
    f.inverse_batch_real(pencil.data(), back.data(), nfields);
    const auto ref_slab =
        slice_real_slab(ref, d, f.zslabs(), c.rank(), nfields);
    ASSERT_EQ(back.size(), ref_slab.size());
    for (size_t i = 0; i < back.size(); ++i)
      ASSERT_NEAR(static_cast<double>(std::abs(back[i] - ref_slab[i])), 0.0,
                  prop_tol<R>())
          << "rank " << c.rank() << " i=" << i;
  });
}

}  // namespace

TEST(DistFftConformance, PackedRealFilterMatchesSerialFp64) {
  check_dist_real_filter<double>({6, 5, 4}, 3, 5, 3000);  // odd field count
  check_dist_real_filter<double>({4, 2, 3}, 5, 2, 3001);  // zero-row ranks
}

TEST(DistFftConformance, PackedRealFilterMatchesSerialFp32) {
  check_dist_real_filter<float>({6, 5, 4}, 3, 4, 3010);
}

TEST(DistFftConformance, PackedRealHalvesAlltoallvBytes) {
  // nfields real slabs ride ceil(nfields/2) complex lanes, so the pencil
  // transpose moves exactly HALF the bytes of the complex batch.
  const std::array<size_t, 3> d{6, 5, 4};
  const size_t nfields = 4;
  const size_t ng = d[0] * d[1] * d[2];
  const auto rin = random_real_box<double>(nfields * ng, 3020);
  const auto cin = random_box<double>(nfields * ng, 3021);
  ptmpi::run_ranks(3, 2, [&](ptmpi::Comm& c) {
    fft::DistFft3 f(d, c);
    const auto cslab = slice_real_slab(cin, d, f.zslabs(), c.rank(), nfields);
    std::vector<cplx> pencil(nfields * f.npencil());
    const auto b0 = c.stats().ops["Alltoallv"].bytes;
    f.forward(cslab.data(), pencil.data(), nfields);
    const auto cplx_bytes = c.stats().ops["Alltoallv"].bytes - b0;

    const auto rslab = slice_real_slab(rin, d, f.zslabs(), c.rank(), nfields);
    std::vector<cplx> rpencil((nfields / 2) * f.npencil());
    const auto b1 = c.stats().ops["Alltoallv"].bytes;
    f.forward_batch_real(rslab.data(), rpencil.data(), nfields);
    const auto real_bytes = c.stats().ops["Alltoallv"].bytes - b1;

    EXPECT_GT(real_bytes, 0u);
    EXPECT_EQ(2 * real_bytes, cplx_bytes) << "rank " << c.rank();
  });
}

// ------------------------------------------------------ concurrent plans --

namespace {

// Round-trip workload one thread runs on its own plan and buffers.
template <typename R>
void roundtrip_worker(const std::array<size_t, 3>& d, size_t nbatch,
                      unsigned seed, bool shared_plan,
                      const fft::Fft3T<R>* shared, double* max_err) {
  using C = std::complex<R>;
  fft::Fft3T<R> own(d[0], d[1], d[2]);
  const fft::Fft3T<R>& f = shared_plan ? *shared : own;
  const auto orig = random_box<R>(nbatch * f.size(), seed);
  std::vector<C> x;
  double err = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    x = orig;
    f.forward_batch(x.data(), nbatch);
    f.inverse_batch(x.data(), nbatch);
    for (size_t i = 0; i < x.size(); ++i)
      err = std::max(err, static_cast<double>(std::abs(x[i] - orig[i])));
  }
  *max_err = err;
}

}  // namespace

// Satellite of the scratch audit: ALL per-transform scratch of the serial
// engines (axis-pass tiles, Bluestein convolution buffers, packing lanes)
// is function-local — concurrent std::thread callers on DISTINCT plans and
// on one SHARED plan must both be race-free (the TSan CI job executes this
// suite) and exact. Only DistFft3T carries persistent mutable scratch,
// which its API contract pins to one call stream per instance.
TEST(FftConcurrency, DistinctPlansDontRace) {
  const int nthreads = 4;
  std::vector<double> errs(static_cast<size_t>(nthreads), 1.0);
  std::vector<std::thread> ts;
  const std::array<std::array<size_t, 3>, 4> dims{
      {{6, 5, 4}, {8, 6, 5}, {11, 13, 9}, {4, 4, 4}}};
  for (int t = 0; t < nthreads; ++t)
    ts.emplace_back(roundtrip_worker<double>, dims[static_cast<size_t>(t)], 2,
                    4000u + static_cast<unsigned>(t), false, nullptr,
                    &errs[static_cast<size_t>(t)]);
  for (auto& t : ts) t.join();
  for (int t = 0; t < nthreads; ++t)
    EXPECT_LT(errs[static_cast<size_t>(t)], 1e-10) << "thread " << t;
}

TEST(FftConcurrency, SharedPlanConcurrentCallers) {
  const int nthreads = 4;
  const std::array<size_t, 3> d{6, 5, 4};
  fft::Fft3 shared(d[0], d[1], d[2]);
  std::vector<double> errs(static_cast<size_t>(nthreads), 1.0);
  std::vector<std::thread> ts;
  for (int t = 0; t < nthreads; ++t)
    ts.emplace_back(roundtrip_worker<double>, d, 3,
                    4100u + static_cast<unsigned>(t), true, &shared,
                    &errs[static_cast<size_t>(t)]);
  for (auto& t : ts) t.join();
  for (int t = 0; t < nthreads; ++t)
    EXPECT_LT(errs[static_cast<size_t>(t)], 1e-10) << "thread " << t;
}
