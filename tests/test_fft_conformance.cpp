// Cross-variant FFT conformance suite: one randomized property set
// (linearity, Parseval, impulse, round-trip, Bluestein odd-prime dims,
// width-1 tiles, run-list passes) replayed against EVERY engine variant —
// scalar/AVX2/AVX-512/NEON kernels x FP64/FP32 — plus the bitwise pins
// that make engine selection a pure performance knob:
//   * every vector ISA produces bit-identical transforms to the scalar
//     kernels (no FMA, -ffp-contract=off; see fft/simd.hpp),
//   * an axis pass over a run list equals the full pass on the lines it
//     keeps and leaves all others untouched (the sphere-pruned
//     transforms of pw::SphereGridMap ride on it),
//   * concurrent callers (distinct plans or a shared plan) never race —
//     all tile scratch is per-thread (the TSan CI job runs this suite via
//     the dist label).
// CI runs the suite twice through `ctest -L fftconf`: once with
// PTIM_SIMD=scalar and once with the default best-available ISA.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/axis_pass.hpp"
#include "fft/fft.hpp"
#include "fft/simd.hpp"

using namespace ptim;
using isa::Isa;

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

// Property tolerance per scalar type (absolute, on O(1) random data).
template <typename R>
constexpr double prop_tol() {
  return std::is_same_v<R, float> ? 2e-4 : 1e-10;
}

// Force an ISA for the current scope (exception-safe clear).
struct IsaGuard {
  explicit IsaGuard(Isa isa) { isa::force(isa); }
  ~IsaGuard() { isa::clear_forced(); }
};

constexpr std::array<Isa, 4> kAllIsas{Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                                      Isa::kNeon};

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

// One axis pass over a run list against the full pass of the same axis:
// every line the list keeps must equal the full pass bit for bit, and
// every element off the kept lines must be left untouched. `lines` is the
// pruned set; the full set is the same geometry with `all` as its run.
template <typename R>
void check_run_list_pass(size_t n, fft::detail::AxisLines lines,
                         fft::LineRun all, size_t box_size, unsigned seed) {
  using C = std::complex<R>;
  const fft::Plan1DT<R> p(n);
  const auto input = random_box<R>(lines.nboxes * box_size, seed);
  std::vector<char> kept(input.size(), 0);
  for (size_t b = 0; b < lines.nboxes; ++b)
    for (size_t r = 0; r < lines.nruns; ++r)
      for (size_t i = 0; i < lines.runs[r].count; ++i)
        for (size_t k = 0; k < n; ++k)
          kept[b * lines.box_stride + lines.runs[r].offset +
               i * lines.line_step + k * lines.stride] = 1;
  fft::detail::AxisLines full = lines;
  full.runs = &all;
  full.nruns = 1;
  for (const bool fwd : {true, false}) {
    std::vector<C> pruned = input, ref = input;
    fft::detail::axis_pass(p, lines, pruned.data(), fwd);
    fft::detail::axis_pass(p, full, ref.data(), fwd);
    for (size_t i = 0; i < input.size(); ++i) {
      const C& want = kept[i] ? ref[i] : input[i];
      ASSERT_EQ(std::memcmp(&pruned[i], &want, sizeof(C)), 0)
          << (fwd ? "fwd" : "inv") << " i=" << i << " kept=" << int(kept[i]);
    }
  }
}

}  // namespace

// ------------------------------------------------- ISA-parameterized run --

class FftConformance : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa::available(GetParam()))
      GTEST_SKIP() << "ISA not available in this build/CPU: "
                   << isa::name(GetParam());
    isa::force(GetParam());
  }
  void TearDown() override { isa::clear_forced(); }
};

INSTANTIATE_TEST_SUITE_P(
    Isas, FftConformance,
    ::testing::Values(Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(isa::name(info.param));
    });

TEST_P(FftConformance, RoundTripC2C) {
  check_roundtrip_c2c<double>({6, 5, 4}, 3, 1000);
  check_roundtrip_c2c<float>({6, 5, 4}, 3, 1001);
}

TEST_P(FftConformance, BluesteinOddPrimeDims) {
  // Every axis of {11, 13, 9} except the last runs the chirp-z fallback.
  check_roundtrip_c2c<double>({11, 13, 9}, 2, 1010);
  check_roundtrip_c2c<float>({11, 13, 9}, 2, 1011);
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

TEST_P(FftConformance, RunListPassMatchesFullPass) {
  // A 6x5x7 box, 3 boxes. Axis-2 shape (line_step 1): 30 lines of 7 per
  // box, 19 kept; the second tile starts exactly at a run, the others in
  // the middle of one, and tiles cross box boundaries. Axis-0 shape
  // (line_step n0): 35 lines of 6 per box, 19 kept, one run ending where
  // the next begins.
  const size_t n0 = 6, n1 = 5, n2 = 7, box = n0 * n1 * n2;
  using fft::detail::AxisLines;
  const std::vector<fft::LineRun> cols{{1, 3}, {5, 13}, {22, 2}, {29, 1}};
  const AxisLines a2{cols.data(), cols.size(), 3, box, 1, n0 * n1};
  check_run_list_pass<double>(n2, a2, {0, n0 * n1}, box, 1100);
  check_run_list_pass<float>(n2, a2, {0, n0 * n1}, box, 1101);
  const std::vector<fft::LineRun> rows{
      {0, 2}, {2 * n0, 9}, {13 * n0, 1}, {20 * n0, 5}, {30 * n0, 2}};
  const AxisLines a0{rows.data(), rows.size(), 3, box, n0, 1};
  check_run_list_pass<double>(n0, a0, {0, n1 * n2}, box, 1102);
  check_run_list_pass<float>(n0, a0, {0, n1 * n2}, box, 1103);
}

// ------------------------------------------------ bitwise scalar-vs-SIMD --

namespace {

// Forward + inverse of every available vector ISA must be bit-identical to
// the scalar kernels, FP64 and FP32 alike.
template <typename R>
void check_bitwise_vs_scalar(std::array<size_t, 3> d, size_t nbatch,
                             unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  const auto input = random_box<R>(nbatch * ng, seed);

  std::vector<C> ref_fwd, ref_inv;
  {
    IsaGuard g(Isa::kScalar);
    ref_fwd = input;
    f.forward_batch(ref_fwd.data(), nbatch);
    ref_inv = ref_fwd;
    f.inverse_batch(ref_inv.data(), nbatch);
  }

  for (const Isa isa : kAllIsas) {
    if (isa == Isa::kScalar || !isa::available(isa)) continue;
    IsaGuard g(isa);
    auto fwd = input;
    f.forward_batch(fwd.data(), nbatch);
    auto inv = fwd;
    f.inverse_batch(inv.data(), nbatch);
    for (size_t i = 0; i < fwd.size(); ++i) {
      ASSERT_EQ(fwd[i], ref_fwd[i]) << isa::name(isa) << " fwd i=" << i;
      ASSERT_EQ(inv[i], ref_inv[i]) << isa::name(isa) << " inv i=" << i;
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
  // and active() return something this CPU can run; forcing an
  // unavailable ISA throws instead of silently misdispatching.
  EXPECT_TRUE(isa::compiled(Isa::kScalar));
  EXPECT_TRUE(isa::available(Isa::kScalar));
  EXPECT_TRUE(isa::available(isa::best_available()));
  EXPECT_TRUE(isa::available(isa::active()));
  for (const Isa isa : kAllIsas) {
    if (!isa::available(isa)) {
      EXPECT_THROW(isa::force(isa), Error);
    }
  }
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
// is per-thread — concurrent std::thread callers on DISTINCT plans and
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
