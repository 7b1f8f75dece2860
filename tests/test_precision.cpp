// The precision-policy layer: FP32 exact-exchange pipeline vs the FP64
// reference, end to end —
//  * apply_diag / apply_mixed_diag / apply_mixed_naive agree to 1e-6
//    relative (the paper-class bound: FP32 exchange error is far below the
//    PT-IM integrator tolerance),
//  * the Kahan-compensated mode is at least as accurate,
//  * FFT counts are identical in every mode (precision changes the scalar
//    type, not the algorithm),
//  * the FP32 sphere<->grid transforms round-trip at float accuracy,
//  * Bluestein-sized (non-{2,3,5,7}) grids work through the batched
//    exchange path in both precisions,
//  * the distributed ring moves exactly half the bytes under FP32 and
//    reproduces the serial result in either precision,
//  * a 10-step PT-IM-ACE trajectory with FP32 exchange tracks the FP64
//    trajectory to 1e-8 in total energy.

#include <gtest/gtest.h>

#include <cmath>

#include "dist/exchange_dist.hpp"
#include "dist/transpose.hpp"
#include "gs/scf.hpp"
#include "ham/ace.hpp"
#include "ham/density.hpp"
#include "ham/exchange.hpp"
#include "la/blas.hpp"
#include "ptmpi/comm.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

real_t max_abs_diff(const la::MatC& a, const la::MatC& b) {
  real_t m = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

ham::ExchangeOperator make_xop(const pw::SphereGridMap& map, Precision p,
                               size_t batch_size = 8) {
  ham::ExchangeOptions opt;
  opt.batch_size = batch_size;
  opt.precision = p;
  return ham::ExchangeOperator(map, opt);
}

}  // namespace

// ------------------------------------------------- serial exchange ------

TEST(PrecisionExchange, ApplyDiagSingleMatchesDouble) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 6;
  const la::MatC phi = test::random_orbitals(npw, nb, 901);
  std::vector<real_t> d(nb);
  for (size_t i = 0; i < nb; ++i) d[i] = 1.0 - 0.12 * static_cast<real_t>(i);
  const la::MatC tgt = test::random_orbitals(npw, 4, 902);

  const auto x64 = make_xop(map, Precision::kDouble);
  la::MatC ref(npw, 4);
  x64.apply_diag(phi, d, tgt, ref);
  const real_t scale = std::max(la::frob_norm(ref), real_t(1.0));

  for (const Precision p :
       {Precision::kSingle, Precision::kSingleCompensated}) {
    const auto x32 = make_xop(map, p);
    la::MatC out(npw, 4);
    x32.apply_diag(phi, d, tgt, out);
    EXPECT_LE(la::frob_diff(out, ref), 1e-6 * scale)
        << "precision=" << precision_name(p);
  }
}

TEST(PrecisionExchange, ApplyMixedDiagWithinRelativeBound) {
  // The acceptance bar: FP32 agrees with FP64 to <= 1e-6 relative on
  // apply_mixed_diag outputs.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC phi = test::random_orbitals(npw, nb, 903);
  const la::MatC sigma = test::random_occupation_matrix(nb, 904);
  const la::MatC tgt = test::random_orbitals(npw, 3, 905);

  const auto x64 = make_xop(map, Precision::kDouble);
  la::MatC ref(npw, 3);
  x64.apply_mixed_diag(phi, sigma, tgt, ref);
  const real_t scale = std::max(la::frob_norm(ref), real_t(1.0));

  for (const Precision p :
       {Precision::kSingle, Precision::kSingleCompensated}) {
    const auto x32 = make_xop(map, p);
    la::MatC out(npw, 3);
    x32.apply_mixed_diag(phi, sigma, tgt, out);
    EXPECT_LE(la::frob_diff(out, ref), 1e-6 * scale)
        << "precision=" << precision_name(p);
  }
}

TEST(PrecisionExchange, ApplyMixedNaiveMatchesDouble) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 906);
  const la::MatC sigma = test::random_occupation_matrix(nb, 907);
  const la::MatC tgt = test::random_orbitals(npw, 2, 908);

  const auto x64 = make_xop(map, Precision::kDouble);
  la::MatC ref(npw, 2);
  x64.apply_mixed_naive(phi, sigma, tgt, ref);
  const real_t scale = std::max(la::frob_norm(ref), real_t(1.0));

  const auto x32 = make_xop(map, Precision::kSingle);
  la::MatC out(npw, 2);
  x32.apply_mixed_naive(phi, sigma, tgt, out);
  EXPECT_LE(la::frob_diff(out, ref), 1e-6 * scale);
  // The triple-loop transform count is precision-independent.
  EXPECT_EQ(x32.fft_count, x64.fft_count);
}

TEST(PrecisionExchange, CompensatedNoWorseThanPlainSingle) {
  // Kahan compensation can only tighten the FP64 accumulation; with many
  // sources the compensated error must not exceed the plain-single error
  // by more than rounding noise.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 12;
  const la::MatC phi = test::random_orbitals(npw, nb, 909);
  const std::vector<real_t> d(nb, 0.5);
  const la::MatC tgt = test::random_orbitals(npw, 2, 910);

  la::MatC ref(npw, 2), plain(npw, 2), comp(npw, 2);
  make_xop(map, Precision::kDouble).apply_diag(phi, d, tgt, ref);
  make_xop(map, Precision::kSingle).apply_diag(phi, d, tgt, plain);
  make_xop(map, Precision::kSingleCompensated).apply_diag(phi, d, tgt, comp);

  const real_t err_plain = la::frob_diff(plain, ref);
  const real_t err_comp = la::frob_diff(comp, ref);
  EXPECT_LE(err_comp, err_plain * (1.0 + 1e-6) + 1e-12);
}

TEST(PrecisionExchange, FftCountsIdenticalAcrossPrecisions) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC phi = test::random_orbitals(npw, nb, 911);
  const std::vector<real_t> d(nb, 0.5);

  la::MatC out(npw, nb);
  for (const size_t bs : {size_t(1), size_t(3), size_t(8)}) {
    const auto x64 = make_xop(map, Precision::kDouble, bs);
    const auto x32 = make_xop(map, Precision::kSingle, bs);
    x64.apply_diag(phi, d, phi, out);
    x32.apply_diag(phi, d, phi, out);
    EXPECT_EQ(x64.fft_count, static_cast<long>(2 * nb * nb)) << "bs=" << bs;
    EXPECT_EQ(x32.fft_count, x64.fft_count) << "bs=" << bs;
  }
}

TEST(PrecisionExchange, EnergyTracksDouble) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 912);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};

  const real_t e64 = make_xop(map, Precision::kDouble).energy_diag(phi, d);
  const real_t e32 = make_xop(map, Precision::kSingle).energy_diag(phi, d);
  EXPECT_LT(e32, 0.0);
  EXPECT_NEAR(e32, e64, 1e-6 * std::abs(e64));
}

// ------------------------------------------- FP32 sphere<->grid maps ----

TEST(PrecisionTransforms, SingleBatchRoundTrip) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 5, 913);

  la::MatCf real32;
  map.to_real_batch(phi, real32);
  la::MatC back;
  map.to_sphere_batch(real32, back);
  // Band-limited round trip at float accuracy.
  real_t scale = 0.0;
  for (size_t i = 0; i < phi.size(); ++i)
    scale = std::max(scale, std::abs(phi.data()[i]));
  EXPECT_LE(max_abs_diff(back, phi), 5e-6 * std::max(scale, real_t(1.0)));
}

TEST(PrecisionTransforms, SingleMatchesDoubleRealSpace) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 3, 914);

  la::MatC real64;
  map.to_real_batch(phi, real64);
  la::MatCf real32;
  map.to_real_batch(phi, real32);
  real_t scale = 0.0, err = 0.0;
  for (size_t i = 0; i < real64.size(); ++i) {
    scale = std::max(scale, std::abs(real64.data()[i]));
    err = std::max(err, std::abs(real64.data()[i] -
                                 static_cast<cplx>(real32.data()[i])));
  }
  EXPECT_LE(err, 1e-5 * std::max(scale, real_t(1.0)));
}

// ----------------------------------------------- Bluestein-sized grids --

TEST(PrecisionExchange, BluesteinGridBothPrecisions) {
  // Non-{2,3,5,7} grid dims route every batched pair FFT through the
  // Bluestein chirp-z fallback; the exchange pipeline must work (and the
  // precisions agree) there too.
  const real_t box = 8.0;
  auto lattice = grid::Lattice::cubic(box);
  grid::GSphere sphere(lattice, 2.0);
  // 11 and 13 are prime (Bluestein); 12 is the mixed-radix control.
  grid::FftGrid gridb(lattice, {11, 13, 12});
  pw::SphereGridMap map{sphere, gridb};

  const size_t npw = sphere.npw();
  const la::MatC phi = test::random_orbitals(npw, 4, 915);
  const std::vector<real_t> d{1.0, 0.7, 0.4, 0.1};
  const la::MatC tgt = test::random_orbitals(npw, 2, 916);

  const auto x64 = make_xop(map, Precision::kDouble);
  la::MatC ref(npw, 2);
  x64.apply_diag(phi, d, tgt, ref);
  EXPECT_GT(la::frob_norm(ref), 0.0);

  // Per-pair path agrees with the batched path on the Bluestein grid.
  la::MatC ref_single(npw, 2);
  make_xop(map, Precision::kDouble, 1).apply_diag(phi, d, tgt, ref_single);
  EXPECT_LE(la::frob_diff(ref_single, ref), 1e-10);

  const real_t scale = std::max(la::frob_norm(ref), real_t(1.0));
  for (const Precision p :
       {Precision::kSingle, Precision::kSingleCompensated}) {
    const auto x32 = make_xop(map, p);
    la::MatC out(npw, 2);
    x32.apply_diag(phi, d, tgt, out);
    EXPECT_LE(la::frob_diff(out, ref), 1e-5 * scale)
        << "precision=" << precision_name(p);
  }
}

// ------------------------------------------------- distributed ring -----

TEST(PrecisionDist, RingMovesHalfTheBytes) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 6;
  const la::MatC phi = test::random_orbitals(npw, nb, 917);
  std::vector<real_t> d(nb, 0.5);

  auto ring_bytes = [&](Precision p) {
    const auto xop = make_xop(map, p);
    ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
      (void)dist::exchange_apply_distributed(c, xop, phi, d, phi,
                                             dist::ExchangePattern::kRing);
    });
    long long bytes = 0;
    const auto& st = ptmpi::last_run_stats()[0];
    const auto it = st.ops.find("Sendrecv");
    if (it != st.ops.end()) bytes = it->second.bytes;
    return bytes;
  };

  const long long b64 = ring_bytes(Precision::kDouble);
  const long long b32 = ring_bytes(Precision::kSingle);
  EXPECT_GT(b64, 0);
  // sizeof(cplxf) is exactly half of sizeof(cplx): the FP32 policy halves
  // the circulated payload bit-for-bit.
  EXPECT_EQ(2 * b32, b64);
}

TEST(PrecisionDist, DistributedMatchesSerialBothPrecisions) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC phi = test::random_orbitals(npw, nb, 918);
  std::vector<real_t> d(nb);
  for (size_t i = 0; i < nb; ++i) d[i] = 1.0 - 0.15 * static_cast<real_t>(i);

  for (const Precision p : {Precision::kDouble, Precision::kSingle}) {
    const auto xop = make_xop(map, p);
    la::MatC serial(npw, nb);
    xop.apply_diag(phi, d, phi, serial);

    for (const auto pat :
         {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
          dist::ExchangePattern::kAsyncRing}) {
      la::MatC gathered(npw, nb);
      ptmpi::run_ranks(3, 1, [&](ptmpi::Comm& c) {
        const la::MatC mine =
            dist::exchange_apply_distributed(c, xop, phi, d, phi, pat);
        const dist::BlockLayout tb(nb, c.size());
        // Collect each rank's target block into the shared output.
        for (size_t b = 0; b < tb.count(c.rank()); ++b)
          std::copy(mine.col(b), mine.col(b) + npw,
                    gathered.col(tb.offset(c.rank()) + b));
      });
      // Distributed FP32 differs from serial FP32 only through FP64
      // accumulation order (block partitioning) — far below the FP32 noise.
      EXPECT_LE(la::frob_diff(gathered, serial),
                1e-9 * std::max(la::frob_norm(serial), real_t(1.0)))
          << precision_name(p) << " pattern=" << dist::pattern_name(pat);
    }
  }
}

TEST(PrecisionDist, MixedWeightedMatchesSerialSingle) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 919);
  const la::MatC sigma = test::random_occupation_matrix(nb, 920);

  const auto xop = make_xop(map, Precision::kSingle);
  la::MatC serial(npw, nb);
  xop.apply_mixed_naive(phi, sigma, phi, serial);

  // theta = Phi * sigma carries the contraction.
  la::MatC theta(npw, nb);
  la::gemm_nn(phi, sigma, theta);

  la::MatC gathered(npw, nb);
  ptmpi::run_ranks(2, 1, [&](ptmpi::Comm& c) {
    const dist::BlockLayout bands(nb, c.size());
    const la::MatC phi_local = dist::scatter_bands(phi, bands, c.rank());
    const la::MatC theta_local = dist::scatter_bands(theta, bands, c.rank());
    const la::MatC mine = dist::exchange_apply_distributed_mixed_local(
        c, xop, phi_local, theta_local, phi_local, bands,
        dist::ExchangePattern::kRing);
    for (size_t b = 0; b < bands.count(c.rank()); ++b)
      std::copy(mine.col(b), mine.col(b) + npw,
                gathered.col(bands.offset(c.rank()) + b));
  });
  EXPECT_LE(la::frob_diff(gathered, serial),
            1e-6 * std::max(la::frob_norm(serial), real_t(1.0)));
}

// ---------------------------------------------- PT-IM-ACE trajectory ----

namespace {

// Shared tiny hybrid finite-T ground state for the trajectory comparison.
struct PrecEnv {
  test::TinySystem sys;
  gs::ScfResult ground;

  PrecEnv() : sys(test::TinySystem::make(3.0)) {
    gs::ScfOptions opt;
    opt.nbands = 6;
    opt.nelec = 8.0;
    opt.temperature_k = 8000.0;
    opt.tol_rho = 1e-7;
    opt.davidson_tol = 1e-8;
    ground = gs::ground_state(*sys.ham, opt);
  }

  static PrecEnv& get() {
    static PrecEnv* env = new PrecEnv();
    return *env;
  }

  real_t energy(const td::TdState& s) const {
    const auto rho = ham::density_sigma(s.phi, s.sigma, sys.ham->den_map());
    sys.ham->set_density(rho);
    return sys.ham->energy(s.phi, s.sigma, rho).total();
  }
};

}  // namespace

TEST(PrecisionTrajectory, PtImAceEnergyTracksDoubleOver10Steps) {
  // The end-to-end acceptance bar: 10 PT-IM-ACE steps with the exchange
  // pipeline in FP32 agree with the all-FP64 trajectory to 1e-8 in total
  // energy at every step. The propagator algebra is FP64 in both runs; only
  // the exchange pair FFTs (inside the ACE build) differ.
  auto& env = PrecEnv::get();
  const int steps = 10;

  auto run = [&](Precision p) {
    td::TdState s = td::TdState::from_occupations(env.ground.phi,
                                                  env.ground.occ);
    td::PtImOptions opt;
    opt.dt = 1.0;
    opt.variant = td::PtImVariant::kAce;
    // Production tolerances: tol_fock must sit above the FP32 noise floor
    // (~1e-7 relative) or the ACE outer loop runs to its cap chasing noise
    // in the FP32 run (see the README's "when to pick each mode").
    opt.tol = 1e-7;
    opt.tol_fock = 1e-6;
    opt.exchange_precision = p;
    td::PtImPropagator prop(*env.sys.ham, opt, nullptr);
    std::vector<real_t> energies;
    for (int i = 0; i < steps; ++i) {
      prop.step(s);
      // Measure both trajectories with the FP64 operator so the comparison
      // isolates trajectory drift from FP32 noise in the energy evaluation
      // itself (which is bounded separately by EnergyTracksDouble).
      env.sys.ham->set_exchange_precision(Precision::kDouble);
      energies.push_back(env.energy(s));
      env.sys.ham->set_exchange_precision(p);
    }
    return energies;
  };

  const auto e64 = run(Precision::kDouble);
  const auto e32 = run(Precision::kSingle);
  env.sys.ham->set_exchange_precision(Precision::kDouble);

  real_t max_de = 0.0;
  for (int i = 0; i < steps; ++i)
    max_de = std::max(max_de, std::abs(e32[static_cast<size_t>(i)] -
                                       e64[static_cast<size_t>(i)]));
  EXPECT_LE(max_de, 1e-8) << "max |dE| over " << steps << " steps";
}
