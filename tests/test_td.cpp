// Time propagation: conservation laws, variant equivalences and the
// PT-IM vs RK4 gauge-consistency claim (the paper's Fig. 7 in miniature).

#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <cmath>
#include <vector>

#include "gs/scf.hpp"
#include "ham/density.hpp"
#include "ham/hartree.hpp"
#include "ham/xc_lda.hpp"
#include "la/blas.hpp"
#include "pseudo/ewald.hpp"
#include "pw/wavefunction.hpp"
#include "td/laser.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "td/rk4.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

// Shared tiny ground state: computed once (hybrid, finite T), reused by all
// propagation tests through a leaky singleton.
struct TdEnv {
  test::TinySystem sys;
  gs::ScfResult ground;

  TdEnv() : sys(test::TinySystem::make(3.0)) {
    gs::ScfOptions opt;
    opt.nbands = 6;
    opt.nelec = 8.0;
    opt.temperature_k = 8000.0;
    opt.tol_rho = 1e-7;
    opt.davidson_tol = 1e-8;
    ground = gs::ground_state(*sys.ham, opt);
  }

  static TdEnv& get() {
    static TdEnv* env = new TdEnv();
    return *env;
  }

  td::TdState initial() const {
    return td::TdState::from_occupations(ground.phi, ground.occ);
  }

  std::vector<real_t> density(const td::TdState& s) const {
    return ham::density_sigma(s.phi, s.sigma, sys.ham->den_map());
  }
};

}  // namespace

TEST(Laser, FieldAndVectorPotentialConsistent) {
  td::LaserParams p;
  p.e0 = 0.01;
  p.wavelength_nm = 380.0;
  const real_t t_max = 200.0;
  td::LaserPulse laser(p, t_max);

  // A(0) = 0; dA/dt = -E (finite difference vs table interpolation).
  EXPECT_NEAR(laser.vector_potential(0.0)[0], 0.0, 1e-12);
  const real_t h = 0.05;
  for (const real_t t : {40.0, 90.0, 120.0, 160.0}) {
    const real_t dadt = (laser.vector_potential(t + h)[0] -
                         laser.vector_potential(t - h)[0]) /
                        (2.0 * h);
    EXPECT_NEAR(dadt, -laser.efield(t), 5e-4 * std::abs(p.e0));
  }
  // Envelope: field is tiny at the edges, significant at the center.
  EXPECT_LT(std::abs(laser.efield(1.0)), 0.02 * p.e0);
  real_t peak = 0.0;
  for (real_t t = 0; t < t_max; t += 0.5)
    peak = std::max(peak, std::abs(laser.efield(t)));
  EXPECT_GT(peak, 0.8 * p.e0);
}

TEST(Laser, PhotonEnergyMatchesWavelength) {
  td::LaserParams p;
  p.wavelength_nm = 380.0;
  td::LaserPulse laser(p, 100.0);
  EXPECT_NEAR(laser.omega() * units::hartree_in_ev, 3.2627, 2e-3);
}

TEST(Rk4, ConservesNormAndEnergyFieldFree) {
  auto& env = TdEnv::get();
  td::TdState s = env.initial();
  const real_t e0 = [&] {
    const auto rho = env.density(s);
    env.sys.ham->set_density(rho);
    return env.sys.ham->energy(s.phi, s.sigma, rho).total();
  }();

  td::Rk4Options opt;
  opt.dt = 0.05;
  td::Rk4Propagator prop(*env.sys.ham, opt, nullptr);
  for (int i = 0; i < 10; ++i) prop.step(s);

  EXPECT_LT(pw::orthonormality_defect(s.phi), 1e-6);
  const auto rho = env.density(s);
  env.sys.ham->set_density(rho);
  const real_t e1 = env.sys.ham->energy(s.phi, s.sigma, rho).total();
  EXPECT_NEAR(e1, e0, 1e-7 * std::abs(e0));
}

TEST(PtIm, StepPreservesInvariants) {
  auto& env = TdEnv::get();
  td::TdState s = env.initial();
  const real_t tr0 = td::sigma_trace(s.sigma);

  td::PtImOptions opt;
  opt.dt = 1.0;
  opt.variant = td::PtImVariant::kDiag;
  td::PtImPropagator prop(*env.sys.ham, opt, nullptr);
  const auto stats = prop.step(s);

  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.scf_iterations, 1);
  // Orthonormal orbitals, Hermitian sigma, conserved trace.
  EXPECT_LT(pw::orthonormality_defect(s.phi), 1e-10);
  EXPECT_LT(td::sigma_hermiticity_defect(s.sigma), 1e-12);
  EXPECT_NEAR(td::sigma_trace(s.sigma), tr0, 1e-7);
}

TEST(PtIm, FieldFreeEnergyConserved) {
  auto& env = TdEnv::get();
  td::TdState s = env.initial();
  const auto rho0 = env.density(s);
  env.sys.ham->set_density(rho0);
  const real_t e0 = env.sys.ham->energy(s.phi, s.sigma, rho0).total();

  td::PtImOptions opt;
  opt.dt = 2.0;  // ~50 as
  opt.tol = 1e-9;
  td::PtImPropagator prop(*env.sys.ham, opt, nullptr);
  for (int i = 0; i < 3; ++i) prop.step(s);

  const auto rho1 = env.density(s);
  env.sys.ham->set_density(rho1);
  const real_t e1 = env.sys.ham->energy(s.phi, s.sigma, rho1).total();
  EXPECT_NEAR(e1, e0, 5e-6 * std::abs(e0));
}

TEST(PtIm, BaselineAndDiagVariantsAgree) {
  auto& env = TdEnv::get();
  td::TdState sa = env.initial();
  td::TdState sb = env.initial();

  td::PtImOptions oa;
  oa.dt = 1.0;
  oa.tol = 1e-9;
  oa.variant = td::PtImVariant::kBaseline;
  td::PtImOptions ob = oa;
  ob.variant = td::PtImVariant::kDiag;

  td::PtImPropagator pa(*env.sys.ham, oa, nullptr);
  td::PtImPropagator pb(*env.sys.ham, ob, nullptr);
  pa.step(sa);
  pb.step(sb);

  // Same fixed point: physical observables agree tightly.
  const auto rho_a = env.density(sa);
  const auto rho_b = env.density(sb);
  real_t diff = 0.0, norm = 0.0;
  for (size_t i = 0; i < rho_a.size(); ++i) {
    diff += (rho_a[i] - rho_b[i]) * (rho_a[i] - rho_b[i]);
    norm += rho_a[i] * rho_a[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-6);
}

TEST(PtIm, AceVariantTracksExact) {
  auto& env = TdEnv::get();
  td::TdState sa = env.initial();
  td::TdState sb = env.initial();

  td::PtImOptions oa;
  oa.dt = 2.0;
  oa.tol = 1e-8;
  oa.variant = td::PtImVariant::kDiag;
  td::PtImOptions ob = oa;
  ob.variant = td::PtImVariant::kAce;
  ob.tol_fock = 1e-9;

  td::PtImPropagator pa(*env.sys.ham, oa, nullptr);
  td::PtImPropagator pb(*env.sys.ham, ob, nullptr);
  pa.step(sa);
  const auto stats = pb.step(sb);
  EXPECT_GE(stats.outer_iterations, 2);

  const auto rho_a = env.density(sa);
  const auto rho_b = env.density(sb);
  real_t diff = 0.0, norm = 0.0;
  for (size_t i = 0; i < rho_a.size(); ++i) {
    diff += (rho_a[i] - rho_b[i]) * (rho_a[i] - rho_b[i]);
    norm += rho_a[i] * rho_a[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-5);
}

TEST(PtIm, AceReducesExchangeApplications) {
  // The paper's 25 -> 5 claim in miniature: per step, the ACE variant needs
  // far fewer full Vx applications than the exact-exchange fixed point.
  auto& env = TdEnv::get();
  td::TdState sa = env.initial();
  td::TdState sb = env.initial();

  td::PtImOptions oa;
  oa.dt = 2.0;
  oa.variant = td::PtImVariant::kDiag;
  td::PtImOptions ob = oa;
  ob.variant = td::PtImVariant::kAce;

  td::PtImPropagator pa(*env.sys.ham, oa, nullptr);
  td::PtImPropagator pb(*env.sys.ham, ob, nullptr);
  const auto stats_exact = pa.step(sa);
  const auto stats_ace = pb.step(sb);

  EXPECT_GT(stats_exact.exchange_applications,
            2 * stats_ace.exchange_applications);
}

TEST(PtIm, OuterConvergenceIsReported) {
  // outer_converged reports the ACE Fock-energy test, not the inner fixed
  // point: with tol_fock = 0 the test can never pass, so every step stops
  // at max_outer and says so, while converged keeps its inner meaning.
  auto& env = TdEnv::get();
  td::PtImOptions opt;
  opt.dt = 2.0;
  opt.variant = td::PtImVariant::kAce;
  opt.max_outer = 2;
  opt.tol_fock = 0.0;
  td::TdState s = env.initial();
  td::PtImPropagator capped(*env.sys.ham, opt, nullptr);
  const td::PtImStepStats st = capped.step(s);
  EXPECT_FALSE(st.outer_converged);
  EXPECT_EQ(st.outer_iterations, opt.max_outer);
  EXPECT_TRUE(st.converged);

  // A variant without an outer loop has no Fock-energy test to fail.
  opt.variant = td::PtImVariant::kDiag;
  td::TdState sd = env.initial();
  td::PtImPropagator diag(*env.sys.ham, opt, nullptr);
  EXPECT_TRUE(diag.step(sd).outer_converged);
}

TEST(PtIm, MatchesRk4UnderLaser) {
  // Gauge consistency: PT-IM with a 25x larger step reproduces RK4 dipole
  // dynamics (Fig. 7's central accuracy claim, shrunk to a 2-atom cell).
  auto& env = TdEnv::get();
  td::LaserParams lp;
  lp.e0 = 0.02;
  lp.wavelength_nm = 380.0;
  const real_t t_total = 8.0;
  td::LaserPulse laser(lp, t_total);

  td::TdState s_rk = env.initial();
  td::Rk4Options ork;
  ork.dt = 0.04;
  td::Rk4Propagator prk(*env.sys.ham, ork, &laser);
  td::TdState s_pt = env.initial();
  td::PtImOptions opt;
  opt.dt = 1.0;
  opt.tol = 1e-9;
  opt.variant = td::PtImVariant::kDiag;
  td::PtImPropagator ppt(*env.sys.ham, opt, &laser);

  const grid::Vec3 xdir{1.0, 0.0, 0.0};
  real_t max_diff = 0.0, max_amp = 0.0;
  for (int step = 0; step < 8; ++step) {
    for (int k = 0; k < 25; ++k) prk.step(s_rk);
    ppt.step(s_pt);
    ASSERT_NEAR(s_rk.time, s_pt.time, 1e-9);
    const real_t d_rk =
        td::dipole(env.density(s_rk), *env.sys.den_grid, xdir);
    const real_t d_pt =
        td::dipole(env.density(s_pt), *env.sys.den_grid, xdir);
    max_diff = std::max(max_diff, std::abs(d_rk - d_pt));
    max_amp = std::max(max_amp, std::abs(d_rk));
  }
  // The dipole response must be visibly excited and the two propagators
  // must agree to a small fraction of the signal.
  EXPECT_GT(max_amp, 1e-5);
  EXPECT_LT(max_diff, 0.05 * max_amp);
}

TEST(Observables, SigmaDiagnostics) {
  la::MatC pure(3, 3);
  pure(0, 0) = 1.0;
  pure(1, 1) = 1.0;
  EXPECT_NEAR(td::sigma_idempotency_defect(pure), 0.0, 1e-14);
  EXPECT_NEAR(td::sigma_trace(pure), 2.0, 1e-14);

  la::MatC mixed(2, 2);
  mixed(0, 0) = 0.7;
  mixed(1, 1) = 0.3;
  EXPECT_GT(td::sigma_idempotency_defect(mixed), 0.1);
}

TEST(Observables, DipoleIsBitwiseIndependentOfThreads) {
  // Run-to-run comparisons of dipole traces are exact (a trajectory and
  // its replay must record equal bits), so the grid sum may depend on
  // neither the thread count nor the order the threads finish in.
  const grid::Lattice lattice = grid::Lattice::cubic(8.0);
  const grid::FftGrid g(lattice, {14, 14, 14});
  Rng rng(11);
  std::vector<real_t> rho(g.size());
  for (real_t& r : rho) r = rng.uniform();
  const grid::Vec3 dir{0.6, -0.8, 0.0};

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const real_t one = td::dipole(rho, g, dir);
  omp_set_num_threads(4);
  for (int rep = 0; rep < 50; ++rep)
    ASSERT_EQ(td::dipole(rho, g, dir), one) << "4 threads, repeat " << rep;
  omp_set_num_threads(3);
  EXPECT_EQ(td::dipole(rho, g, dir), one);
  omp_set_num_threads(saved);
}

TEST(Observables, EnergySumsAreBitwiseIndependentOfThreads) {
  // The reported energy terms and the electron count are grid (or lattice)
  // sums too, so they take the dipole's fixed-order sum: the Hartree,
  // local, xc and Ewald energies and integrate() give the same bits at 1,
  // 3 and 4 threads, call after call.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const grid::FftGrid& g = *sys.den_grid;
  Rng rng(12);
  std::vector<real_t> rho(g.size());
  for (real_t& r : rho) r = 0.01 + rng.uniform();
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 4, 13);
  const la::MatC sigma = test::random_occupation_matrix(4, 14);

  const char* names[] = {"hartree", "local", "xc", "ewald", "integrate"};
  auto sums = [&] {
    std::vector<real_t> vxc;
    return std::array<real_t, 5>{
        ham::hartree_potential(rho, g).energy,
        sys.ham->energy(phi, sigma, rho).local,
        ham::lda_pz81_eval(rho, g.dvol(), vxc),
        pseudo::ewald_energy(sys.atoms, *sys.lattice), ham::integrate(rho, g)};
  };
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto one = sums();
  std::array<int, 5> mismatches{};
  for (const int threads : {4, 3}) {
    omp_set_num_threads(threads);
    for (int rep = 0; rep < 20; ++rep) {
      const auto got = sums();
      for (size_t k = 0; k < got.size(); ++k)
        if (got[k] != one[k]) ++mismatches[k];
    }
  }
  omp_set_num_threads(saved);
  for (size_t k = 0; k < mismatches.size(); ++k)
    EXPECT_EQ(mismatches[k], 0) << names[k] << " differs from 1 thread";
}
