// Assembled Hamiltonian: Hermiticity in every exchange mode, velocity-gauge
// kinetic term, energy assembly, and the ground-state SCF/Davidson stack.

#include <gtest/gtest.h>

#include <cmath>

#include "gs/davidson.hpp"
#include "gs/scf.hpp"
#include "ham/density.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

test::TinySystem make_sys(bool hybrid = true) {
  ham::HamiltonianOptions opt;
  opt.hybrid = hybrid;
  return test::TinySystem::make(3.0, 8.0, opt);
}

std::vector<real_t> uniform_density(const test::TinySystem& s, real_t nelec) {
  return std::vector<real_t>(s.den_grid->size(),
                             nelec / s.lattice->volume());
}

}  // namespace

TEST(Hamiltonian, SemilocalHermitian) {
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 5, 101);
  la::MatC hphi;
  sys.ham->apply_semilocal(phi, hphi);
  const la::MatC m = pw::overlap(phi, hphi);
  EXPECT_LT(la::hermiticity_defect(m), 1e-10);
}

TEST(Hamiltonian, HybridHermitianAllModes) {
  auto sys = make_sys(true);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 102);
  const la::MatC sigma = test::random_occupation_matrix(nb, 103);

  for (const auto mode :
       {ham::ExchangeMode::kExactNaive, ham::ExchangeMode::kExactDiag}) {
    sys.ham->set_exchange_mode(mode);
    sys.ham->set_exchange_source_mixed(phi, sigma);
    la::MatC hphi;
    sys.ham->apply(phi, hphi);
    const la::MatC m = pw::overlap(phi, hphi);
    EXPECT_LT(la::hermiticity_defect(m), 1e-10)
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(Hamiltonian, ExactModesAgree) {
  auto sys = make_sys(true);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 104);
  const la::MatC sigma = test::random_occupation_matrix(nb, 105);

  la::MatC h_naive, h_diag;
  sys.ham->set_exchange_mode(ham::ExchangeMode::kExactNaive);
  sys.ham->set_exchange_source_mixed(phi, sigma);
  sys.ham->apply(phi, h_naive);
  sys.ham->set_exchange_mode(ham::ExchangeMode::kExactDiag);
  sys.ham->set_exchange_source_mixed(phi, sigma);
  sys.ham->apply(phi, h_diag);
  EXPECT_LT(la::frob_diff(h_naive, h_diag), 1e-10 * la::frob_norm(h_naive));
}

TEST(Hamiltonian, VelocityGaugeShiftsKinetic) {
  auto sys = make_sys(false);
  const grid::Vec3 a{0.2, 0.0, 0.0};
  sys.ham->set_vector_potential(a);
  const auto kin = sys.ham->kinetic_diag();
  for (size_t i = 0; i < sys.sphere->npw(); i += 7) {
    const auto g = sys.sphere->gvec(i);
    EXPECT_NEAR(kin[i], 0.5 * grid::norm2(g + a), 1e-12);
  }
  // A != 0 breaks the +G/-G degeneracy of the kinetic term.
  bool asymmetric = false;
  for (size_t i = 1; i < sys.sphere->npw(); ++i) {
    const auto f = sys.sphere->freqs()[i];
    if (f[0] != 0) {
      asymmetric = true;
      break;
    }
  }
  EXPECT_TRUE(asymmetric);
}

TEST(Hamiltonian, ExternalPotentialEntersApply) {
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 2, 106);
  la::MatC h0;
  sys.ham->apply(phi, h0);
  // Constant external potential shifts H by that constant.
  std::vector<real_t> vext(sys.den_grid->size(), 0.37);
  sys.ham->set_external_potential(vext);
  la::MatC h1;
  sys.ham->apply(phi, h1);
  for (size_t i = 0; i < h0.size(); ++i)
    EXPECT_NEAR(std::abs(h1.data()[i] - h0.data()[i] -
                         0.37 * phi.data()[i]),
                0.0, 1e-9);
}

TEST(Davidson, FindsLowestStatesOfKnownOperator) {
  // Diagonal operator on the sphere basis: H = diag(kinetic) — eigenvalues
  // are the sorted kinetic factors.
  auto sys = make_sys(false);
  const size_t npw = sys.sphere->npw();
  const auto kin = sys.ham->kinetic_diag();
  auto apply = [&](const la::MatC& in, la::MatC& out) {
    out.resize(in.rows(), in.cols());
    for (size_t b = 0; b < in.cols(); ++b)
      for (size_t i = 0; i < npw; ++i) out(i, b) = kin[i] * in(i, b);
  };
  const size_t nb = 4;
  const la::MatC x0 = test::random_orbitals(npw, nb, 107);
  gs::DavidsonOptions opt;
  opt.tol = 1e-7;
  const auto res = gs::davidson(apply, x0, kin, opt);
  ASSERT_TRUE(res.converged);
  std::vector<real_t> sorted_kin = kin;
  std::sort(sorted_kin.begin(), sorted_kin.end());
  for (size_t j = 0; j < nb; ++j)
    EXPECT_NEAR(res.eps[j], sorted_kin[j], 1e-7);
}

TEST(Davidson, ConvergesOnRealHamiltonian) {
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  auto apply = [&](const la::MatC& in, la::MatC& out) {
    sys.ham->apply(in, out);
  };
  const la::MatC x0 = test::random_orbitals(npw, 6, 108);
  gs::DavidsonOptions opt;
  opt.tol = 1e-6;
  opt.max_iter = 80;
  const auto res = gs::davidson(apply, x0, sys.ham->kinetic_diag(), opt);
  EXPECT_TRUE(res.converged);
  // Eigenvalues ascending and below the vacuum continuum.
  for (size_t j = 1; j < res.eps.size(); ++j)
    EXPECT_LE(res.eps[j - 1], res.eps[j] + 1e-10);
  EXPECT_LT(pw::orthonormality_defect(res.x), 1e-6);
}

TEST(Davidson, MatchesDenseReference) {
  // H built column by column on the sphere basis and diagonalized densely:
  // the nb lowest Davidson eigenvalues must match, with the default 3*nb
  // basis and with a basis of nb + 1 columns that restarts every iteration.
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  auto apply = [&](const la::MatC& in, la::MatC& out) {
    sys.ham->apply(in, out);
  };
  la::MatC h(npw, npw);
  apply(la::MatC::identity(npw), h);
  la::hermitize(h);
  const std::vector<real_t> ref = la::eig_herm(h, 0).w;

  const size_t nb = 6;
  for (const size_t max_subspace : {size_t{0}, nb + 1}) {
    gs::DavidsonOptions opt;
    opt.tol = 1e-8;
    opt.max_iter = 400;
    opt.max_subspace = max_subspace;
    const auto res = gs::davidson(apply, test::random_orbitals(npw, nb, 109),
                                  sys.ham->kinetic_diag(), opt);
    EXPECT_TRUE(res.converged) << "max_subspace=" << max_subspace;
    ASSERT_EQ(res.eps.size(), nb);
    for (size_t j = 0; j < nb; ++j)
      EXPECT_NEAR(res.eps[j], ref[j], 1e-7)
          << "max_subspace=" << max_subspace << " band " << j;
    EXPECT_LT(pw::orthonormality_defect(res.x), 1e-10);
  }
}

TEST(Davidson, CountsRayleighRitzStepsAtItsCap) {
  // An unreachable tolerance runs to max_iter Rayleigh–Ritz steps: one
  // apply_h for the initial block and one per expansion between steps,
  // none after the last step.
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  int applies = 0;
  auto apply = [&](const la::MatC& in, la::MatC& out) {
    ++applies;
    sys.ham->apply(in, out);
  };
  gs::DavidsonOptions opt;
  opt.tol = 1e-30;
  opt.max_iter = 3;
  const auto res = gs::davidson(apply, test::random_orbitals(npw, 4, 110),
                                sys.ham->kinetic_diag(), opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_EQ(applies, 3);
}

TEST(GroundState, SemilocalScfConverges) {
  auto sys = make_sys(false);
  gs::ScfOptions opt;
  opt.nbands = 6;
  opt.nelec = 8.0;  // 2 Si atoms x 4 valence electrons
  opt.temperature_k = 300.0;
  opt.tol_rho = 1e-6;
  const auto res = gs::ground_state(*sys.ham, opt);
  EXPECT_TRUE(res.converged);
  // Density integrates to the electron count.
  EXPECT_NEAR(ham::integrate(res.rho, *sys.den_grid), 8.0, 1e-6);
  // Occupied states below mu, empties above.
  EXPECT_LT(res.eps[0], res.mu);
  EXPECT_GT(res.eps[5], res.mu);
  EXPECT_LT(pw::orthonormality_defect(res.phi), 1e-6);
  // Total energy is negative and finite.
  EXPECT_LT(res.energy.total(), 0.0);
  EXPECT_TRUE(std::isfinite(res.energy.total()));
}

TEST(GroundState, CountsScfIterationsAtItsCap) {
  auto sys = make_sys(false);
  gs::ScfOptions opt;
  opt.nbands = 6;
  opt.nelec = 8.0;
  opt.temperature_k = 300.0;
  opt.tol_rho = 1e-30;
  opt.max_scf = 2;
  const auto res = gs::ground_state(*sys.ham, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.scf_iterations, 2);
}

TEST(GroundState, ReportsMissedEigensolverTolerance) {
  // The density converges, but no eigensolve can reach davidson_tol: the
  // result must not claim convergence.
  auto sys = make_sys(false);
  gs::ScfOptions opt;
  opt.nbands = 6;
  opt.nelec = 8.0;
  opt.temperature_k = 300.0;
  opt.tol_rho = 1e-6;
  opt.davidson_tol = 1e-30;
  opt.davidson_iter = 10;
  const auto res = gs::ground_state(*sys.ham, opt);
  EXPECT_LT(res.scf_iterations, opt.max_scf);  // stopped on tol_rho
  EXPECT_FALSE(res.converged);
}

TEST(GroundState, HybridLowersExchangeEnergy) {
  auto sys = make_sys(true);
  gs::ScfOptions opt;
  opt.nbands = 6;
  opt.nelec = 8.0;
  opt.temperature_k = 1000.0;
  opt.tol_rho = 1e-6;
  opt.max_outer_ace = 6;
  const auto res = gs::ground_state(*sys.ham, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.energy.fock, 0.0);
  EXPECT_GE(res.outer_iterations, 2);
  // ACE operator left in place for TD restarts.
  EXPECT_TRUE(sys.ham->ace().valid());
}

TEST(EnergyTerms, TotalIsSum) {
  ham::EnergyTerms e;
  e.kinetic = 1.0;
  e.local = -2.0;
  e.hartree = 0.5;
  e.xc = -0.7;
  e.fock = -0.1;
  e.nonlocal = 0.05;
  e.ewald = -3.0;
  EXPECT_NEAR(e.total(), 1.0 - 2.0 + 0.5 - 0.7 - 0.1 + 0.05 - 3.0, 1e-14);
}
