// The public Simulation API, the PT-CN (frozen-sigma) mode, the current
// observable and the memory-footprint model.

#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.hpp"
#include "gs/scf.hpp"
#include "ham/density.hpp"
#include "netsim/memory.hpp"
#include "pw/wavefunction.hpp"
#include "td/observables.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

core::Simulation& shared_sim() {
  static core::Simulation* sim = [] {
    core::SystemSpec spec;
    spec.ecut = 1.5;  // very small: 8-atom cell must stay test-fast
    spec.temperature_k = 8000.0;
    spec.extra_states_per_atom = 0.5;
    spec.scf.tol_rho = 5e-5;
    spec.scf.max_scf = 120;
    spec.scf.davidson_tol = 1e-6;
    spec.scf.max_outer_ace = 3;
    auto* s = new core::Simulation(spec);
    s->prepare_ground_state();
    return s;
  }();
  return *sim;
}

}  // namespace

TEST(Simulation, SpecArithmetic) {
  core::SystemSpec spec;
  spec.ecut = 1.5;
  core::Simulation sim(spec);
  EXPECT_EQ(sim.natoms(), 8u);              // one conventional cell
  EXPECT_NEAR(sim.nelec(), 32.0, 1e-12);    // 4 valence e per Si
  EXPECT_EQ(sim.nbands(), 16u + 4u);        // nelec/2 + natoms/2
}

TEST(Simulation, GroundStateProperties) {
  auto& sim = shared_sim();
  const auto& gs = sim.ground_state();
  EXPECT_TRUE(gs.converged);
  EXPECT_LT(pw::orthonormality_defect(gs.phi), 1e-5);
  real_t nelec = 0.0;
  for (const real_t f : gs.occ) nelec += 2.0 * f;
  EXPECT_NEAR(nelec, 32.0, 1e-6);
  // Finite temperature: at least one genuinely fractional occupation.
  bool fractional = false;
  for (const real_t f : gs.occ)
    if (f > 0.02 && f < 0.98) fractional = true;
  EXPECT_TRUE(fractional);
  EXPECT_LT(gs.energy.fock, 0.0);
  EXPECT_LT(gs.energy.total(), 0.0);
}

TEST(GroundState, OuterConvergedWhenTheFockTestEndsTheLoop) {
  // The perfbench system (ecut 2, 8000 K, tol_rho 1e-6): the hybrid outer
  // loop is still drifting when max_outer_ace = 10 stops it. converged
  // keeps its meaning, the density loop's.
  core::SystemSpec spec;
  spec.ecut = 2.0;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 1e-6;
  core::Simulation capped(spec);
  const gs::ScfResult& r = capped.prepare_ground_state();
  EXPECT_EQ(r.outer_iterations, spec.scf.max_outer_ace);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.outer_converged);

  // A small hybrid ground state whose Fock-energy test passes before the
  // cap, and one with no hybrid stage.
  auto hybrid = test::TinySystem::make(3.0);
  gs::ScfOptions scf;
  scf.nbands = 5;
  scf.nelec = 8.0;
  scf.temperature_k = 1000.0;
  scf.tol_fock = 1e-4;
  scf.max_outer_ace = 30;
  const gs::ScfResult h = gs::ground_state(*hybrid.ham, scf);
  EXPECT_LT(h.outer_iterations, scf.max_outer_ace);
  EXPECT_TRUE(h.outer_converged);

  ham::HamiltonianOptions semilocal;
  semilocal.hybrid = false;
  auto lda = test::TinySystem::make(3.0, 8.0, semilocal);
  const gs::ScfResult s = gs::ground_state(*lda.ham, scf);
  EXPECT_EQ(s.outer_iterations, 0);
  EXPECT_TRUE(s.outer_converged);
}

TEST(Simulation, InitialStateMatchesOccupations) {
  auto& sim = shared_sim();
  const auto s = sim.initial_state();
  EXPECT_EQ(s.nbands(), sim.nbands());
  EXPECT_NEAR(td::sigma_trace(s.sigma), sim.nelec() / 2.0, 1e-8);
  EXPECT_GT(td::sigma_idempotency_defect(s.sigma), 1e-3);  // mixed state
  // Density from the state integrates to the electron count.
  const auto rho = sim.density(s);
  real_t total = 0.0;
  for (const real_t r : rho) total += r;
  total *= sim.hamiltonian().den_grid().dvol();
  EXPECT_NEAR(total, sim.nelec(), 1e-6);
}

TEST(Simulation, EnergyBreakdownFinite) {
  auto& sim = shared_sim();
  const auto e = sim.energy(sim.initial_state());
  for (const real_t v : {e.kinetic, e.local, e.hartree, e.xc, e.fock,
                         e.ewald, e.total()})
    EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(e.kinetic, 0.0);
  EXPECT_LT(e.xc, 0.0);
  EXPECT_LT(e.ewald, 0.0);
}

TEST(Simulation, PropagateOneStepThroughApi) {
  auto& sim = shared_sim();
  td::LaserParams lp;
  lp.e0 = 0.01;
  sim.set_laser(lp);
  core::RunConfig cfg;
  cfg.dt = 2.0;
  cfg.t_horizon = 10.0;  // envelope placed against a 10 au horizon
  cfg.variant = td::PtImVariant::kAce;
  auto prop = sim.make_ptim(cfg);
  auto state = sim.initial_state();
  const real_t d0 = sim.dipole_x(state);
  const auto stats = prop->step(state);
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(state.time, 2.0, 1e-12);
  EXPECT_TRUE(std::isfinite(sim.dipole_x(state)));
  EXPECT_LT(std::abs(sim.dipole_x(state) - d0), 0.5);  // gentle kick only
}

TEST(PtCn, FrozenSigmaMode) {
  // PT-CN: sigma must not change; Phi still evolves and stays orthonormal.
  auto sys = test::TinySystem::make(3.0);
  gs::ScfOptions scf;
  scf.nbands = 5;
  scf.nelec = 8.0;
  scf.temperature_k = 0.0;  // pure states (PT-CN's domain of validity)
  const auto gs_res = gs::ground_state(*sys.ham, scf);
  auto s = td::TdState::from_occupations(gs_res.phi, gs_res.occ);
  const la::MatC sigma0 = s.sigma;

  td::PtImOptions opt;
  opt.dt = 1.0;
  opt.tol = 1e-8;
  opt.evolve_sigma = false;
  td::PtImPropagator prop(*sys.ham, opt, nullptr);
  const auto stats = prop.step(s);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(pw::orthonormality_defect(s.phi), 1e-10);
  // Final orthonormalization applies a near-identity congruence to sigma;
  // the occupations themselves are untouched by the dynamics.
  for (size_t i = 0; i < sigma0.rows(); ++i)
    EXPECT_NEAR(std::real(s.sigma(i, i)), std::real(sigma0(i, i)), 1e-6);
}

TEST(PtCn, MatchesPtImForPureStatesPhysically) {
  // For a gapped pure-state system both gauges represent the same physics:
  // densities agree after one step even though sigma evolves in one and
  // not the other.
  auto sys = test::TinySystem::make(3.0);
  gs::ScfOptions scf;
  scf.nbands = 5;
  scf.nelec = 8.0;
  scf.temperature_k = 0.0;
  const auto gs_res = gs::ground_state(*sys.ham, scf);

  auto run = [&](bool evolve_sigma) {
    auto s = td::TdState::from_occupations(gs_res.phi, gs_res.occ);
    td::PtImOptions opt;
    opt.dt = 1.0;
    opt.tol = 1e-9;
    opt.evolve_sigma = evolve_sigma;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    prop.step(s);
    return ham::density_sigma(s.phi, s.sigma, sys.ham->den_map());
  };
  const auto rho_im = run(true);
  const auto rho_cn = run(false);
  real_t diff = 0.0, norm = 0.0;
  for (size_t i = 0; i < rho_im.size(); ++i) {
    diff += (rho_im[i] - rho_cn[i]) * (rho_im[i] - rho_cn[i]);
    norm += rho_im[i] * rho_im[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-5);
}

TEST(Observables, CurrentZeroAtGroundState) {
  // Stationary real-occupancy ground state carries no net current; a
  // vector-potential kick produces j ~ -n A / Omega (f-sum rule direction).
  auto sys = test::TinySystem::make(3.0);
  gs::ScfOptions scf;
  scf.nbands = 5;
  scf.nelec = 8.0;
  scf.temperature_k = 1000.0;
  const auto gs_res = gs::ground_state(*sys.ham, scf);
  la::MatC sigma(5, 5);
  for (size_t i = 0; i < 5; ++i) sigma(i, i) = gs_res.occ[i];

  const real_t j0 = td::current(gs_res.phi, sigma, *sys.sphere,
                                {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0});
  EXPECT_NEAR(j0, 0.0, 1e-8);

  const real_t kick = 1e-3;
  const real_t jk = td::current(gs_res.phi, sigma, *sys.sphere,
                                {kick, 0.0, 0.0}, {1.0, 0.0, 0.0});
  // Diamagnetic response: j = 2*sum(occ)*A/Omega exactly in this basis.
  const real_t expect = 2.0 * 4.0 * kick / sys.lattice->volume();
  EXPECT_NEAR(jk, expect, 1e-8);
}

TEST(MemoryModel, ShmDividesSquareMatrices) {
  const auto plat = netsim::Platform::fugaku_arm();
  const auto sys = netsim::SystemSize::silicon(768);
  const auto no_shm = netsim::memory_per_rank(plat, sys, 480, false);
  const auto shm = netsim::memory_per_rank(plat, sys, 480, true);
  EXPECT_NEAR(shm.square_matrices, no_shm.square_matrices / 4.0, 1.0);
  EXPECT_EQ(shm.wavefunctions, no_shm.wavefunctions);
  EXPECT_LT(shm.total(), no_shm.total());
}

TEST(MemoryModel, FugakuCapacityMatchesPaper) {
  // Paper: 1536 atoms fit on 960 Fugaku nodes only thanks to SHM (8 GB per
  // CMG rank); without SHM the replicated N^2 matrices overflow.
  const auto plat = netsim::Platform::fugaku_arm();
  const double budget = 8e9;
  const size_t with_shm = netsim::max_atoms_for_memory(plat, 960, budget, true);
  const size_t without = netsim::max_atoms_for_memory(plat, 960, budget, false);
  EXPECT_GE(with_shm, 1536u);
  EXPECT_GT(with_shm, without);
}

TEST(MemoryModel, GpuCapacityMatchesPaper) {
  // Paper: 3072 atoms consume >80% of the 40 GB A100 memory on 192 nodes
  // (their GPU footprint includes buffers we do not itemize, so we assert
  // a large fraction); 6144 atoms overflow even with twice the nodes.
  const auto plat = netsim::Platform::gpu_a100();
  const auto sys3072 = netsim::SystemSize::silicon(3072);
  const double used =
      netsim::memory_per_rank(plat, sys3072, 192, true).total();
  EXPECT_GT(used, 0.35 * 40e9);
  EXPECT_LT(used, 1.2 * 40e9);
  const auto sys6144 = netsim::SystemSize::silicon(6144);
  const double used6144 =
      netsim::memory_per_rank(plat, sys6144, 384, true).total();
  EXPECT_GT(used6144, 40e9);
}

TEST(MemoryModel, WavefunctionsScaleSquareMatricesDoNot) {
  const auto plat = netsim::Platform::gpu_a100();
  const auto sys = netsim::SystemSize::silicon(1536);
  const auto m96 = netsim::memory_per_rank(plat, sys, 96, false);
  const auto m192 = netsim::memory_per_rank(plat, sys, 192, false);
  EXPECT_LT(m192.wavefunctions, m96.wavefunctions);
  EXPECT_EQ(m192.square_matrices, m96.square_matrices);
}
