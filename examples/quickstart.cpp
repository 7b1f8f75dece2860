// Quickstart: the smallest end-to-end PT-IM run through the public API.
//
//   1. build an 8-atom silicon cell (one conventional diamond-cubic cell),
//   2. solve the finite-temperature hybrid-functional ground state,
//   3. propagate a few 50-as PT-IM-ACE steps under a 380 nm laser —
//      with the exact-exchange hot path in FP32 (the precision policy:
//      pair FFTs and ring payloads narrow, the trajectory stays FP64),
//   4. print dipole and energy.
//
// Runtime: a couple of minutes on a laptop core (reduced cutoff).

#include <cstdio>

#include "core/simulation.hpp"
#include "td/observables.hpp"

using namespace ptim;

int main() {
  core::SystemSpec spec;
  spec.nx = spec.ny = spec.nz = 1;    // 8 Si atoms
  spec.ecut = 2.5;                     // Hartree (paper: 10; demo: reduced)
  spec.temperature_k = 8000.0;         // the paper's finite-T setting
  spec.extra_states_per_atom = 0.5;    // N = 2*natom + natom/2 orbitals
  spec.scf.tol_rho = 1e-6;
  spec.scf.max_outer_ace = 4;

  core::Simulation sim(spec);
  std::printf("silicon cell: %zu atoms, %zu orbitals, %zu plane waves\n",
              sim.natoms(), sim.nbands(), sim.sphere().npw());

  const auto& gs = sim.prepare_ground_state();
  std::printf("ground state: E = %.6f Ha (fock %.6f), mu = %.4f Ha, "
              "%d SCF / %d ACE-outer iterations\n",
              gs.energy.total(), gs.energy.fock, gs.mu, gs.scf_iterations,
              gs.outer_iterations);
  std::printf("occupations:");
  for (const real_t f : gs.occ) std::printf(" %.3f", f);
  std::printf("\n\n");

  core::RunConfig cfg;
  cfg.steps = 5;
  cfg.dt = 2.0;  // ~48 attoseconds
  cfg.variant = td::PtImVariant::kAce;
  // Run the exchange pipeline in single precision: ~2x on the bandwidth
  // bound pair FFTs with error far below the PT-IM tolerance. Drop this
  // line (or pass Precision::kDouble) for the all-FP64 reference.
  cfg.precision = Precision::kSingle;

  td::LaserParams laser;
  laser.e0 = 0.01;
  laser.wavelength_nm = 380.0;
  sim.set_laser(laser);  // envelope placed against cfg's steps * dt horizon
  auto prop = sim.make_ptim(cfg);
  std::printf("exchange pipeline precision: %s\n\n",
              precision_name(sim.exchange_precision()));

  auto state = sim.initial_state();
  std::printf("%10s %14s %14s %8s %8s\n", "t (as)", "dipole_x (au)",
              "energy (Ha)", "scf", "Vx");
  std::printf("%10.1f %14.6e %14.8f %8s %8s\n", 0.0, sim.dipole_x(state),
              sim.energy(state).total(), "-", "-");
  for (int i = 0; i < cfg.steps; ++i) {
    const auto stats = prop->step(state);
    std::printf("%10.1f %14.6e %14.8f %8d %8d\n",
                state.time * units::au_time_as, sim.dipole_x(state),
                sim.energy(state).total(), stats.scf_iterations,
                stats.exchange_applications);
  }
  std::printf("\ndone — sigma trace %.8f (conserved electron count / 2)\n",
              td::sigma_trace(state.sigma));
  return 0;
}
