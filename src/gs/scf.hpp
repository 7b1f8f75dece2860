#pragma once
// Ground-state SCF driver producing the rt-TDDFT initial state:
//   1. semilocal (LDA) SCF with Fermi–Dirac smearing and Anderson density
//      mixing,
//   2. optional hybrid stage: outer ACE loop (build W = alpha*Vx*Phi,
//      compress, inner density SCF with the fixed ACE operator) until the
//      Fock energy stabilizes — PWDFT's hybrid ground-state structure.

#include <vector>

#include "ham/hamiltonian.hpp"
#include "la/matrix.hpp"

namespace ptim::gs {

struct ScfOptions {
  size_t nbands = 0;          // total orbitals N (occupied + extra)
  real_t nelec = 0.0;         // electron count (2 per filled orbital)
  real_t temperature_k = 0.0; // Kelvin; 0 = integer occupations
  int max_scf = 60;
  real_t tol_rho = 1e-7;      // |drho| L2 per electron
  real_t mix_beta = 0.5;
  size_t mix_history = 10;
  int max_outer_ace = 10;     // hybrid outer loop
  real_t tol_fock = 1e-7;     // Hartree, outer convergence (paper: 1e-6)
  int davidson_iter = 40;
  real_t davidson_tol = 1e-7;
  unsigned seed = 12345;
  bool verbose = false;
};

struct ScfResult {
  la::MatC phi;                // npw x nbands, orthonormal
  std::vector<real_t> eps;     // band energies
  std::vector<real_t> occ;     // Fermi-Dirac occupations in [0,1]
  std::vector<real_t> rho;     // converged density (dense grid)
  real_t mu = 0.0;             // chemical potential
  ham::EnergyTerms energy;
  int scf_iterations = 0;      // density-loop iterations run, all stages
  int outer_iterations = 0;
  // The final density loop met tol_rho and its last eigensolve met
  // davidson_tol.
  bool converged = false;
  // The hybrid outer loop ended on its Fock-energy test (tol_fock), not at
  // max_outer_ace; true when there is no hybrid stage.
  bool outer_converged = true;
};

// H is reconfigured in place (density, exchange sources, ACE). On return it
// holds the converged state and, in hybrid mode, an ACE operator built from
// the final orbitals.
ScfResult ground_state(ham::Hamiltonian& h, ScfOptions opt);

}  // namespace ptim::gs
