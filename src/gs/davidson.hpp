#pragma once
// Blocked Davidson eigensolver for the lowest nband states of the
// (Hermitian) Kohn–Sham Hamiltonian, with a Teter kinetic preconditioner.
// This plays the role of PWDFT's iterative eigensolver in the ground-state
// preparation of the rt-TDDFT initial state.
//
// Its dense algebra scales with nband, not with a growing subspace: the
// basis is capped at 3 * nband columns (then restarts from the nband Ritz
// pairs), the projected matrix V^H HV is kept across iterations and grows
// by one block column per expansion, the correction block is
// orthogonalized against V by block Gram–Schmidt through the GEMMs, and
// each Rayleigh–Ritz step computes only the nband wanted eigenvectors
// (la::eig_herm(A, nband)).

#include <functional>
#include <vector>

#include "la/matrix.hpp"

namespace ptim::gs {

struct DavidsonOptions {
  int max_iter = 60;           // Rayleigh–Ritz steps
  real_t tol = 1e-8;          // max residual 2-norm per band
  size_t max_subspace = 0;     // 0 = 3 * nband
  bool verbose = false;
};

struct DavidsonResult {
  la::MatC x;                  // npw x nband eigenvector approximations
  std::vector<real_t> eps;     // Ritz values
  std::vector<real_t> resnorm; // final residual norms
  int iterations = 0;          // Rayleigh–Ritz steps taken
  bool converged = false;      // max residual below tol
};

// apply_h: hphi = H * phi (batched over columns).
// precond_diag: approximate diagonal of H (kinetic factors) for the Teter
// preconditioner.
DavidsonResult davidson(
    const std::function<void(const la::MatC&, la::MatC&)>& apply_h,
    const la::MatC& x0, const std::vector<real_t>& precond_diag,
    DavidsonOptions opt = {});

}  // namespace ptim::gs
