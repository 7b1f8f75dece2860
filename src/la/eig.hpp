#pragma once
// Hermitian eigensolvers.
//
// Two independent implementations are provided:
//  * eig_herm       — Householder tridiagonalization + implicit-shift QL
//                     (the production path, O(n^3) with a small constant),
//  * eig_herm_jacobi— cyclic complex Jacobi (slower, extremely robust).
// The test suite cross-validates one against the other on random input —
// a deliberate redundancy since no reference LAPACK exists on this machine.
//
// Both return eigenvalues in ascending order with V's columns the matching
// orthonormal eigenvectors: A = V diag(w) V^H.

#include <cstddef>
#include <vector>

#include "la/matrix.hpp"

namespace ptim::la {

struct EigResult {
  std::vector<real_t> w;  // ascending eigenvalues
  MatC V;                 // eigenvector columns
};

// All n eigenvalues, and the eigenvectors of the nvec lowest ones (nvec is
// clamped to n): V is n x nvec. The tridiagonal is real after a phase
// scaling, so the QL sweep accumulates its rotations in a real n x n matrix
// Z (half the work of rotating complex columns, and the column updates
// vectorize); one complex x real product Q Z(:, wanted) then forms only
// the wanted columns. The QL's d/e arithmetic never reads Z, so w is the
// same for every nvec, bit for bit — a Rayleigh–Ritz step that needs nb
// of n Ritz pairs asks for exactly those.
EigResult eig_herm(const MatC& A, size_t nvec = static_cast<size_t>(-1));
EigResult eig_herm_jacobi(const MatC& A, real_t tol = 1e-13,
                          int max_sweeps = 60);

}  // namespace ptim::la
