#pragma once
// Matrix odds and ends shared across modules: Hermitization, commutators,
// traces — the sigma-dynamics bookkeeping of the PT-IM scheme.

#include "la/matrix.hpp"

namespace ptim::la {

// A <- (A + A^H)/2, enforcing exact Hermiticity ("conjugate symmetrization"
// of sigma at the end of each PT-IM step, Alg. 1 line 13).
void hermitize(MatC& A);

// [A, B] = A*B - B*A for square matrices.
MatC commutator(const MatC& A, const MatC& B);

cplx trace(const MatC& A);

// Max |A_ij - conj(A_ji)| — Hermiticity defect, used in invariant tests.
real_t hermiticity_defect(const MatC& A);

// Max-abs element.
real_t max_abs(const MatC& A);

}  // namespace ptim::la
