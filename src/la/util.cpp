#include "la/util.hpp"

#include <cmath>

#include "la/blas.hpp"

namespace ptim::la {

void hermitize(MatC& A) {
  PTIM_CHECK(A.rows() == A.cols());
  const size_t n = A.rows();
  for (size_t j = 0; j < n; ++j) {
    A(j, j) = std::real(A(j, j));
    for (size_t i = j + 1; i < n; ++i) {
      const cplx avg = 0.5 * (A(i, j) + std::conj(A(j, i)));
      A(i, j) = avg;
      A(j, i) = std::conj(avg);
    }
  }
}

MatC commutator(const MatC& A, const MatC& B) {
  PTIM_CHECK(A.rows() == A.cols() && A.same_shape(B));
  MatC AB(A.rows(), A.cols()), BA(A.rows(), A.cols());
  gemm_nn(A, B, AB);
  gemm_nn(B, A, BA);
  for (size_t i = 0; i < AB.size(); ++i) AB.data()[i] -= BA.data()[i];
  return AB;
}

cplx trace(const MatC& A) {
  PTIM_CHECK(A.rows() == A.cols());
  cplx t = 0.0;
  for (size_t i = 0; i < A.rows(); ++i) t += A(i, i);
  return t;
}

real_t hermiticity_defect(const MatC& A) {
  PTIM_CHECK(A.rows() == A.cols());
  real_t defect = 0.0;
  for (size_t j = 0; j < A.cols(); ++j)
    for (size_t i = 0; i < A.rows(); ++i)
      defect = std::max(defect, std::abs(A(i, j) - std::conj(A(j, i))));
  return defect;
}

real_t max_abs(const MatC& A) {
  real_t m = 0.0;
  for (size_t i = 0; i < A.size(); ++i)
    m = std::max(m, std::abs(A.data()[i]));
  return m;
}

}  // namespace ptim::la
