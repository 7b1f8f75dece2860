#include "la/cholesky.hpp"

#include <algorithm>

#include "la/simd.hpp"

namespace ptim::la {

namespace {

// The triangular solves `which` (la/simd.hpp) through the active la lanes,
// kLanes right-hand-side columns per tile. Each column is solved on its
// own, so the bits do not depend on the tiling or the thread count.
void solve(const MatC& L, MatC& B, int which) {
  const size_t n = L.rows();
  PTIM_CHECK(B.rows() == n);
  const size_t ncols = B.cols();
  const simd::Kernels& ker = simd::active();
  constexpr size_t w = simd::kLanes;
#pragma omp parallel for schedule(static)
  for (size_t j0 = 0; j0 < ncols; j0 += w)
    ker.solve_cols(n, as_doubles(L.data()), n, as_doubles(B.col(j0)), n,
                   std::min(ncols - j0, w), which,
                   simd::scratch(2 * n * w));
}

}  // namespace

MatC cholesky(const MatC& A) {
  PTIM_CHECK_MSG(A.rows() == A.cols(), "cholesky: matrix must be square");
  const size_t n = A.rows();
  MatC L(n, n);
  double pivot = 0.0;
  const size_t row = simd::active().cholesky(
      n, as_doubles(A.data()), n, as_doubles(L.data()), n, &pivot,
      simd::scratch(n * (n + 1) + 2 * n));
  PTIM_CHECK_MSG(row == n, "cholesky: matrix not positive definite at row "
                               << row << " (pivot " << pivot << ")");
  return L;
}

void solve_lower(const MatC& L, MatC& B) { solve(L, B, simd::kSolveLower); }

void solve_lower_herm(const MatC& L, MatC& B) {
  solve(L, B, simd::kSolveLowerHerm);
}

void cholesky_solve(const MatC& L, MatC& B) {
  solve(L, B, simd::kSolveLower | simd::kSolveLowerHerm);
}

void solve_upper_right(const MatC& L, MatC& B) {
  // X * L^H = B with L^H upper triangular: (L^H)_{kj} = conj(L_{jk}), k <= j.
  // Column j of X:
  //   X(:,j) = (B(:,j) - sum_{k<j} X(:,k) conj(L(j,k))) / conj(L(j,j)).
  const size_t n = L.rows();
  PTIM_CHECK(B.cols() == n);
  // The lanes divide by conj(L(j,j)) as by a real positive number.
  for (size_t j = 0; j < n; ++j)
    PTIM_CHECK_MSG(L(j, j).imag() == 0.0 && L(j, j).real() > 0.0,
                   "solve_upper_right: L(j,j) not real positive at j = "
                       << j);
  simd::active().solve_upper_right(B.rows(), n, as_doubles(L.data()), n,
                                   as_doubles(B.data()), B.rows(),
                                   simd::scratch(2 * n * simd::kLanes));
}

MatC hpd_inverse(const MatC& A) {
  const MatC L = cholesky(A);
  MatC inv = MatC::identity(A.rows());
  cholesky_solve(L, inv);
  return inv;
}

}  // namespace ptim::la
