#include "la/blas.hpp"

#include <algorithm>
#include <cmath>

#include "la/simd.hpp"

namespace ptim::la {

namespace {

// Apply op to an element given the op code.
inline cplx op_elem(char trans, const MatC& A, size_t i, size_t j) {
  switch (trans) {
    case 'N': return A(i, j);
    case 'T': return A(j, i);
    default: return std::conj(A(j, i));  // 'C'
  }
}

inline size_t op_rows(char trans, const MatC& A) {
  return trans == 'N' ? A.rows() : A.cols();
}
inline size_t op_cols(char trans, const MatC& A) {
  return trans == 'N' ? A.cols() : A.rows();
}

// gemm_nn / gemm_nc: C = beta*C + A op(B) with alpha*op(B)(l, j) =
// coef(l, j), through the active la lanes (la/simd.hpp). Output columns
// are tiled so each A column read feeds several columns; per output
// element the terms still arrive in ascending l, so the bits are the
// untiled loop's. The coefficients are formed here in std::complex
// arithmetic, as that loop formed them.
template <typename Coef>
void gemm_columns(const MatC& A, MatC& C, cplx beta, Coef coef) {
  const size_t m = A.rows(), k = A.cols(), n = C.cols();
  const simd::Kernels& ker = simd::active();
  constexpr size_t jt = simd::kGemmCols;
  const size_t planes = 2 * simd::kGemmRows * (jt + 1);
#pragma omp parallel for schedule(static)
  for (size_t j0 = 0; j0 < n; j0 += jt) {
    const size_t nc = std::min(n - j0, jt);
    double* work = simd::scratch(planes + 2 * k * jt);
    double* cf = work + planes;
    for (size_t j = 0; j < nc; ++j)
      for (size_t l = 0; l < k; ++l) {
        const cplx ab = coef(l, j0 + j);
        cf[2 * (l + j * k)] = ab.real();
        cf[2 * (l + j * k) + 1] = ab.imag();
      }
    ker.gemm_cols(m, k, as_doubles(A.data()), m, cf, nc, as_doubles(&beta),
                  as_doubles(C.col(j0)), m, work);
  }
}

}  // namespace

void gemm_nn(const MatC& A, const MatC& B, MatC& C, cplx alpha, cplx beta) {
  const size_t m = A.rows(), k = A.cols(), n = B.cols();
  PTIM_CHECK(B.rows() == k && C.rows() == m && C.cols() == n);
  gemm_columns(A, C, beta,
               [&](size_t l, size_t j) { return alpha * B.col(j)[l]; });
}

void gemm_cn(const MatC& A, const MatC& B, MatC& C, cplx alpha, cplx beta) {
  const size_t k = A.rows(), m = A.cols(), n = B.cols();
  PTIM_CHECK(B.rows() == k && C.rows() == m && C.cols() == n);
  // Tiles of kLanes output rows (columns of A), each packed once and run
  // against every column of B.
  const simd::Kernels& ker = simd::active();
  constexpr size_t w = simd::kLanes;
#pragma omp parallel for schedule(static)
  for (size_t i0 = 0; i0 < m; i0 += w)
    ker.gemm_cn_tile(k, std::min(m - i0, w), as_doubles(A.col(i0)), k, n,
                     as_doubles(B.data()), k, as_doubles(&alpha),
                     as_doubles(&beta), as_doubles(C.data()) + 2 * i0, m,
                     simd::scratch(2 * k * w));
}

void gemm_nc(const MatC& A, const MatC& B, MatC& C, cplx alpha, cplx beta) {
  const size_t m = A.rows(), k = A.cols(), n = B.rows();
  PTIM_CHECK(B.cols() == k && C.rows() == m && C.cols() == n);
  gemm_columns(A, C, beta, [&](size_t l, size_t j) {
    return alpha * std::conj(B(j, l));
  });
}

void gemm(char transA, char transB, cplx alpha, const MatC& A, const MatC& B,
          cplx beta, MatC& C) {
  if (transA == 'N' && transB == 'N') return gemm_nn(A, B, C, alpha, beta);
  if (transA == 'C' && transB == 'N') return gemm_cn(A, B, C, alpha, beta);
  if (transA == 'N' && transB == 'C') return gemm_nc(A, B, C, alpha, beta);

  const size_t m = op_rows(transA, A), k = op_cols(transA, A),
               n = op_cols(transB, B);
  PTIM_CHECK(op_rows(transB, B) == k && C.rows() == m && C.cols() == n);
#pragma omp parallel for schedule(static)
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < m; ++i) {
      cplx acc = 0.0;
      for (size_t l = 0; l < k; ++l)
        acc += op_elem(transA, A, i, l) * op_elem(transB, B, l, j);
      C(i, j) = alpha * acc + (beta == cplx(0.0) ? cplx(0.0) : beta * C(i, j));
    }
}

// axpy and dotc spell the complex products out in real arithmetic:
// std::complex arithmetic carries the Annex-G NaN-recovery branch on every
// multiply, which blocks vectorization. The formulas are the ones
// std::complex evaluates, in the same order, so for finite operands the
// results are bitwise those of the std::complex loop. (Operands that are
// already NaN/Inf produce NaN instead of the Annex-G recovered value.)
void axpy(size_t n, cplx alpha, const cplx* x, cplx* y) {
  const real_t ar = alpha.real(), ai = alpha.imag();
  const real_t* xs = as_doubles(x);
  real_t* ys = as_doubles(y);
  for (size_t i = 0; i < n; ++i) {
    const real_t xr = xs[2 * i], xi = xs[2 * i + 1];
    ys[2 * i] += xr * ar - xi * ai;
    ys[2 * i + 1] += xr * ai + xi * ar;
  }
}

cplx dotc(size_t n, const cplx* x, const cplx* y) {
  const real_t* xs = as_doubles(x);
  const real_t* ys = as_doubles(y);
  real_t sr = 0.0, si = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const real_t xr = xs[2 * i], xi = xs[2 * i + 1];
    const real_t yr = ys[2 * i], yi = ys[2 * i + 1];
    sr += xr * yr + xi * yi;
    si += xr * yi - xi * yr;
  }
  return {sr, si};
}

real_t nrm2(size_t n, const cplx* x) {
  real_t acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::norm(x[i]);
  return std::sqrt(acc);
}

void scal(size_t n, cplx alpha, cplx* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

real_t frob_diff(const MatC& A, const MatC& B) {
  PTIM_CHECK(A.same_shape(B));
  real_t acc = 0.0;
  for (size_t idx = 0; idx < A.size(); ++idx)
    acc += std::norm(A.data()[idx] - B.data()[idx]);
  return std::sqrt(acc);
}

real_t frob_norm(const MatC& A) {
  real_t acc = 0.0;
  for (size_t idx = 0; idx < A.size(); ++idx) acc += std::norm(A.data()[idx]);
  return std::sqrt(acc);
}

}  // namespace ptim::la
