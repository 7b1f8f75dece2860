#pragma once
// The la lanes (la/simd.hpp), written once as plain loops over independent
// outputs held in split planes.
//
// Included ONLY by the ISA units (simd_scalar.cpp, simd_avx2.cpp), each
// compiled with its own -m<isa> flag and -ffp-contract=off. The rules of
// the FFT codelets (fft/codelets.hpp) hold here too:
//  - Everything has internal linkage, uses raw double arrays (no
//    std::complex, no library templates) and throws nothing, so an ISA
//    object defines no symbol the linker could merge across -m flags
//    (scripts/check_isa_objects.py checks the objects).
//  - Each output receives the IEEE operations of the std::complex loop it
//    replaces, in the same order; lanes only run independent outputs side
//    by side. Complex products are spelled out as std::complex evaluates
//    them for finite operands, re = ar*br - ai*bi, im = ar*bi + ai*br; a
//    product with a conjugate, s -= x*conj(y), is the exact rewrite
//    s.re -= xr*yr + xi*yi, s.im -= xi*yr - xr*yi.
// The lane loops carry `#pragma omp simd`, whose alias promise lets the
// compiler vectorize them without run-time overlap checks.

#include <cstddef>

#include "la/simd.hpp"

namespace ptim::la::simd::detail {
namespace {

constexpr size_t W = kLanes;

inline size_t min_size(size_t a, size_t b) noexcept { return a < b ? a : b; }

// gemm_nn / gemm_nc (Kernels::gemm_cols). Rows are lanes: a chunk of
// kGemmRows rows of the nc output columns stays in split planes while the
// k terms are added, each column of A split once per chunk and shared by
// the nc columns.
void gemm_cols(size_t m, size_t k, const double* a, size_t lda,
               const double* coef, size_t nc, const double* beta, double* c,
               size_t ldc, double* scratch) noexcept {
  constexpr size_t R = kGemmRows;
  const double br = beta[0], bi = beta[1];
  const bool zero = br == 0.0 && bi == 0.0;
  const bool one = br == 1.0 && bi == 0.0;
  double* __restrict xr = scratch + 2 * kGemmCols * R;
  double* __restrict xi = xr + R;
  for (size_t i0 = 0; i0 < m; i0 += R) {
    const size_t mr = min_size(R, m - i0);
    for (size_t j = 0; j < nc; ++j) {
      double* __restrict cr = scratch + 2 * j * R;
      double* __restrict ci = cr + R;
      const double* __restrict cj = c + 2 * (j * ldc + i0);
      if (zero) {
        for (size_t i = 0; i < mr; ++i) cr[i] = ci[i] = 0.0;
      } else if (one) {
#pragma omp simd
        for (size_t i = 0; i < mr; ++i) {
          cr[i] = cj[2 * i];
          ci[i] = cj[2 * i + 1];
        }
      } else {
#pragma omp simd
        for (size_t i = 0; i < mr; ++i) {
          const double x = cj[2 * i], y = cj[2 * i + 1];
          cr[i] = x * br - y * bi;
          ci[i] = x * bi + y * br;
        }
      }
    }
    for (size_t l = 0; l < k; ++l) {
      const double* __restrict al = a + 2 * (l * lda + i0);
#pragma omp simd
      for (size_t i = 0; i < mr; ++i) {
        xr[i] = al[2 * i];
        xi[i] = al[2 * i + 1];
      }
      for (size_t j = 0; j < nc; ++j) {
        const double sr = coef[2 * (l + j * k)];
        const double si = coef[2 * (l + j * k) + 1];
        if (sr == 0.0 && si == 0.0) continue;
        double* __restrict cr = scratch + 2 * j * R;
        double* __restrict ci = cr + R;
#pragma omp simd
        for (size_t i = 0; i < mr; ++i) {
          cr[i] += xr[i] * sr - xi[i] * si;
          ci[i] += xr[i] * si + xi[i] * sr;
        }
      }
    }
    for (size_t j = 0; j < nc; ++j) {
      const double* __restrict cr = scratch + 2 * j * R;
      const double* __restrict ci = cr + R;
      double* __restrict cj = c + 2 * (j * ldc + i0);
#pragma omp simd
      for (size_t i = 0; i < mr; ++i) {
        cj[2 * i] = cr[i];
        cj[2 * i + 1] = ci[i];
      }
    }
  }
}

// gemm_cn (Kernels::gemm_cn_tile). Output rows are lanes: the tile's
// columns of A are packed into planes once, then every output column sums
// its k terms in ascending order per lane.
void gemm_cn_tile(size_t k, size_t nr, const double* a, size_t lda,
                  size_t n, const double* b, size_t ldb,
                  const double* alpha, const double* beta, double* c,
                  size_t ldc, double* scratch) noexcept {
  double* __restrict pr = scratch;
  double* __restrict pi = scratch + k * W;
  for (size_t w = 0; w < nr; ++w) {
    const double* __restrict aw = a + 2 * w * lda;
    for (size_t l = 0; l < k; ++l) {
      pr[l * W + w] = aw[2 * l];
      pi[l * W + w] = aw[2 * l + 1];
    }
  }
  for (size_t w = nr; w < W; ++w)
    for (size_t l = 0; l < k; ++l) pr[l * W + w] = pi[l * W + w] = 0.0;
  const double ar = alpha[0], ai = alpha[1], br = beta[0], bi = beta[1];
  const bool zero = br == 0.0 && bi == 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double* __restrict bj = b + 2 * j * ldb;
    double sr[W] = {}, si[W] = {};
    for (size_t l = 0; l < k; ++l) {
      const double yr = bj[2 * l], yi = bj[2 * l + 1];
#pragma omp simd
      for (size_t w = 0; w < W; ++w) {
        sr[w] += pr[l * W + w] * yr + pi[l * W + w] * yi;
        si[w] += pr[l * W + w] * yi - pi[l * W + w] * yr;
      }
    }
    double* __restrict cj = c + 2 * j * ldc;
    for (size_t w = 0; w < nr; ++w) {
      double tr = 0.0, ti = 0.0;
      if (!zero) {
        tr = br * cj[2 * w] - bi * cj[2 * w + 1];
        ti = br * cj[2 * w + 1] + bi * cj[2 * w];
      }
      cj[2 * w] = (ar * sr[w] - ai * si[w]) + tr;
      cj[2 * w + 1] = (ar * si[w] + ai * sr[w]) + ti;
    }
  }
}

// Kernels::cholesky, column by column. Rows are lanes: rows j..n-1 of
// column j accumulate in split planes (row j, whose update is |L(j,k)|^2,
// is the pivot), and the finished columns are kept as planes too, packed
// lower-triangle: row i of column k at (k*n - k*(k-1)/2) + (i - k).
size_t cholesky(size_t n, const double* a, size_t lda, double* l, size_t ldl,
                double* pivot, double* scratch) noexcept {
  const size_t tri = n * (n + 1) / 2;
  double* __restrict lr = scratch;
  double* __restrict li = scratch + tri;
  double* __restrict sr = scratch + 2 * tri;
  double* __restrict si = sr + n;
  for (size_t j = 0; j < n; ++j) {
    const double* __restrict aj = a + 2 * j * lda;
    for (size_t i = j; i < n; ++i) {
      sr[i] = aj[2 * i];
      si[i] = aj[2 * i + 1];
    }
    for (size_t k = 0; k < j; ++k) {
      // Column k's planes, indexed by row.
      const size_t base = k * n - k * (k - 1) / 2 - k;
      const double* __restrict xr = lr + base;
      const double* __restrict xi = li + base;
      const double c = xr[j], d = xi[j];
#pragma omp simd
      for (size_t i = j; i < n; ++i) {
        sr[i] -= xr[i] * c + xi[i] * d;
        si[i] -= xi[i] * c - xr[i] * d;
      }
    }
    const double sum = sr[j];
    if (!(sum > 0.0)) {
      *pivot = sum;
      return j;
    }
    const double ljj = __builtin_sqrt(sum);
    const size_t base = j * n - j * (j - 1) / 2 - j;
    double* __restrict lj = l + 2 * j * ldl;
    lj[2 * j] = lr[base + j] = ljj;
    lj[2 * j + 1] = li[base + j] = 0.0;
    for (size_t i = j + 1; i < n; ++i) {
      const double vr = sr[i] / ljj, vi = si[i] / ljj;
      lj[2 * i] = lr[base + i] = vr;
      lj[2 * i + 1] = li[base + i] = vi;
    }
  }
  return n;
}

// Kernels::solve_cols. Right-hand-side columns are lanes: the tile is
// transposed into planes x[i*W + w], solved, and transposed back.
void solve_cols(size_t n, const double* l, size_t ldl, double* b, size_t ldb,
                size_t nc, int which, double* scratch) noexcept {
  double* __restrict xr = scratch;
  double* __restrict xi = scratch + n * W;
  for (size_t w = 0; w < nc; ++w) {
    const double* __restrict bw = b + 2 * w * ldb;
    for (size_t i = 0; i < n; ++i) {
      xr[i * W + w] = bw[2 * i];
      xi[i * W + w] = bw[2 * i + 1];
    }
  }
  for (size_t w = nc; w < W; ++w)
    for (size_t i = 0; i < n; ++i) xr[i * W + w] = xi[i * W + w] = 0.0;

  if (which & kSolveLower) {
    // Column sweep: x[k] /= L(k,k), then x[i] += L(i,k) * (-x[k]) for
    // i > k, the axpy form of the forward solve.
    for (size_t k = 0; k < n; ++k) {
      const double* __restrict lk = l + 2 * k * ldl;
      const double lkk = lk[2 * k];
      double* __restrict kr = xr + k * W;
      double* __restrict ki = xi + k * W;
      double ar[W], ai[W];
#pragma omp simd
      for (size_t w = 0; w < W; ++w) {
        kr[w] /= lkk;
        ki[w] /= lkk;
        ar[w] = -kr[w];
        ai[w] = -ki[w];
      }
      for (size_t i = k + 1; i < n; ++i) {
        const double lre = lk[2 * i], lim = lk[2 * i + 1];
        double* __restrict yr = xr + i * W;
        double* __restrict yi = xi + i * W;
#pragma omp simd
        for (size_t w = 0; w < W; ++w) {
          yr[w] += lre * ar[w] - lim * ai[w];
          yi[w] += lre * ai[w] + lim * ar[w];
        }
      }
    }
  }
  if (which & kSolveLowerHerm) {
    // Row i of L^H is conj of column i of L: x[i] = (x[i] -
    // sum_{k>i} conj(L(k,i)) x[k]) / L(i,i).
    for (size_t i = n; i-- > 0;) {
      const double* __restrict lc = l + 2 * i * ldl;
      const double lii = lc[2 * i];
      double sr[W], si[W];
      for (size_t w = 0; w < W; ++w) {
        sr[w] = xr[i * W + w];
        si[w] = xi[i * W + w];
      }
      for (size_t k = i + 1; k < n; ++k) {
        const double lre = lc[2 * k], lim = lc[2 * k + 1];
        const double* __restrict yr = xr + k * W;
        const double* __restrict yi = xi + k * W;
#pragma omp simd
        for (size_t w = 0; w < W; ++w) {
          sr[w] -= lre * yr[w] + lim * yi[w];
          si[w] -= lre * yi[w] - lim * yr[w];
        }
      }
      for (size_t w = 0; w < W; ++w) {
        xr[i * W + w] = sr[w] / lii;
        xi[i * W + w] = si[w] / lii;
      }
    }
  }

  for (size_t w = 0; w < nc; ++w) {
    double* __restrict bw = b + 2 * w * ldb;
    for (size_t i = 0; i < n; ++i) {
      bw[2 * i] = xr[i * W + w];
      bw[2 * i + 1] = xi[i * W + w];
    }
  }
}

// Kernels::solve_upper_right. Rows of B are lanes: a tile of W rows of
// every column is held in planes x[j*W + w] while the columns are solved
// left to right.
void solve_upper_right(size_t m, size_t n, const double* l, size_t ldl,
                       double* b, size_t ldb, double* scratch) noexcept {
  double* __restrict xr = scratch;
  double* __restrict xi = scratch + n * W;
  for (size_t i0 = 0; i0 < m; i0 += W) {
    const size_t nr = min_size(W, m - i0);
    for (size_t j = 0; j < n; ++j) {
      const double* __restrict bj = b + 2 * (j * ldb + i0);
      for (size_t w = 0; w < W; ++w) {
        xr[j * W + w] = w < nr ? bj[2 * w] : 0.0;
        xi[j * W + w] = w < nr ? bj[2 * w + 1] : 0.0;
      }
    }
    for (size_t j = 0; j < n; ++j) {
      double* __restrict yr = xr + j * W;
      double* __restrict yi = xi + j * W;
      for (size_t k = 0; k < j; ++k) {
        // x_j -= x_k * conj(L(j,k)); exact zeros are skipped.
        const double lre = l[2 * (k * ldl + j)];
        const double lim = -l[2 * (k * ldl + j) + 1];
        if (lre == 0.0 && lim == 0.0) continue;
        const double* __restrict zr = xr + k * W;
        const double* __restrict zi = xi + k * W;
#pragma omp simd
        for (size_t w = 0; w < W; ++w) {
          yr[w] -= zr[w] * lre - zi[w] * lim;
          yi[w] -= zr[w] * lim + zi[w] * lre;
        }
      }
      // x_j /= conj(L(j,j)) = (c, d) with c > 0 and d a signed zero: the
      // quotient libgcc's complex division (__divdc3) returns for such a
      // divisor, ((x + d*(y/c)) / c, (y - d*(x/c)) / c). Where x (or y) is
      // nonzero its component is x/c; where it is a zero, the numerator is
      // a signed zero that the division by c > 0 leaves as it is.
      const double cr = l[2 * (j * ldl + j)];
      const double d = -l[2 * (j * ldl + j) + 1];
#pragma omp simd
      for (size_t w = 0; w < W; ++w) {
        const double x = yr[w], y = yi[w];
        const double qx = x / cr, qy = y / cr;
        yr[w] = x != 0.0 ? qx : x + d * qy;
        yi[w] = y != 0.0 ? qy : y - d * qx;
      }
    }
    for (size_t j = 0; j < n; ++j) {
      double* __restrict bj = b + 2 * (j * ldb + i0);
      for (size_t w = 0; w < nr; ++w) {
        bj[2 * w] = xr[j * W + w];
        bj[2 * w + 1] = xi[j * W + w];
      }
    }
  }
}

// Kernels::qr_load: one candidate tile and its columns' norm^2, each
// summed over the rows in order.
void qr_load(size_t m, size_t nc, const double* a, size_t lda, double* tile,
             double* norms) noexcept {
  double* __restrict re = tile;
  double* __restrict im = tile + m * W;
  for (size_t w = 0; w < nc; ++w) {
    const double* __restrict aw = a + 2 * w * lda;
    for (size_t i = 0; i < m; ++i) {
      re[i * W + w] = aw[2 * i];
      im[i * W + w] = aw[2 * i + 1];
    }
  }
  for (size_t w = nc; w < W; ++w)
    for (size_t i = 0; i < m; ++i) re[i * W + w] = im[i * W + w] = 0.0;
  double s[W] = {};
  for (size_t i = 0; i < m; ++i) {
#pragma omp simd
    for (size_t w = 0; w < W; ++w)
      s[w] += re[i * W + w] * re[i * W + w] + im[i * W + w] * im[i * W + w];
  }
  for (size_t w = 0; w < W; ++w) norms[w] = s[w];
}

// Kernels::qr_update. Columns are lanes: per column, dot = sum_i
// conj(v_i) c_i in row order, then c_i += v_i * -(beta*dot), then the norm
// downdate by row k.
void qr_update(size_t m, size_t k, const double* v, double beta,
               double* tile, double* norms) noexcept {
  double* __restrict re = tile;
  double* __restrict im = tile + m * W;
  double sr[W] = {}, si[W] = {};
  for (size_t i = k; i < m; ++i) {
    const double vr = v[2 * i], vi = v[2 * i + 1];
#pragma omp simd
    for (size_t w = 0; w < W; ++w) {
      sr[w] += vr * re[i * W + w] + vi * im[i * W + w];
      si[w] += vr * im[i * W + w] - vi * re[i * W + w];
    }
  }
  double ar[W], ai[W];
  for (size_t w = 0; w < W; ++w) {
    ar[w] = -(beta * sr[w]);
    ai[w] = -(beta * si[w]);
  }
  for (size_t i = k; i < m; ++i) {
    const double vr = v[2 * i], vi = v[2 * i + 1];
#pragma omp simd
    for (size_t w = 0; w < W; ++w) {
      re[i * W + w] += vr * ar[w] - vi * ai[w];
      im[i * W + w] += vr * ai[w] + vi * ar[w];
    }
  }
  for (size_t w = 0; w < W; ++w) {
    const double x = re[k * W + w], y = im[k * W + w];
    const double nj = norms[w] - (x * x + y * y);
    norms[w] = nj > 0.0 ? nj : 0.0;
  }
}

// This TU's own table (internal linkage, one copy per ISA unit).
const Kernels kKernels = {&gemm_cols,  &gemm_cn_tile,      &cholesky,
                          &solve_cols, &solve_upper_right, &qr_load,
                          &qr_update};

}  // namespace
}  // namespace ptim::la::simd::detail
