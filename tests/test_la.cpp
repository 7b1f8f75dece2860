// Linear algebra: gemm variants vs a reference triple loop, the two
// independent Hermitian eigensolvers cross-validated, partial eigenvector
// solves (including splits inside a degenerate cluster), Cholesky solves,
// least squares, the Anderson mixer, and the la lanes' conformance: every
// ISA bitwise equal to the scalar table and to the loops they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/isa.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/matrix.hpp"
#include "la/mixer.hpp"
#include "la/qr.hpp"
#include "la/util.hpp"
#include "pw/wavefunction.hpp"
#include "test_helpers.hpp"

using namespace ptim;
using ptim::test::random_hermitian;
using ptim::test::random_matrix;

namespace {

la::MatC gemm_reference(char ta, char tb, const la::MatC& a,
                        const la::MatC& b) {
  auto elem = [](char t, const la::MatC& m, size_t i, size_t j) {
    if (t == 'N') return m(i, j);
    if (t == 'T') return m(j, i);
    return std::conj(m(j, i));
  };
  const size_t mr = (ta == 'N') ? a.rows() : a.cols();
  const size_t kk = (ta == 'N') ? a.cols() : a.rows();
  const size_t nc = (tb == 'N') ? b.cols() : b.rows();
  la::MatC c(mr, nc);
  for (size_t j = 0; j < nc; ++j)
    for (size_t i = 0; i < mr; ++i) {
      cplx acc = 0.0;
      for (size_t l = 0; l < kk; ++l)
        acc += elem(ta, a, i, l) * elem(tb, b, l, j);
      c(i, j) = acc;
    }
  return c;
}

}  // namespace

TEST(Matrix, BasicsAndIdentity) {
  la::MatC m = la::MatC::identity(4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m(2, 2), cplx(1.0));
  EXPECT_EQ(m(2, 1), cplx(0.0));
  m(1, 3) = {2.0, -1.0};
  const la::MatC mh = m.conj_transpose();
  EXPECT_EQ(mh(3, 1), cplx(2.0, 1.0));
}

struct GemmCase {
  char ta, tb;
};
class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [ta, tb] = GetParam();
  const size_t m = 7, k = 5, n = 6;
  const la::MatC a = (ta == 'N') ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  const la::MatC b = (tb == 'N') ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  la::MatC c(m, n);
  la::gemm(ta, tb, 1.0, a, b, 0.0, c);
  const la::MatC ref = gemm_reference(ta, tb, a, b);
  EXPECT_LT(la::frob_diff(c, ref), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllOps, GemmParam,
                         ::testing::Values(GemmCase{'N', 'N'},
                                           GemmCase{'C', 'N'},
                                           GemmCase{'N', 'C'},
                                           GemmCase{'T', 'N'},
                                           GemmCase{'C', 'C'},
                                           GemmCase{'T', 'T'}));

TEST(Gemm, AlphaBetaAccumulate) {
  const la::MatC a = random_matrix(4, 3, 3);
  const la::MatC b = random_matrix(3, 4, 4);
  la::MatC c = random_matrix(4, 4, 5);
  const la::MatC c0 = c;
  la::gemm_nn(a, b, c, cplx(2.0), cplx(0.5));
  const la::MatC ab = gemm_reference('N', 'N', a, b);
  for (size_t j = 0; j < 4; ++j)
    for (size_t i = 0; i < 4; ++i)
      EXPECT_NEAR(std::abs(c(i, j) - (2.0 * ab(i, j) + 0.5 * c0(i, j))), 0.0,
                  1e-12);
}

namespace {

// Hermitian matrix with the given spectrum: Q diag(lam) Q^H with Q a
// Löwdin-orthonormalized random matrix.
la::MatC hermitian_with_spectrum(const std::vector<real_t>& lam,
                                 unsigned seed) {
  const size_t n = lam.size();
  la::MatC q = random_matrix(n, n, seed);
  pw::orthonormalize_lowdin(q);
  la::MatC ql = q;
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < n; ++i) ql(i, j) *= lam[j];
  la::MatC a(n, n);
  la::gemm_nc(ql, q, a);
  la::hermitize(a);
  return a;
}

// The nvec wanted columns of eig_herm(a, nvec): eigenvalues bitwise equal
// to the all-vector solve, and the existing residual and orthonormality
// bounds on the columns it returns.
void check_partial(const la::MatC& a, size_t nvec) {
  const size_t n = a.rows();
  const auto full = la::eig_herm(a);
  const auto [w, v] = la::eig_herm(a, nvec);
  ASSERT_EQ(w.size(), n);
  ASSERT_EQ(v.rows(), n);
  ASSERT_EQ(v.cols(), nvec);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(w[i], full.w[i]) << "i=" << i;

  // Ascending eigenvalues.
  for (size_t i = 1; i < n; ++i) EXPECT_LE(w[i - 1], w[i] + 1e-12);

  // V^H V = I.
  la::MatC vhv(nvec, nvec);
  la::gemm_cn(v, v, vhv);
  EXPECT_LT(la::frob_diff(vhv, la::MatC::identity(nvec)), 1e-10 * n);

  // A V = V diag(w).
  la::MatC av(n, nvec);
  la::gemm_nn(a, v, av);
  for (size_t j = 0; j < nvec; ++j)
    for (size_t i = 0; i < n; ++i) av(i, j) -= w[j] * v(i, j);
  EXPECT_LT(la::frob_norm(av), 1e-10 * n);
}

}  // namespace

// (n, nvec): the matrix size and the number of wanted eigenvectors.
class EigSize
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(EigSize, ReconstructionAndOrthonormality) {
  const auto [n, nvec] = GetParam();
  check_partial(random_hermitian(n, 100 + static_cast<unsigned>(n)), nvec);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EigSize,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 2),
                      std::make_tuple(2, 1), std::make_tuple(3, 3),
                      std::make_tuple(5, 5), std::make_tuple(5, 2),
                      std::make_tuple(8, 8), std::make_tuple(16, 16),
                      std::make_tuple(16, 5), std::make_tuple(33, 33),
                      std::make_tuple(33, 11), std::make_tuple(64, 64),
                      std::make_tuple(64, 20), std::make_tuple(64, 0)));

TEST(Eig, TridiagAgreesWithJacobi) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const size_t n = 20;
    const la::MatC a = random_hermitian(n, seed);
    const auto r1 = la::eig_herm(a);
    const auto r2 = la::eig_herm_jacobi(a);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(r1.w[i], r2.w[i], 1e-9);
  }
}

TEST(Eig, DegenerateSpectrum) {
  // diag(1,1,1,2) in a rotated basis.
  const la::MatC a = hermitian_with_spectrum({1.0, 1.0, 1.0, 2.0}, 9);
  const auto r = la::eig_herm(a);
  EXPECT_NEAR(r.w[0], 1.0, 1e-10);
  EXPECT_NEAR(r.w[1], 1.0, 1e-10);
  EXPECT_NEAR(r.w[2], 1.0, 1e-10);
  EXPECT_NEAR(r.w[3], 2.0, 1e-10);

  // Every wanted count, including the ones that cut a 3-fold or a 4-fold
  // cluster: any orthonormal basis of a cluster is a set of eigenvectors,
  // so the split columns must still meet the residual bound.
  const la::MatC b = hermitian_with_spectrum(
      {-1.0, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0}, 10);
  for (const la::MatC* m : {&a, &b})
    for (size_t nvec = 0; nvec <= m->rows(); ++nvec) {
      SCOPED_TRACE("n=" + std::to_string(m->rows()) +
                   " nvec=" + std::to_string(nvec));
      check_partial(*m, nvec);
    }
}

TEST(Cholesky, FactorAndSolves) {
  const size_t n = 12;
  la::MatC a = random_hermitian(n, 31);
  for (size_t i = 0; i < n; ++i) a(i, i) += 6.0;

  const la::MatC l = la::cholesky(a);
  la::MatC llh(n, n);
  la::gemm_nc(l, l, llh);
  EXPECT_LT(la::frob_diff(llh, a), 1e-10);

  // cholesky_solve: A X = B.
  const la::MatC b = random_matrix(n, 3, 32);
  la::MatC x = b;
  la::cholesky_solve(l, x);
  la::MatC ax(n, 3);
  la::gemm_nn(a, x, ax);
  EXPECT_LT(la::frob_diff(ax, b), 1e-9);

  // solve_upper_right: X L^H = B.
  la::MatC y = b.conj_transpose();  // 3 x n
  la::MatC rhs = y;
  la::solve_upper_right(l, y);
  la::MatC ylh(3, n);
  la::gemm('N', 'C', 1.0, y, l, 0.0, ylh);
  EXPECT_LT(la::frob_diff(ylh, rhs), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  la::MatC a = la::MatC::identity(3);
  a(2, 2) = -1.0;
  EXPECT_THROW(la::cholesky(a), Error);
}

TEST(Util, HermitizeCommutatorTrace) {
  la::MatC a = random_matrix(6, 6, 51);
  la::hermitize(a);
  EXPECT_LT(la::hermiticity_defect(a), 1e-14);

  const la::MatC h1 = random_hermitian(6, 52);
  const la::MatC h2 = random_hermitian(6, 53);
  const la::MatC c = la::commutator(h1, h2);
  // tr[A,B] = 0; [A,B] is anti-Hermitian for Hermitian A, B.
  EXPECT_NEAR(std::abs(la::trace(c)), 0.0, 1e-12);
  la::MatC ch = c.conj_transpose();
  for (size_t i = 0; i < c.size(); ++i) ch.data()[i] += c.data()[i];
  EXPECT_LT(la::frob_norm(ch), 1e-12);
}

TEST(Mixer, AcceleratesLinearFixedPoint) {
  // x = T(x) = M x + c with spectral radius < 1: Anderson should converge
  // much faster than plain iteration.
  const size_t n = 8;
  la::MatC m = random_hermitian(n, 61);
  real_t scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    real_t row = 0.0;
    for (size_t j = 0; j < n; ++j) row += std::abs(m(i, j));
    scale = std::max(scale, row);
  }
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] *= 0.9 / scale;
  std::vector<cplx> c(n);
  ptim::Rng rng(62);
  for (auto& v : c) v = rng.uniform_cplx();

  auto apply_t = [&](const std::vector<cplx>& x) {
    std::vector<cplx> y = c;
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) y[i] += m(i, j) * x[j];
    return y;
  };

  la::AndersonMixer mixer(n, 8, 0.7);
  std::vector<cplx> x(n, cplx(0.0));
  real_t res = 1.0;
  int it = 0;
  for (; it < 50 && res > 1e-12; ++it) {
    const auto tx = apply_t(x);
    std::vector<cplx> f(n);
    res = 0.0;
    for (size_t i = 0; i < n; ++i) {
      f[i] = tx[i] - x[i];
      res += std::norm(f[i]);
    }
    res = std::sqrt(res);
    x = mixer.mix(x, f);
  }
  EXPECT_LT(res, 1e-10);
  EXPECT_LT(it, 25);  // plain damped iteration would need far more
}

TEST(Mixer, RealWrapperMatches) {
  la::AndersonMixerReal mixer(3, 4, 0.5);
  std::vector<real_t> x{1.0, 2.0, 3.0}, f{0.1, -0.2, 0.3};
  const auto next = mixer.mix(x, f);
  ASSERT_EQ(next.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(next[i], x[i] + 0.5 * f[i], 1e-14);
}

// ------------------------------------------------ la lane conformance --
// Every kernel of the la lanes (la/simd.hpp) under every available ISA,
// forced, must equal by memcmp both the scalar table's output and the
// loop the lanes replaced, kept below as a reference copy. The shapes are
// the solver's: the PT-IM fixed point's 20 x 20 Cholesky, ring_wire's
// 147 x 5 rotations, Davidson's 147 x 60 block, the ISDF fit's 160 x 343
// solve and 343 x 160 samples, the ISDF point selection's 169 x 640 QR;
// plus 1 x 1, widths that are not a multiple of the lane width, and zero
// columns. CI runs the suite (label laconf) once with PTIM_SIMD=scalar
// and once at the best available ISA.

namespace {

using isa::Isa;

// The loops the lanes replaced, verbatim but for their names.
namespace reference {

inline void cx_axpy(size_t n, cplx alpha, const cplx* x, cplx* y) {
  const real_t ar = alpha.real(), ai = alpha.imag();
  const real_t* xs = reinterpret_cast<const real_t*>(x);
  real_t* ys = reinterpret_cast<real_t*>(y);
  for (size_t i = 0; i < n; ++i) {
    const real_t xr = xs[2 * i], xi = xs[2 * i + 1];
    ys[2 * i] += xr * ar - xi * ai;
    ys[2 * i + 1] += xr * ai + xi * ar;
  }
}

inline cplx cx_dotc(size_t n, const cplx* x, const cplx* y) {
  const real_t* xs = reinterpret_cast<const real_t*>(x);
  const real_t* ys = reinterpret_cast<const real_t*>(y);
  real_t sr = 0.0, si = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const real_t xr = xs[2 * i], xi = xs[2 * i + 1];
    const real_t yr = ys[2 * i], yi = ys[2 * i + 1];
    sr += xr * yr + xi * yi;
    si += xr * yi - xi * yr;
  }
  return {sr, si};
}

void gemm_nn(const la::MatC& A, const la::MatC& B, la::MatC& C, cplx alpha,
             cplx beta) {
  const size_t m = A.rows(), k = A.cols(), n = B.cols();
  constexpr size_t jtile = 4;
  for (size_t j0 = 0; j0 < n; j0 += jtile) {
    const size_t j1 = std::min(n, j0 + jtile);
    for (size_t j = j0; j < j1; ++j) {
      cplx* cj = C.col(j);
      if (beta == cplx(0.0))
        for (size_t i = 0; i < m; ++i) cj[i] = 0.0;
      else if (beta != cplx(1.0))
        for (size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (size_t l = 0; l < k; ++l) {
      const cplx* al = A.col(l);
      for (size_t j = j0; j < j1; ++j) {
        const cplx ab = alpha * B.col(j)[l];
        if (ab == cplx(0.0)) continue;
        cx_axpy(m, ab, al, C.col(j));
      }
    }
  }
}

void gemm_cn(const la::MatC& A, const la::MatC& B, la::MatC& C, cplx alpha,
             cplx beta) {
  const size_t k = A.rows(), m = A.cols(), n = B.cols();
  for (size_t j = 0; j < n; ++j) {
    const cplx* bj = B.col(j);
    cplx* cj = C.col(j);
    for (size_t i = 0; i < m; ++i) {
      const cplx acc = cx_dotc(k, A.col(i), bj);
      cj[i] = alpha * acc + (beta == cplx(0.0) ? cplx(0.0) : beta * cj[i]);
    }
  }
}

void gemm_nc(const la::MatC& A, const la::MatC& B, la::MatC& C, cplx alpha,
             cplx beta) {
  const size_t m = A.rows(), k = A.cols(), n = B.rows();
  constexpr size_t jtile = 4;
  for (size_t j0 = 0; j0 < n; j0 += jtile) {
    const size_t j1 = std::min(n, j0 + jtile);
    for (size_t j = j0; j < j1; ++j) {
      cplx* cj = C.col(j);
      if (beta == cplx(0.0))
        for (size_t i = 0; i < m; ++i) cj[i] = 0.0;
      else if (beta != cplx(1.0))
        for (size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (size_t l = 0; l < k; ++l) {
      const cplx* al = A.col(l);
      for (size_t j = j0; j < j1; ++j) {
        const cplx ab = alpha * std::conj(B(j, l));
        if (ab == cplx(0.0)) continue;
        cx_axpy(m, ab, al, C.col(j));
      }
    }
  }
}

la::MatC cholesky(const la::MatC& A) {
  const size_t n = A.rows();
  la::MatC L(n, n);
  for (size_t j = 0; j < n; ++j) {
    // Diagonal element.
    real_t sum = std::real(A(j, j));
    for (size_t k = 0; k < j; ++k) sum -= std::norm(L(j, k));
    PTIM_CHECK_MSG(sum > 0.0, "cholesky: matrix not positive definite at row "
                                  << j << " (pivot " << sum << ")");
    const real_t ljj = std::sqrt(sum);
    L(j, j) = ljj;
    // Column below the diagonal.
    for (size_t i = j + 1; i < n; ++i) {
      cplx s = A(i, j);
      for (size_t k = 0; k < j; ++k) s -= L(i, k) * std::conj(L(j, k));
      L(i, j) = s / ljj;
    }
  }
  return L;
}

void solve_lower(const la::MatC& L, la::MatC& B) {
  const size_t n = L.rows();
  const size_t ncols = B.cols();
  constexpr size_t tile = 24;
  for (size_t j0 = 0; j0 < ncols; j0 += tile) {
    const size_t j1 = std::min(ncols, j0 + tile);
    for (size_t k = 0; k < n; ++k) {
      const real_t lkk = L(k, k).real();
      const cplx* lk = L.col(k) + k + 1;
      for (size_t j = j0; j < j1; ++j) {
        cplx* b = B.col(j);
        b[k] = cplx(b[k].real() / lkk, b[k].imag() / lkk);
        cx_axpy(n - k - 1, -b[k], lk, b + k + 1);
      }
    }
  }
}

void solve_lower_herm(const la::MatC& L, la::MatC& B) {
  const size_t n = L.rows();
  const size_t ncols = B.cols();
  constexpr size_t tile = 24;
  for (size_t j0 = 0; j0 < ncols; j0 += tile) {
    const size_t j1 = std::min(ncols, j0 + tile);
    for (size_t i = n; i-- > 0;) {
      const real_t lii = L(i, i).real();
      const real_t* lc = reinterpret_cast<const real_t*>(L.col(i));
      for (size_t j = j0; j < j1; ++j) {
        cplx* b = B.col(j);
        real_t sr = b[i].real(), si = b[i].imag();
        const real_t* bs = reinterpret_cast<const real_t*>(b);
        for (size_t k = i + 1; k < n; ++k) {
          const real_t lr = lc[2 * k], li = lc[2 * k + 1];
          const real_t br = bs[2 * k], bi = bs[2 * k + 1];
          sr -= lr * br + li * bi;
          si -= lr * bi - li * br;
        }
        b[i] = cplx(sr / lii, si / lii);
      }
    }
  }
}

void solve_upper_right(const la::MatC& L, la::MatC& B) {
  const size_t n = L.rows();
  const size_t m = B.rows();
  for (size_t j = 0; j < n; ++j) {
    cplx* xj = B.col(j);
    for (size_t k = 0; k < j; ++k) {
      const cplx ljk = std::conj(L(j, k));
      if (ljk == cplx(0.0)) continue;
      const cplx* xk = B.col(k);
      for (size_t i = 0; i < m; ++i) xj[i] -= xk[i] * ljk;
    }
    const cplx d = std::conj(L(j, j));
    for (size_t i = 0; i < m; ++i) xj[i] /= d;
  }
}

la::PivotedQr qr_column_pivot(la::Matrix<cplx> a, size_t max_rank) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  const size_t steps = std::min(max_rank, std::min(m, n));
  la::PivotedQr out;
  if (steps == 0) return out;
  std::vector<size_t> perm(n);
  for (size_t j = 0; j < n; ++j) perm[j] = j;
  std::vector<real_t> norms(n), ref(n);
  for (size_t j = 0; j < n; ++j) {
    const cplx* cj = a.col(j);
    real_t s = 0.0;
    for (size_t i = 0; i < m; ++i) s += std::norm(cj[i]);
    norms[j] = ref[j] = s;
  }
  std::vector<cplx> v(m);
  for (size_t k = 0; k < steps; ++k) {
    size_t p = k;
    for (size_t j = k + 1; j < n; ++j)
      if (norms[j] > norms[p]) p = j;
    if (p != k) {
      cplx* ck = a.col(k);
      cplx* cp = a.col(p);
      for (size_t i = 0; i < m; ++i) std::swap(ck[i], cp[i]);
      std::swap(norms[k], norms[p]);
      std::swap(ref[k], ref[p]);
      std::swap(perm[k], perm[p]);
    }
    out.pivots.push_back(perm[k]);
    cplx* ck = a.col(k);
    real_t xnorm2 = 0.0;
    for (size_t i = k; i < m; ++i) xnorm2 += std::norm(ck[i]);
    const real_t xnorm = std::sqrt(xnorm2);
    out.rdiag.push_back(xnorm);
    if (xnorm == 0.0) continue;
    const cplx x0 = ck[k];
    const real_t ax0 = std::abs(x0);
    const cplx phase = ax0 > 0.0 ? x0 / ax0 : cplx(1.0);
    const cplx alpha = -phase * xnorm;
    for (size_t i = k; i < m; ++i) v[i] = ck[i];
    v[k] -= alpha;
    real_t vnorm2 = 0.0;
    for (size_t i = k; i < m; ++i) vnorm2 += std::norm(v[i]);
    if (vnorm2 == 0.0) continue;
    const real_t beta = 2.0 / vnorm2;
    ck[k] = alpha;
    for (size_t i = k + 1; i < m; ++i) ck[i] = cplx(0.0);
    for (size_t j = k + 1; j < n; ++j) {
      cplx* cj = a.col(j);
      const cplx dot = cx_dotc(m - k, v.data() + k, cj + k);
      const cplx s = beta * dot;
      cx_axpy(m - k, -s, v.data() + k, cj + k);
      const real_t nj = norms[j] - std::norm(cj[k]);
      norms[j] = nj > 0.0 ? nj : 0.0;
    }
    for (size_t j = k + 1; j < n; ++j) {
      if (norms[j] > 1e-8 * ref[j]) continue;
      const cplx* cj = a.col(j);
      real_t s = 0.0;
      for (size_t i = k + 1; i < m; ++i) s += std::norm(cj[i]);
      norms[j] = ref[j] = s;
    }
    norms[k] = 0.0;
  }
  return out;
}

}  // namespace reference

// memcmp of the bytes (an empty array's data() may be null, which memcmp
// must not see).
bool same_bytes(const void* a, const void* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

bool same_bits(const la::MatC& a, const la::MatC& b) {
  return a.same_shape(b) &&
         same_bytes(a.data(), b.data(), a.size() * sizeof(cplx));
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         same_bytes(a.data(), b.data(), a.size() * sizeof(real_t));
}

// The value f() returns with the ISA forced.
template <typename F>
auto forced(Isa i, F f) {
  struct Guard {
    explicit Guard(Isa i) { isa::force(i); }
    ~Guard() { isa::clear_forced(); }
  } guard(i);
  return f();
}

// A random block with some exact zeros (the coefficients the GEMMs skip),
// and signed zeros in both parts (the zero signs the solves keep).
la::MatC random_with_zeros(size_t rows, size_t cols, unsigned seed) {
  la::MatC a = random_matrix(rows, cols, seed);
  for (size_t i = 0; i < a.size(); i += 7) a.data()[i] = cplx(0.0);
  for (size_t i = 3; i < a.size(); i += 11)
    a.data()[i] = cplx(-0.0, a.data()[i].imag());
  for (size_t i = 5; i < a.size(); i += 13)
    a.data()[i] = cplx(a.data()[i].real(), -0.0);
  for (size_t i = 9; i < a.size(); i += 17) a.data()[i] = cplx(-0.0, 0.0);
  return a;
}

la::MatC positive_definite(size_t n, unsigned seed) {
  la::MatC a = random_hermitian(n, seed);
  for (size_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
  return a;
}

struct Scalars {
  cplx alpha, beta;
};
const Scalars kScalars[] = {{1.0, 0.0},
                            {-1.0, 1.0},
                            {cplx(0.3, -1.2), cplx(0.5, 0.25)},
                            {0.0, cplx(-0.75, 0.0)}};

class LaLanes : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa::available(GetParam()))
      GTEST_SKIP() << "ISA not available in this build/CPU: "
                   << isa::name(GetParam());
  }
  void TearDown() override { isa::clear_forced(); }

  // Checks out = f() under the ISA against f() under the scalar table and
  // against `ref`.
  template <typename Out, typename F>
  void expect_bitwise(F f, const Out& ref, const std::string& what) {
    const Out scalar = forced(Isa::kScalar, f);
    const Out out = forced(GetParam(), f);
    EXPECT_TRUE(same_bits(out, scalar)) << what << ": differs from scalar";
    EXPECT_TRUE(same_bits(out, ref)) << what << ": differs from the loop";
  }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Isas, LaLanes,
    ::testing::Values(Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(isa::name(info.param));
    });

TEST_P(LaLanes, GemmNnAndNc) {
  // {m, k, n}: 1 x 1, ring_wire's rotations, Davidson's block, the ISDF
  // fit's samples and apply, ragged widths, zero columns, zero rows, k = 0.
  const size_t shapes[][3] = {{1, 1, 1},     {147, 5, 5},   {147, 60, 20},
                              {343, 20, 160}, {343, 160, 20}, {13, 7, 11},
                              {300, 9, 0},   {0, 5, 3},     {5, 0, 3}};
  unsigned seed = 100;
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    const la::MatC a = random_matrix(m, k, ++seed);
    const la::MatC bn = random_with_zeros(k, n, ++seed);
    const la::MatC bc = random_with_zeros(n, k, ++seed);
    const la::MatC c0 = random_with_zeros(m, n, ++seed);
    for (const Scalars& sc : kScalars) {
      const std::string what = "m=" + std::to_string(m) + " k=" +
                               std::to_string(k) + " n=" + std::to_string(n);
      la::MatC ref = c0;
      reference::gemm_nn(a, bn, ref, sc.alpha, sc.beta);
      expect_bitwise(
          [&] {
            la::MatC c = c0;
            la::gemm_nn(a, bn, c, sc.alpha, sc.beta);
            return c;
          },
          ref, "gemm_nn " + what);
      ref = c0;
      reference::gemm_nc(a, bc, ref, sc.alpha, sc.beta);
      expect_bitwise(
          [&] {
            la::MatC c = c0;
            la::gemm_nc(a, bc, c, sc.alpha, sc.beta);
            return c;
          },
          ref, "gemm_nc " + what);
    }
  }
}

TEST_P(LaLanes, GemmCn) {
  // {k, m, n}: C = A^H B is m x n for a k x m A. Davidson's overlap, the
  // band overlap's 37 x 20 block, ring_wire's shape, ragged widths, zero
  // columns, k = 0.
  const size_t shapes[][3] = {{1, 1, 1},  {147, 60, 20}, {37, 20, 20},
                              {147, 5, 5}, {20, 13, 9},   {10, 3, 0},
                              {0, 4, 3}};
  unsigned seed = 200;
  for (const auto& s : shapes) {
    const size_t k = s[0], m = s[1], n = s[2];
    const la::MatC a = random_with_zeros(k, m, ++seed);
    const la::MatC b = random_with_zeros(k, n, ++seed);
    const la::MatC c0 = random_with_zeros(m, n, ++seed);
    for (const Scalars& sc : kScalars) {
      la::MatC ref = c0;
      reference::gemm_cn(a, b, ref, sc.alpha, sc.beta);
      expect_bitwise(
          [&] {
            la::MatC c = c0;
            la::gemm_cn(a, b, c, sc.alpha, sc.beta);
            return c;
          },
          ref,
          "gemm_cn k=" + std::to_string(k) + " m=" + std::to_string(m) +
              " n=" + std::to_string(n));
    }
  }
}

TEST_P(LaLanes, CholeskyAndSolves) {
  // {n, right-hand sides}: 1 x 1, the PT-IM fixed point's 20 x 20, the
  // ISDF fit's 160 x 343, ragged sizes, zero columns.
  const size_t shapes[][2] = {
      {1, 1}, {20, 20}, {160, 343}, {37, 13}, {9, 0}};
  unsigned seed = 300;
  for (const auto& s : shapes) {
    const size_t n = s[0], nrhs = s[1];
    const std::string what =
        "n=" + std::to_string(n) + " nrhs=" + std::to_string(nrhs);
    const la::MatC a = positive_definite(n, ++seed);
    const la::MatC lref = reference::cholesky(a);
    expect_bitwise([&] { return la::cholesky(a); }, lref, "cholesky " + what);

    const la::MatC b0 = random_with_zeros(n, nrhs, ++seed);
    la::MatC ref = b0;
    reference::solve_lower(lref, ref);
    expect_bitwise(
        [&] {
          la::MatC b = b0;
          la::solve_lower(lref, b);
          return b;
        },
        ref, "solve_lower " + what);
    ref = b0;
    reference::solve_lower_herm(lref, ref);
    expect_bitwise(
        [&] {
          la::MatC b = b0;
          la::solve_lower_herm(lref, b);
          return b;
        },
        ref, "solve_lower_herm " + what);
    ref = b0;
    reference::solve_lower(lref, ref);
    reference::solve_lower_herm(lref, ref);
    expect_bitwise(
        [&] {
          la::MatC b = b0;
          la::cholesky_solve(lref, b);
          return b;
        },
        ref, "cholesky_solve " + what);
  }
}

TEST_P(LaLanes, CholeskyRejectsTheSameRow) {
  la::MatC a = positive_definite(12, 350);
  a(9, 9) = -100.0;
  std::string ref_msg;
  try {
    reference::cholesky(a);
  } catch (const Error& e) {
    ref_msg = e.what();
  }
  ASSERT_NE(ref_msg.find("at row 9 (pivot "), std::string::npos);
  isa::force(GetParam());
  try {
    la::cholesky(a);
    ADD_FAILURE() << "cholesky accepted an indefinite matrix";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.substr(msg.find("at row ")),
              ref_msg.substr(ref_msg.find("at row ")));
  }
}

TEST_P(LaLanes, SolveUpperRight) {
  // {rows of B, n}: ring_wire's and ACE's 147 x 5 / 147 x 20, ragged rows,
  // 1 x 1, zero rows. B carries zeros of both signs: the division by
  // conj(L(j,j)) keeps the zero signs std::complex division gives.
  const size_t shapes[][2] = {{147, 5}, {147, 20}, {13, 7}, {1, 1}, {0, 4}};
  unsigned seed = 400;
  for (const auto& s : shapes) {
    const size_t m = s[0], n = s[1];
    const la::MatC l = reference::cholesky(positive_definite(n, ++seed));
    const la::MatC b0 = random_with_zeros(m, n, ++seed);
    la::MatC ref = b0;
    reference::solve_upper_right(l, ref);
    expect_bitwise(
        [&] {
          la::MatC b = b0;
          la::solve_upper_right(l, b);
          return b;
        },
        ref,
        "solve_upper_right m=" + std::to_string(m) + " n=" +
            std::to_string(n));
  }
}

TEST_P(LaLanes, QrColumnPivot) {
  // {rows, columns, rank}: the ISDF selection's 169 x 640 -> 160, ragged
  // widths, 1 x 1, zero columns; and a numerically rank-6 block, whose
  // residual norms collapse and take the exact-recomputation branch.
  const size_t shapes[][3] = {
      {169, 640, 160}, {13, 11, 13}, {1, 1, 1}, {5, 0, 3}};
  unsigned seed = 500;
  std::vector<la::MatC> inputs;
  for (const auto& s : shapes)
    inputs.push_back(random_with_zeros(s[0], s[1], ++seed));
  const la::MatC left = random_matrix(30, 6, 510);
  const la::MatC right = random_matrix(6, 45, 511);
  la::MatC low(30, 45);
  la::gemm_nn(left, right, low);
  const la::MatC noise = random_matrix(30, 45, 512);
  for (size_t i = 0; i < low.size(); ++i)
    low.data()[i] += 1e-9 * noise.data()[i];
  inputs.push_back(low);
  const size_t ranks[] = {160, 13, 1, 3, 20};
  for (size_t c = 0; c < inputs.size(); ++c) {
    const la::MatC& a = inputs[c];
    const std::string what = std::to_string(a.rows()) + " x " +
                             std::to_string(a.cols()) + " -> " +
                             std::to_string(ranks[c]);
    const la::PivotedQr ref = reference::qr_column_pivot(a, ranks[c]);
    const la::PivotedQr scalar =
        forced(Isa::kScalar, [&] { return la::qr_column_pivot(a, ranks[c]); });
    const la::PivotedQr out =
        forced(GetParam(), [&] { return la::qr_column_pivot(a, ranks[c]); });
    EXPECT_EQ(out.pivots, ref.pivots) << what;
    EXPECT_EQ(out.pivots, scalar.pivots) << what;
    EXPECT_TRUE(same_bits(out.rdiag, ref.rdiag)) << what;
    EXPECT_TRUE(same_bits(out.rdiag, scalar.rdiag)) << what;
  }
}
