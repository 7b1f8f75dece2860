// Linear algebra: gemm variants vs a reference triple loop, the two
// independent Hermitian eigensolvers cross-validated, partial eigenvector
// solves (including splits inside a degenerate cluster), Cholesky solves,
// least squares and the Anderson mixer.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/matrix.hpp"
#include "la/mixer.hpp"
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

TEST(Eig, GeneralizedProblem) {
  const size_t n = 10;
  const la::MatC a = random_hermitian(n, 21);
  la::MatC b = random_hermitian(n, 22);
  for (size_t i = 0; i < n; ++i) b(i, i) += 4.0;  // make B positive definite

  const auto r = la::eig_herm_gen(a, b);
  // A x = w B x.
  la::MatC ax(n, n), bx(n, n);
  la::gemm_nn(a, r.V, ax);
  la::gemm_nn(b, r.V, bx);
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < n; ++i) ax(i, j) -= r.w[j] * bx(i, j);
  EXPECT_LT(la::frob_norm(ax), 1e-9);
  // B-orthonormal: V^H B V = I.
  la::MatC vhbv(n, n);
  la::gemm_cn(r.V, bx, vhbv);
  EXPECT_LT(la::frob_diff(vhbv, la::MatC::identity(n)), 1e-9);
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
