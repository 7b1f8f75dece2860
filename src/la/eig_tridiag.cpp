// Householder reduction of a complex Hermitian matrix to real symmetric
// tridiagonal form, followed by the implicit-shift QL algorithm (classic
// EISPACK htridi/tql2 lineage). The QL rotations are real, so they are
// accumulated in a real matrix Z and the complex Householder basis Q is
// applied once at the end, to the wanted columns of Z only.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "la/blas.hpp"
#include "la/eig.hpp"

namespace ptim::la {

namespace {

// Reduce Hermitian A (destroyed) to tridiagonal: real diagonal d, complex
// subdiagonal e (e[i] = T(i+1,i)), accumulating the unitary Q with A = Q T Q^H.
void householder_tridiag(MatC& A, std::vector<real_t>& d, std::vector<cplx>& e,
                         MatC& Q) {
  const size_t n = A.rows();
  Q = MatC::identity(n);
  d.assign(n, 0.0);
  e.assign(n > 0 ? n - 1 : 0, cplx(0.0));

  std::vector<cplx> v(n), p(n), q(n), qv(n);

  for (size_t k = 0; k + 2 < n; ++k) {
    const size_t m = n - k - 1;  // length of the column below the diagonal
    // x = A(k+1:n, k)
    real_t xnorm2 = 0.0;
    for (size_t i = 0; i < m; ++i) xnorm2 += std::norm(A(k + 1 + i, k));
    const real_t xnorm = std::sqrt(xnorm2);
    if (xnorm == 0.0) {
      e[k] = 0.0;
      continue;
    }
    const cplx x0 = A(k + 1, k);
    const cplx phase = (x0 == cplx(0.0)) ? cplx(1.0) : x0 / std::abs(x0);
    const cplx alpha = -phase * xnorm;

    // v = x - alpha*e0; beta = 2 / |v|^2
    real_t vnorm2 = 0.0;
    for (size_t i = 0; i < m; ++i) {
      v[i] = A(k + 1 + i, k);
      if (i == 0) v[i] -= alpha;
      vnorm2 += std::norm(v[i]);
    }
    if (vnorm2 <= 0.0) {
      e[k] = alpha;
      continue;
    }
    const real_t beta = 2.0 / vnorm2;

    // Hermitian rank-2 update of the trailing block A22 <- H A22 H with
    // H = I - beta v v^H:  p = beta*A22*v, K = beta/2 * v^H p, q = p - K v,
    // A22 -= v q^H + q v^H. The loops run down columns in explicit real
    // arithmetic (la::axpy's formulas, so every row sums in the same order
    // and d, e keep their bits).
    std::fill(p.begin(), p.begin() + static_cast<long>(m), cplx(0.0));
    for (size_t l = 0; l < m; ++l)
      axpy(m, v[l], &A(k + 1, k + 1 + l), p.data());
    for (size_t i = 0; i < m; ++i) p[i] *= beta;
    cplx vhp = 0.0;
    for (size_t i = 0; i < m; ++i) vhp += std::conj(v[i]) * p[i];
    const cplx K = 0.5 * beta * vhp;
    for (size_t i = 0; i < m; ++i) q[i] = p[i] - K * v[i];
    const real_t* vs = reinterpret_cast<const real_t*>(v.data());
    const real_t* qs = reinterpret_cast<const real_t*>(q.data());
    for (size_t jj = 0; jj < m; ++jj) {
      const cplx qc = std::conj(q[jj]), vc = std::conj(v[jj]);
      real_t* a = reinterpret_cast<real_t*>(&A(k + 1, k + 1 + jj));
      for (size_t ii = 0; ii < m; ++ii) {
        const real_t vr = vs[2 * ii], vi = vs[2 * ii + 1];
        const real_t qr = qs[2 * ii], qi = qs[2 * ii + 1];
        a[2 * ii] -= (vr * qc.real() - vi * qc.imag()) +
                     (qr * vc.real() - qi * vc.imag());
        a[2 * ii + 1] -= (vr * qc.imag() + vi * qc.real()) +
                         (qr * vc.imag() + qi * vc.real());
      }
    }

    // Column k of A becomes (0,...,alpha,0,...)^T.
    A(k + 1, k) = alpha;
    A(k, k + 1) = std::conj(alpha);
    for (size_t i = 1; i < m; ++i) {
      A(k + 1 + i, k) = 0.0;
      A(k, k + 1 + i) = 0.0;
    }

    // Q <- Q * H  (right-multiplication accumulates H_0 H_1 ...):
    // Q(:, k+1:n) -= beta * (Q(:, k+1:n) v) v^H.
    std::fill(qv.begin(), qv.end(), cplx(0.0));
    for (size_t l = 0; l < m; ++l)
      axpy(n, v[l], Q.col(k + 1 + l), qv.data());
    for (size_t r = 0; r < n; ++r) qv[r] *= beta;
    for (size_t l = 0; l < m; ++l)
      axpy(n, -std::conj(v[l]), qv.data(), Q.col(k + 1 + l));
  }

  for (size_t i = 0; i < n; ++i) d[i] = std::real(A(i, i));
  for (size_t i = 0; i + 1 < n; ++i) e[i] = A(i + 1, i);
}

// Implicit-shift QL on a real symmetric tridiagonal (d, e); rotations are
// accumulated into the real columns of Z. (Numerical Recipes tql2 port.)
void tql2(std::vector<real_t>& d, std::vector<real_t>& e, MatR& Z) {
  const size_t n = d.size();
  if (n == 0) return;
  const size_t nz = Z.rows();
  e.push_back(0.0);  // sentinel e[n-1]

  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const real_t dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 ||
            std::abs(e[m]) <= std::numeric_limits<real_t>::epsilon() * dd)
          break;
      }
      if (m != l) {
        PTIM_CHECK_MSG(iter++ < 64, "tql2: too many QL iterations");
        real_t g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        real_t r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        real_t s = 1.0, c = 1.0, p = 0.0;
        for (size_t i = m; i-- > l;) {
          real_t f = s * e[i];
          const real_t b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          // Apply the rotation to columns i and i+1 of Z.
          real_t* zi = Z.col(i);
          real_t* zi1 = Z.col(i + 1);
          for (size_t k = 0; k < nz; ++k) {
            const real_t f2 = zi1[k];
            zi1[k] = s * zi[k] + c * f2;
            zi[k] = c * zi[k] - s * f2;
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  e.pop_back();
}

}  // namespace

EigResult eig_herm(const MatC& A, size_t nvec) {
  PTIM_CHECK_MSG(A.rows() == A.cols(), "eig_herm: matrix must be square");
  const size_t n = A.rows();
  nvec = std::min(nvec, n);
  EigResult res;
  if (n == 0) return res;

  MatC T = A;
  std::vector<real_t> d;
  std::vector<cplx> ec;
  MatC Q;
  householder_tridiag(T, d, ec, Q);

  // Phase-scale the columns of Q so the tridiagonal becomes real:
  // u_0 = 1, u_{i+1} = u_i * e_i/|e_i|; then |e_i| is the real subdiagonal.
  std::vector<real_t> e(n > 0 ? n - 1 : 0, 0.0);
  cplx u = 1.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const real_t ae = std::abs(ec[i]);
    e[i] = ae;
    const cplx unext = (ae == 0.0) ? u : u * (ec[i] / ae);
    // scale column i+1 of Q by u_{i+1}
    for (size_t k = 0; k < n; ++k) Q(k, i + 1) *= unext;
    u = unext;
  }

  MatR Z = MatR::identity(n);
  tql2(d, e, Z);

  // Sort ascending.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return d[a] < d[b]; });
  res.w.resize(n);
  for (size_t j = 0; j < n; ++j) res.w[j] = d[idx[j]];

  // Back-transform the wanted columns: V(:, j) = Q Z(:, idx[j]). A complex
  // column times a real scalar is a real axpy over the interleaved parts.
  res.V.resize(n, nvec);
  for (size_t j = 0; j < nvec; ++j) {
    const real_t* zj = Z.col(idx[j]);
    real_t* vj = reinterpret_cast<real_t*>(res.V.col(j));
    for (size_t l = 0; l < n; ++l) {
      const real_t z = zj[l];
      const real_t* ql = reinterpret_cast<const real_t*>(Q.col(l));
      for (size_t r = 0; r < 2 * n; ++r) vj[r] += ql[r] * z;
    }
  }
  return res;
}

}  // namespace ptim::la
