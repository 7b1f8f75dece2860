#include "gs/davidson.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"
#include "pw/wavefunction.hpp"

namespace ptim::gs {

namespace {

// Teter–Payne–Allan style preconditioner built from the kinetic diagonal.
real_t teter(real_t kin, real_t eref) {
  const real_t x = kin / std::max(eref, 1e-8);
  const real_t num = 27.0 + 18.0 * x + 12.0 * x * x + 8.0 * x * x * x;
  return num / (num + 16.0 * x * x * x * x);
}

// t <- t - v (v^H t): one block classical Gram–Schmidt pass.
void project_out(const la::MatC& v, la::MatC& t) {
  la::MatC s(v.cols(), t.cols());
  la::gemm_cn(v, t, s);
  la::gemm_nn(v, s, t, -1.0, 1.0);
}

// Orthonormalize the columns of t against the orthonormal columns of v and
// among themselves; drops columns that lose norm. Returns the kept count.
// Each column is normalized first, so the keep/drop test is relative. The
// projection against v is a block pass before and after the per-column
// pass inside t, whose vectors are then orthogonal to v at rounding level.
size_t ortho_against(const la::MatC& v, la::MatC& t) {
  const size_t npw = t.rows();
  for (size_t j = 0; j < t.cols(); ++j) {
    const real_t nrm0 = la::nrm2(npw, t.col(j));
    la::scal(npw, nrm0 < 1e-300 ? 0.0 : 1.0 / nrm0, t.col(j));
  }
  project_out(v, t);

  size_t kept = 0;
  for (size_t j = 0; j < t.cols(); ++j) {
    cplx* col = t.col(j);
    for (int pass = 0; pass < 2; ++pass)
      for (size_t i = 0; i < kept; ++i) {
        const cplx p = la::dotc(npw, t.col(i), col);
        la::axpy(npw, -p, t.col(i), col);
      }
    const real_t nrm = la::nrm2(npw, col);
    if (nrm > 1e-8) {
      cplx* dst = t.col(kept++);
      for (size_t r = 0; r < npw; ++r) dst[r] = col[r] / nrm;
    }
  }
  la::MatC keptm(npw, kept);
  std::copy(t.data(), t.data() + keptm.size(), keptm.data());
  project_out(v, keptm);
  t = std::move(keptm);
  return kept;
}

// [a b]: the columns of b appended to those of a.
la::MatC hcat(const la::MatC& a, const la::MatC& b) {
  la::MatC out(a.rows(), a.cols() + b.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.col(a.cols()));
  return out;
}

// The projected matrix V^H HV after V grew by the last m columns: w holds
// V^H (HT) for the grown V, so it is the new last block column; the new
// last block row is its conjugate transpose and the new diagonal block is
// Hermitized.
void grow_projected(la::MatC& a, const la::MatC& w) {
  const size_t k = a.rows(), m = w.cols(), n = k + m;
  la::MatC out(n, n);
  for (size_t j = 0; j < k; ++j)
    std::copy(a.col(j), a.col(j) + k, out.col(j));
  for (size_t j = 0; j < m; ++j)
    for (size_t i = 0; i < k; ++i) {
      out(i, k + j) = w(i, j);
      out(k + j, i) = std::conj(w(i, j));
    }
  for (size_t j = 0; j < m; ++j)
    for (size_t i = 0; i < m; ++i)
      out(k + i, k + j) = 0.5 * (w(k + i, j) + std::conj(w(k + j, i)));
  a = std::move(out);
}

la::MatC projected(const la::MatC& v, const la::MatC& hv) {
  la::MatC a = pw::overlap(v, hv);
  la::hermitize(a);
  return a;
}

}  // namespace

DavidsonResult davidson(
    const std::function<void(const la::MatC&, la::MatC&)>& apply_h,
    const la::MatC& x0, const std::vector<real_t>& precond_diag,
    DavidsonOptions opt) {
  ScopedTimer timer("gs.davidson");
  const size_t npw = x0.rows();
  const size_t nb = x0.cols();
  PTIM_CHECK(precond_diag.size() == npw);
  if (opt.max_subspace == 0) opt.max_subspace = 3 * nb;

  DavidsonResult res;
  la::MatC v = x0;
  pw::orthonormalize_lowdin(v);
  la::MatC hv(npw, v.cols());
  apply_h(v, hv);
  la::MatC a = projected(v, hv);  // V^H HV, kept across iterations

  la::MatC x(npw, nb), hx(npw, nb);
  for (res.iterations = 1;; ++res.iterations) {
    // Rayleigh–Ritz on the current subspace: only the nb wanted pairs.
    const auto eig = la::eig_herm(a, nb);
    la::gemm_nn(v, eig.V, x);
    la::gemm_nn(hv, eig.V, hx);
    res.eps.assign(eig.w.begin(), eig.w.begin() + static_cast<long>(nb));

    // Residuals r_j = H x_j - eps_j x_j.
    la::MatC r = hx;
    res.resnorm.assign(nb, 0.0);
    real_t rmax = 0.0;
    for (size_t j = 0; j < nb; ++j) {
      la::axpy(npw, -res.eps[j], x.col(j), r.col(j));
      res.resnorm[j] = la::nrm2(npw, r.col(j));
      rmax = std::max(rmax, res.resnorm[j]);
    }
    if (opt.verbose)
      std::fprintf(stderr, "davidson it=%d dim=%zu rmax=%.3e\n",
                   res.iterations, v.cols(), rmax);
    if (rmax < opt.tol) {
      res.converged = true;
      break;
    }
    if (res.iterations >= opt.max_iter) break;

    // Precondition the unconverged residuals into one contiguous block so
    // the subsequent apply_h(t) runs the batched Hamiltonian path.
    std::vector<size_t> unconverged;
    for (size_t j = 0; j < nb; ++j)
      if (res.resnorm[j] >= 0.3 * opt.tol) unconverged.push_back(j);
    const size_t nt = unconverged.size();
    la::MatC t(npw, nt);
#pragma omp parallel for schedule(static)
    for (size_t jj = 0; jj < nt; ++jj) {
      const size_t j = unconverged[jj];
      const real_t eref = std::max(std::abs(res.eps[j]), real_t(0.1));
      for (size_t g = 0; g < npw; ++g)
        t(g, jj) = teter(precond_diag[g], eref) * r(g, j);
    }

    // Restart from the Ritz pairs when the subspace is full.
    if (v.cols() + nt > opt.max_subspace) {
      v = x;
      hv = hx;
      a = projected(v, hv);
    }

    if (ortho_against(v, t) == 0) break;
    la::MatC ht(npw, t.cols());
    apply_h(t, ht);

    // Expand: only the new block column V^H (HT) of the projected matrix.
    v = hcat(v, t);
    hv = hcat(hv, ht);
    la::MatC w(v.cols(), t.cols());
    la::gemm_cn(v, ht, w);
    grow_projected(a, w);
  }

  res.x = std::move(x);
  return res;
}

}  // namespace ptim::gs
