#include "ham/ace.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/util.hpp"

namespace ptim::ham {

AceOperator AceOperator::build(const la::MatC& phi, const la::MatC& w) {
  ScopedTimer t("ace.build");
  PTIM_CHECK(phi.same_shape(w));
  const size_t n = phi.cols();

  la::MatC b(n, n);
  la::gemm_cn(phi, w, b);
  const la::MatC l = factor(std::move(b));
  AceOperator op;
  op.xi_ = w;
  la::solve_upper_right(l, op.xi_);  // xi = W * L^{-H}
  return op;
}

la::MatC AceOperator::factor(la::MatC b) {
  // -Phi^H W is Hermitian positive (semi)definite.
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = -b.data()[i];
  la::hermitize(b);

  // Ridge for the semidefinite edge (all-zero occupation columns).
  const size_t n = b.rows();
  real_t dmax = 0.0;
  for (size_t i = 0; i < n; ++i) dmax = std::max(dmax, std::real(b(i, i)));
  const real_t ridge = std::max(dmax, real_t(1.0)) * 1e-13;
  for (size_t i = 0; i < n; ++i) b(i, i) += ridge;
  return la::cholesky(b);
}

AceOperator AceOperator::build_diag(const ExchangeOperator& xop,
                                    const la::MatC& phi,
                                    const std::vector<real_t>& occ,
                                    la::MatC* w_out) {
  la::MatC w(phi.rows(), phi.cols());
  xop.apply_diag(phi, occ, phi, w, false);
  AceOperator op = build(phi, w);
  if (w_out) *w_out = std::move(w);
  return op;
}

void AceOperator::apply(const la::MatC& tgt, la::MatC& out,
                        bool accumulate) const {
  ScopedTimer t("ace.apply");
  PTIM_CHECK(valid() && tgt.rows() == xi_.rows());
  la::MatC proj(xi_.cols(), tgt.cols());
  la::gemm_cn(xi_, tgt, proj);
  if (!accumulate) {
    out.resize(tgt.rows(), tgt.cols());
    out.fill(cplx(0.0));
  }
  la::gemm_nn(xi_, proj, out, cplx(-1.0), cplx(1.0));
}

real_t AceOperator::energy(const la::MatC& phi,
                           const std::vector<real_t>& d) const {
  PTIM_CHECK(d.size() == phi.cols());
  la::MatC proj(xi_.cols(), phi.cols());
  la::gemm_cn(xi_, phi, proj);
  real_t e = 0.0;
  for (size_t b = 0; b < phi.cols(); ++b) {
    real_t s = 0.0;
    for (size_t k = 0; k < xi_.cols(); ++k) s += std::norm(proj(k, b));
    e -= d[b] * s;
  }
  return e;
}

}  // namespace ptim::ham
