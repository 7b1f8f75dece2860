#include "la/mixer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace ptim::la {

AndersonMixer::AndersonMixer(size_t dim, size_t max_history, real_t beta,
                             Reduction reduce, size_t local_dim)
    : dim_(dim),
      max_history_(max_history),
      beta_(beta),
      reduce_(std::move(reduce)),
      local_dim_(local_dim) {
  PTIM_CHECK(max_history >= 1);
  PTIM_CHECK(local_dim <= dim);
}

void AndersonMixer::reset() {
  hist_x_.clear();
  hist_f_.clear();
}

cplx AndersonMixer::dot(size_t n, const cplx* a, const cplx* b) const {
  if (!reduce_) return dotc(n, a, b);
  // std::complex is layout-compatible with real_t[2].
  cplx part = dotc(local_dim_, a, b);
  reduce_(reinterpret_cast<real_t*>(&part), 2);
  return part + dotc(n - local_dim_, a + local_dim_, b + local_dim_);
}

std::vector<cplx> AndersonMixer::mix(const std::vector<cplx>& x,
                                     const std::vector<cplx>& f) {
  PTIM_CHECK(x.size() == dim_ && f.size() == dim_);
  const size_t m = hist_x_.size();

  std::vector<cplx> xbar = x, fbar = f;
  if (m > 0) {
    // Columns f_k - f_i with kRegularization * I rows behind the data;
    // rhs f_k.
    const size_t len = dim_ + m;
    MatC q(len, m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t r = 0; r < dim_; ++r) q(r, i) = f[r] - hist_f_[i][r];
      q(dim_ + i, i) = kRegularization;
    }
    std::vector<cplx> rhs(len, cplx(0.0));
    std::copy(f.begin(), f.end(), rhs.begin());

    // Modified Gram-Schmidt: q becomes orthonormal, R upper triangular.
    MatC R(m, m);
    for (size_t j = 0; j < m; ++j) {
      for (size_t i = 0; i < j; ++i) {
        const cplx r = dot(len, q.col(i), q.col(j));
        R(i, j) = r;
        axpy(len, -r, q.col(i), q.col(j));
      }
      const real_t nrm =
          reduce_ ? std::sqrt(std::real(dot(len, q.col(j), q.col(j))))
                  : nrm2(len, q.col(j));
      PTIM_CHECK_MSG(nrm > 1e-300,
                     "AndersonMixer: rank-deficient history column " << j);
      R(j, j) = nrm;
      scal(len, 1.0 / nrm, q.col(j));
    }

    // theta = R^{-1} Q^H rhs. The m projections are independent, so their
    // local parts share one reduction.
    const size_t head = reduce_ ? local_dim_ : len;
    std::vector<cplx> theta(m);
    for (size_t j = 0; j < m; ++j)
      theta[j] = dotc(head, q.col(j), rhs.data());
    if (reduce_) {
      reduce_(reinterpret_cast<real_t*>(theta.data()), 2 * m);
      for (size_t j = 0; j < m; ++j)
        theta[j] += dotc(len - head, q.col(j) + head, rhs.data() + head);
    }
    for (size_t i = m; i-- > 0;) {
      cplx s = theta[i];
      for (size_t j = i + 1; j < m; ++j) s -= R(i, j) * theta[j];
      theta[i] = s / R(i, i);
    }

    for (size_t i = 0; i < m; ++i) {
      const cplx th = theta[i];
      for (size_t r = 0; r < dim_; ++r) {
        xbar[r] -= th * (x[r] - hist_x_[i][r]);
        fbar[r] -= th * (f[r] - hist_f_[i][r]);
      }
    }
  }

  hist_x_.push_back(x);
  hist_f_.push_back(f);
  if (hist_x_.size() > max_history_) {
    hist_x_.pop_front();
    hist_f_.pop_front();
  }

  std::vector<cplx> next(dim_);
  for (size_t r = 0; r < dim_; ++r) next[r] = xbar[r] + beta_ * fbar[r];
  return next;
}

std::vector<real_t> AndersonMixerReal::mix(const std::vector<real_t>& x,
                                           const std::vector<real_t>& f) {
  std::vector<cplx> xc(x.size()), fc(f.size());
  for (size_t i = 0; i < x.size(); ++i) xc[i] = x[i];
  for (size_t i = 0; i < f.size(); ++i) fc[i] = f[i];
  const std::vector<cplx> next = inner_.mix(xc, fc);
  std::vector<real_t> out(next.size());
  for (size_t i = 0; i < next.size(); ++i) out[i] = std::real(next[i]);
  return out;
}

}  // namespace ptim::la
