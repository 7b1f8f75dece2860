#include "ham/density.hpp"

#include "common/error.hpp"
#include "common/fixed_sum.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"

namespace ptim::ham {

std::vector<real_t> density_diag(const la::MatC& phi_coeffs,
                                 const std::vector<real_t>& occ,
                                 const pw::SphereGridMap& map) {
  ScopedTimer t("density.diag");
  PTIM_CHECK(occ.size() == phi_coeffs.cols());
  const size_t ng = map.grid().size();
  std::vector<real_t> rho(ng, 0.0);
  std::vector<cplx> work(ng);
  for (size_t b = 0; b < phi_coeffs.cols(); ++b) {
    if (occ[b] == 0.0) continue;
    map.to_real(phi_coeffs.col(b), work.data());
    const real_t w = 2.0 * occ[b];
#pragma omp parallel for schedule(static)
    for (size_t j = 0; j < ng; ++j) rho[j] += w * std::norm(work[j]);
  }
  return rho;
}

std::vector<real_t> density_sigma(const la::MatC& phi_coeffs,
                                  const la::MatC& sigma,
                                  const pw::SphereGridMap& map) {
  ScopedTimer t("density.sigma");
  const size_t nb = phi_coeffs.cols();
  PTIM_CHECK(sigma.rows() == nb && sigma.cols() == nb);
  la::MatC theta(phi_coeffs.rows(), nb);
  la::gemm_nn(phi_coeffs, sigma, theta);
  return density_theta(phi_coeffs, theta, map);
}

std::vector<real_t> density_theta(const la::MatC& phi_coeffs,
                                  const la::MatC& theta,
                                  const pw::SphereGridMap& map) {
  PTIM_CHECK(theta.same_shape(phi_coeffs));
  const size_t ng = map.grid().size();
  std::vector<real_t> rho(ng, 0.0);
  std::vector<cplx> wphi(ng), wtheta(ng);
  for (size_t b = 0; b < phi_coeffs.cols(); ++b) {
    map.to_real(phi_coeffs.col(b), wphi.data());
    map.to_real(theta.col(b), wtheta.data());
    // rho += 2 * Re(theta_b(r) * conj(phi_b(r))), in real arithmetic: the
    // same IEEE operations as the complex product's real part, because
    // a*c - b*(-d) == a*c + b*d exactly, but without the product's
    // NaN-recovery branch (a libgcc call), which kept the loop scalar.
#pragma omp parallel for schedule(static)
    for (size_t j = 0; j < ng; ++j)
      rho[j] += 2.0 * (wtheta[j].real() * wphi[j].real() +
                       wtheta[j].imag() * wphi[j].imag());
  }
  return rho;
}

std::vector<real_t> density_sigma_naive(const la::MatC& phi_coeffs,
                                        const la::MatC& sigma,
                                        const pw::SphereGridMap& map) {
  ScopedTimer t("density.naive");
  const size_t nb = phi_coeffs.cols();
  PTIM_CHECK(sigma.rows() == nb && sigma.cols() == nb);
  const size_t ng = map.grid().size();

  la::MatC real_orbs;
  map.to_real_batch(phi_coeffs, real_orbs);

  std::vector<real_t> rho(ng, 0.0);
  for (size_t i = 0; i < nb; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      const cplx s = sigma(i, j);
      if (s == cplx(0.0)) continue;
      const cplx* pi = real_orbs.col(i);
      const cplx* pj = real_orbs.col(j);
#pragma omp parallel for schedule(static)
      for (size_t k = 0; k < ng; ++k)
        rho[k] += 2.0 * std::real(s * pi[k] * std::conj(pj[k]));
    }
  }
  return rho;
}

real_t integrate(const std::vector<real_t>& rho, const grid::FftGrid& g) {
  PTIM_CHECK(rho.size() == g.size());
  return fixed_sum(rho.size(), [&](size_t i) { return rho[i]; }) * g.dvol();
}

}  // namespace ptim::ham
