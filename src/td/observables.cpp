#include "td/observables.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/fixed_sum.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"

namespace ptim::td {

real_t dipole(const std::vector<real_t>& rho, const grid::FftGrid& g,
              const grid::Vec3& dir) {
  PTIM_CHECK(rho.size() == g.size());
  const auto& dims = g.dims();
  const grid::Vec3 center = g.lattice().center();
  // One partial per x line (linear index i = i0 + n0 * line), added in
  // line order: the bits depend on neither the timing nor the threads.
  const real_t acc = fixed_sum(
      g.size(),
      [&](size_t i) {
        const size_t q = i / dims[0];
        const grid::Vec3 r =
            g.rvec(i % dims[0], q % dims[1], q / dims[1]) - center;
        return grid::dot(r, dir) * rho[i];
      },
      dims[0]);
  return acc * g.dvol();
}

real_t current(const la::MatC& phi, const la::MatC& sigma,
               const grid::GSphere& sphere, const grid::Vec3& avec,
               const grid::Vec3& dir) {
  PTIM_CHECK(phi.rows() == sphere.npw() && sigma.rows() == phi.cols());
  la::MatC theta(phi.rows(), phi.cols());
  la::gemm_nn(phi, sigma, theta);
  real_t acc = 0.0;
  for (size_t g = 0; g < sphere.npw(); ++g) {
    const real_t kdir = grid::dot(sphere.gvec(g) + avec, dir);
    if (kdir == 0.0) continue;
    cplx s = 0.0;
    for (size_t b = 0; b < phi.cols(); ++b)
      s += std::conj(phi(g, b)) * theta(g, b);
    acc += kdir * std::real(s);
  }
  return 2.0 * acc / sphere.lattice().volume();
}

real_t sigma_trace(const la::MatC& sigma) {
  return std::real(la::trace(sigma));
}

real_t sigma_hermiticity_defect(const la::MatC& sigma) {
  return la::hermiticity_defect(sigma);
}

real_t sigma_idempotency_defect(const la::MatC& sigma) {
  la::MatC s2(sigma.rows(), sigma.cols());
  la::gemm_nn(sigma, sigma, s2);
  for (size_t i = 0; i < s2.size(); ++i) s2.data()[i] -= sigma.data()[i];
  return la::frob_norm(s2);
}

}  // namespace ptim::td
