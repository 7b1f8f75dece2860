#include "td/observables.hpp"

#include <cmath>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"

namespace ptim::td {

real_t dipole(const std::vector<real_t>& rho, const grid::FftGrid& g,
              const grid::Vec3& dir) {
  PTIM_CHECK(rho.size() == g.size());
  const auto& dims = g.dims();
  const grid::Vec3 center = g.lattice().center();
  // One partial sum per x line, added in line order afterwards. An OpenMP
  // reduction adds the per-thread sums in the order the threads finish, so
  // the same density could give a different last bit from call to call;
  // this sum depends on neither the timing nor the thread count.
  const size_t nlines = dims[1] * dims[2];
  std::vector<real_t> line_sum(nlines);
#pragma omp parallel for schedule(static)
  for (size_t q = 0; q < nlines; ++q) {
    const size_t i1 = q % dims[1], i2 = q / dims[1];
    real_t s = 0.0;
    for (size_t i0 = 0; i0 < dims[0]; ++i0) {
      const grid::Vec3 r = g.rvec(i0, i1, i2) - center;
      s += grid::dot(r, dir) * rho[g.linear(i0, i1, i2)];
    }
    line_sum[q] = s;
  }
  real_t acc = 0.0;
  for (const real_t s : line_sum) acc += s;
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
