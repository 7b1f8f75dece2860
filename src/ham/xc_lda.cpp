#include "ham/xc_lda.hpp"

#include <cmath>

#include "common/fixed_sum.hpp"

namespace ptim::ham {

XcResult lda_pz81(real_t rho) {
  XcResult out{0.0, 0.0};
  if (rho <= 1e-14) return out;

  // Slater exchange.
  const real_t cx = 0.75 * std::cbrt(3.0 / kPi);
  const real_t rho13 = std::cbrt(rho);
  const real_t ex = -cx * rho13;
  const real_t vx = (4.0 / 3.0) * ex;

  // PZ81 correlation.
  const real_t rs = std::cbrt(3.0 / (kFourPi * rho));
  real_t ec, vc;
  if (rs >= 1.0) {
    const real_t gamma = -0.1423, beta1 = 1.0529, beta2 = 0.3334;
    const real_t sq = std::sqrt(rs);
    const real_t den = 1.0 + beta1 * sq + beta2 * rs;
    ec = gamma / den;
    vc = ec * (1.0 + (7.0 / 6.0) * beta1 * sq + (4.0 / 3.0) * beta2 * rs) / den;
  } else {
    const real_t a = 0.0311, b = -0.048, c = 0.0020, d = -0.0116;
    const real_t lnrs = std::log(rs);
    ec = a * lnrs + b + c * rs * lnrs + d * rs;
    vc = a * lnrs + (b - a / 3.0) + (2.0 / 3.0) * c * rs * lnrs +
         ((2.0 * d - c) / 3.0) * rs;
  }

  out.exc_density = rho * (ex + ec);
  out.vxc = vx + vc;
  return out;
}

real_t lda_pz81_eval(const std::vector<real_t>& rho, real_t dvol,
                     std::vector<real_t>& vxc) {
  vxc.resize(rho.size());
  const real_t exc = fixed_sum(rho.size(), [&](size_t i) {
    const XcResult r = lda_pz81(rho[i]);
    vxc[i] = r.vxc;
    return r.exc_density;
  });
  return exc * dvol;
}

}  // namespace ptim::ham
