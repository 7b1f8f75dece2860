#include "ham/hartree.hpp"

#include "common/error.hpp"
#include "common/fixed_sum.hpp"

namespace ptim::ham {

HartreeResult hartree_potential(const std::vector<real_t>& rho,
                                const grid::FftGrid& g) {
  const size_t ng = g.size();
  PTIM_CHECK(rho.size() == ng);
  std::vector<cplx> work(ng);
  for (size_t i = 0; i < ng; ++i) work[i] = rho[i];
  g.fft().forward(work.data());
  const real_t inv_ng = 1.0 / static_cast<real_t>(ng);
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < ng; ++i) {
    const real_t g2 = g.g2()[i];
    // rho(G) = FFT(rho)/Ng; V(G) = 4 pi rho(G)/G^2; then unscaled inverse.
    work[i] *= (g2 < 1e-12) ? 0.0 : kFourPi * inv_ng / g2;
  }
  g.fft().inverse(work.data());

  HartreeResult out;
  out.v.resize(ng);
  const auto scale = static_cast<real_t>(ng);  // undo the 1/Ng of inverse()
  const real_t e = fixed_sum(ng, [&](size_t i) {
    out.v[i] = std::real(work[i]) * scale;
    return rho[i] * out.v[i];
  });
  out.energy = 0.5 * e * g.dvol();
  return out;
}

}  // namespace ptim::ham
