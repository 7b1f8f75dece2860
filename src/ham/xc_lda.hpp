#pragma once
// LDA exchange-correlation, Perdew–Zunger 1981 parameterization of the
// Ceperley–Alder electron gas (unpolarized). The paper's HSE06 uses PBE as
// the semilocal part; we substitute LDA (see the README, "Layout") — the
// hybrid's cost driver, the screened Fock operator, is unchanged.

#include <vector>

#include "common/types.hpp"

namespace ptim::ham {

struct XcResult {
  real_t exc_density;  // eps_xc(rho) * rho at this point (energy density)
  real_t vxc;          // d(rho*eps_xc)/d(rho)
};

XcResult lda_pz81(real_t rho);

// Vectorized evaluation: fills vxc and returns integral rho*eps_xc dvol.
real_t lda_pz81_eval(const std::vector<real_t>& rho, real_t dvol,
                     std::vector<real_t>& vxc);

}  // namespace ptim::ham
