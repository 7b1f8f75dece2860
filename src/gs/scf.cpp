#include "gs/scf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gs/davidson.hpp"
#include "ham/density.hpp"
#include "la/mixer.hpp"
#include "occ/fermi.hpp"
#include "pw/wavefunction.hpp"

namespace ptim::gs {

namespace {

la::MatC random_guess(size_t npw, size_t nb, const std::vector<real_t>& kin,
                      unsigned seed) {
  // Random coefficients damped by the kinetic energy so the guess already
  // lives mostly in the low-energy part of the basis.
  Rng rng(seed);
  la::MatC x(npw, nb);
  for (size_t j = 0; j < nb; ++j)
    for (size_t i = 0; i < npw; ++i)
      x(i, j) = rng.uniform_cplx() / (1.0 + kin[i]);
  return x;
}

real_t rho_distance(const std::vector<real_t>& a, const std::vector<real_t>& b,
                    real_t dvol) {
  real_t acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const real_t d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc * dvol);
}

// One density-convergence loop with the current exchange configuration.
// Returns the SCF iteration count used. converged: the density met tol_rho
// and the last eigensolve met davidson_tol.
int density_loop(ham::Hamiltonian& h, const ScfOptions& opt, la::MatC& phi,
                 std::vector<real_t>& eps, std::vector<real_t>& occ,
                 std::vector<real_t>& rho, real_t& mu, bool& converged) {
  const real_t kt = opt.temperature_k * units::kboltz_ha_per_k;
  const pw::SphereGridMap& dmap = h.den_map();
  la::AndersonMixerReal mixer(rho.size(), opt.mix_history, opt.mix_beta);

  auto apply = [&](const la::MatC& in, la::MatC& out) { h.apply(in, out); };
  const std::vector<real_t> kin = h.kinetic_diag();

  converged = false;
  int it = 0;
  while (it < opt.max_scf) {
    ++it;
    h.set_density(rho);

    DavidsonOptions dopt;
    dopt.max_iter = opt.davidson_iter;
    dopt.tol = opt.davidson_tol;
    const DavidsonResult dr = davidson(apply, phi, kin, dopt);
    phi = dr.x;
    eps = dr.eps;

    mu = kt > 0.0 ? occ::find_mu(eps, opt.nelec, kt)
                  : 0.5 * (eps[static_cast<size_t>(opt.nelec / 2.0) - 1] +
                           eps[static_cast<size_t>(opt.nelec / 2.0)]);
    occ = occ::occupations(eps, mu, kt);

    std::vector<real_t> rho_out = ham::density_diag(phi, occ, dmap);
    const real_t drho =
        rho_distance(rho, rho_out, h.den_grid().dvol()) / opt.nelec;
    if (opt.verbose)
      std::fprintf(stderr, "  scf it=%d drho=%.3e eps0=%.6f mu=%.6f\n", it,
                   drho, eps[0], mu);
    if (drho < opt.tol_rho) {
      rho = std::move(rho_out);
      converged = dr.converged;
      break;
    }
    std::vector<real_t> f(rho.size());
    for (size_t i = 0; i < f.size(); ++i) f[i] = rho_out[i] - rho[i];
    rho = mixer.mix(rho, f);
    // Clip tiny negative mixing artifacts.
    for (auto& v : rho) v = std::max(v, 0.0);
  }
  return it;
}

}  // namespace

ScfResult ground_state(ham::Hamiltonian& h, ScfOptions opt) {
  ScopedTimer t("gs.scf");
  PTIM_CHECK_MSG(opt.nbands > 0 && opt.nelec > 0.0,
                 "ground_state: nbands and nelec must be set");
  PTIM_CHECK_MSG(2.0 * static_cast<real_t>(opt.nbands) >= opt.nelec,
                 "ground_state: not enough bands for the electron count");

  ScfResult res;
  const size_t npw = h.sphere().npw();
  const std::vector<real_t> kin = h.kinetic_diag();

  // Uniform initial density carrying the right electron count.
  const real_t omega = h.den_grid().lattice().volume();
  res.rho.assign(h.den_grid().size(), opt.nelec / omega);
  res.phi = random_guess(npw, opt.nbands, kin, opt.seed);
  pw::orthonormalize_lowdin(res.phi);

  // Stage 1: semilocal SCF. In hybrid runs this only preconditions the
  // ACE stage, so it is capped and allowed to stay slightly unconverged
  // (finite-T LDA on small metallic cells can slosh at the 1e-3 level).
  h.set_exchange_mode(ham::ExchangeMode::kNone);
  bool conv = false;
  ScfOptions stage1 = opt;
  if (h.hybrid()) {
    stage1.max_scf = std::min(stage1.max_scf, 40);
    stage1.tol_rho = std::max(stage1.tol_rho, real_t(1e-5));
  }
  res.scf_iterations = density_loop(h, stage1, res.phi, res.eps, res.occ,
                                    res.rho, res.mu, conv);
  res.converged = conv;

  // Stage 2: hybrid outer ACE loop.
  if (h.hybrid()) {
    res.outer_converged = false;
    real_t efock_prev = 0.0;
    for (int outer = 1; outer <= opt.max_outer_ace; ++outer) {
      ++res.outer_iterations;
      // Build W = alpha*Vx*Phi (batched exchange path) and compress.
      h.set_ace(ham::AceOperator::build_diag(h.exchange_op(), res.phi,
                                             res.occ));

      res.scf_iterations += density_loop(h, opt, res.phi, res.eps, res.occ,
                                         res.rho, res.mu, conv);
      // Convergence is judged by the inner density loop; the outer test
      // below only decides when the exchange operator stops moving.
      res.converged = conv;

      const real_t efock = h.exchange_op().energy_diag(res.phi, res.occ);
      const real_t change = std::abs(efock - efock_prev);
      if (opt.verbose)
        std::fprintf(stderr, " hybrid outer=%d Efock=%.8f dE=%.2e\n", outer,
                     efock, change);
      efock_prev = efock;
      if (outer > 1 && change < opt.tol_fock) {
        res.outer_converged = true;
        break;
      }
    }
  }

  h.set_density(res.rho);
  la::MatC sigma(opt.nbands, opt.nbands);
  for (size_t i = 0; i < opt.nbands; ++i) sigma(i, i) = res.occ[i];
  res.energy = h.energy(res.phi, sigma, res.rho);
  return res;
}

}  // namespace ptim::gs
