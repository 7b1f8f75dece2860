#include "td/ptim.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "ham/density.hpp"
#include "ham/isdf.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/mixer.hpp"
#include "la/util.hpp"
#include "pw/wavefunction.hpp"
#include "td/pack.hpp"

namespace ptim::td {

using detail::flatten;
using detail::unflatten;

PtImPropagator::PtImPropagator(ham::Hamiltonian& h, PtImOptions opt,
                               const LaserPulse* laser)
    : h_(&h), opt_(opt), laser_(laser) {
  if (opt_.exchange_precision)
    h_->set_exchange_precision(*opt_.exchange_precision);
  if (opt_.exchange_compression)
    h_->set_exchange_compression(*opt_.exchange_compression);
  if (opt_.isdf_rank_factor) h_->set_isdf_rank_factor(*opt_.isdf_rank_factor);
}

void PtImPropagator::configure_exchange_midpoint(const la::MatC& phih,
                                                 la::MatC sigmah) {
  if (!opt_.hybrid) {
    h_->set_exchange_mode(ham::ExchangeMode::kNone);
    return;
  }
  switch (opt_.variant) {
    case PtImVariant::kBaseline:
      h_->set_exchange_mode(ham::ExchangeMode::kExactNaive);
      h_->set_exchange_source_mixed(phih, std::move(sigmah));
      if (stats_) ++stats_->exchange_applications;
      break;
    case PtImVariant::kDiag:
      h_->set_exchange_mode(ham::ExchangeMode::kExactDiag);
      h_->set_exchange_source_mixed(phih, std::move(sigmah));
      if (stats_) ++stats_->exchange_applications;
      break;
    case PtImVariant::kAce:
      // ACE is configured by step(); nothing to refresh per inner iteration.
      break;
  }
}

int PtImPropagator::fixed_point(const TdState& start, la::MatC& phi1,
                                la::MatC& sigma1, real_t t_half,
                                real_t* residual_out) {
  const la::MatC& phin = start.phi;
  const la::MatC& sigman = start.sigma;
  const size_t npw = phin.rows();
  const size_t nb = phin.cols();
  const real_t dt = opt_.dt;
  const cplx idt{0.0, dt};

  la::AndersonMixer mixer(npw * nb + nb * nb, opt_.anderson_history,
                          opt_.anderson_beta);
  if (laser_) h_->set_vector_potential(laser_->vector_potential(t_half));

  la::MatC phih(npw, nb), sigmah(nb, nb), hphi(npw, nb);
  la::MatC m(nb, nb), s(nb, nb), x(nb, nb), proj(npw, nb);
  std::vector<cplx> xv, fv;

  int it = 1;
  for (; it <= opt_.max_scf; ++it) {
    // Midpoints (paper Eq. 4).
    for (size_t i = 0; i < phih.size(); ++i)
      phih.data()[i] = 0.5 * (phi1.data()[i] + phin.data()[i]);
    for (size_t i = 0; i < sigmah.size(); ++i)
      sigmah.data()[i] = 0.5 * (sigma1.data()[i] + sigman.data()[i]);
    la::hermitize(sigmah);

    // Midpoint density and Hamiltonian (Eq. 5).
    const std::vector<real_t> rho =
        (opt_.variant == PtImVariant::kBaseline)
            ? ham::density_sigma_naive(phih, sigmah, h_->den_map())
            : ham::density_sigma(phih, sigmah, h_->den_map());
    h_->set_density(rho);
    configure_exchange_midpoint(phih, sigmah);
    h_->apply(phih, hphi);

    // M = Phi_h^H H Phi_h ; overlap S = Phi_h^H Phi_h.
    la::gemm_cn(phih, hphi, m);
    la::gemm_cn(phih, phih, s);

    // Projector part: P~ H Phi_h = Phi_h S^{-1} M.
    x = m;
    const la::MatC l = la::cholesky(s);
    la::cholesky_solve(l, x);
    la::gemm_nn(phih, x, proj);

    // Updates (Eq. 6).
    la::MatC phi_new(npw, nb), sigma_new(nb, nb);
    for (size_t i = 0; i < phi_new.size(); ++i)
      phi_new.data()[i] =
          phin.data()[i] - idt * (hphi.data()[i] - proj.data()[i]);
    if (opt_.evolve_sigma) {
      la::MatC msh(nb, nb), shm(nb, nb);
      la::gemm_nn(m, sigmah, msh);
      la::gemm_nn(sigmah, m, shm);
      for (size_t i = 0; i < sigma_new.size(); ++i)
        sigma_new.data()[i] =
            sigman.data()[i] - idt * (msh.data()[i] - shm.data()[i]);
    } else {
      sigma_new = sigman;  // PT-CN: occupations frozen
    }

    // Residual of the fixed point.
    real_t rnum = 0.0, rden = 0.0;
    for (size_t i = 0; i < phi_new.size(); ++i) {
      rnum += std::norm(phi_new.data()[i] - phi1.data()[i]);
      rden += std::norm(phi1.data()[i]);
    }
    for (size_t i = 0; i < sigma_new.size(); ++i) {
      rnum += std::norm(sigma_new.data()[i] - sigma1.data()[i]);
      rden += std::norm(sigma1.data()[i]);
    }
    const real_t res = std::sqrt(rnum / std::max(rden, real_t(1e-30)));
    if (residual_out) *residual_out = res;
    if (res < opt_.tol) {
      phi1 = std::move(phi_new);
      sigma1 = std::move(sigma_new);
      break;
    }

    // Anderson mixing of the combined unknowns (Alg. 1 line 8).
    flatten(phi1, sigma1, xv);
    fv.resize(xv.size());
    for (size_t i = 0; i < phi1.size(); ++i)
      fv[i] = phi_new.data()[i] - phi1.data()[i];
    for (size_t i = 0; i < sigma1.size(); ++i)
      fv[phi1.size() + i] = sigma_new.data()[i] - sigma1.data()[i];
    const std::vector<cplx> next = mixer.mix(xv, fv);
    unflatten(next, phi1, sigma1);
  }
  return it;
}

// Alg. 1 line 13: orthogonalize Phi, conjugate-symmetrize sigma. The
// congruence sigma -> L^H sigma L keeps P = Phi sigma Phi^H invariant.
static void orthonormalize_commit(TdState& s, la::MatC phi1, la::MatC sigma1,
                                  real_t dt) {
  la::MatC sfinal = pw::overlap(phi1, phi1);
  const la::MatC l = la::cholesky(sfinal);
  la::solve_upper_right(l, phi1);  // Phi <- Phi L^{-H}
  la::MatC tmp(sigma1.rows(), sigma1.cols());
  la::gemm('C', 'N', 1.0, l, sigma1, 0.0, tmp);  // L^H sigma
  la::gemm_nn(tmp, l, sigma1);                   // (L^H sigma) L
  la::hermitize(sigma1);

  s.phi = std::move(phi1);
  s.sigma = std::move(sigma1);
  s.time += dt;
}

void PtImPropagator::stage_ace_sources(StepSession& sess, const la::MatC& phi,
                                       la::MatC sigma) const {
  ScopedTimer t("ptim.ace_prepare");
  la::hermitize(sigma);
  const auto eig = la::eig_herm(sigma);
  sess.ace_phi.resize(phi.rows(), phi.cols());
  la::gemm_nn(phi, eig.V, sess.ace_phi);
  sess.ace_occ = eig.w;
}

PtImPropagator::StepSession PtImPropagator::step_begin(const TdState& s) {
  PTIM_CHECK_MSG(opt_.variant == PtImVariant::kAce && opt_.hybrid,
                 "staged stepping is defined for the kAce hybrid variant");
  StepSession sess;
  sess.t_half = s.time + 0.5 * opt_.dt;
  sess.phi1 = s.phi;
  sess.sigma1 = s.sigma;
  // First inner SCF runs with the ACE built at t_n (Fig. 4b).
  stage_ace_sources(sess, s.phi, s.sigma);
  return sess;
}

bool PtImPropagator::step_advance(const TdState& s, StepSession& sess,
                                  const la::MatC& w) {
  // Install the ACE surrogate compressed from the staged sources and their
  // freshly applied exchange W (applied by the caller), and estimate the
  // Fock energy.
  ham::AceOperator ace = ham::AceOperator::build(sess.ace_phi, w);
  ++sess.stats.exchange_applications;
  real_t ex = 0.0;
  for (size_t b = 0; b < sess.ace_phi.cols(); ++b)
    ex += sess.ace_occ[b] *
          std::real(la::dotc(sess.ace_phi.rows(), sess.ace_phi.col(b),
                             w.col(b)));
  h_->set_ace(std::move(ace));

  if (sess.outer == 0) {
    sess.ex_prev = ex;  // the t_n build: no convergence check yet
  } else {
    const real_t dex = std::abs(ex - sess.ex_prev);
    sess.ex_prev = ex;
    sess.stats.outer_converged = dex < opt_.tol_fock;
    if (sess.stats.outer_converged || sess.outer >= opt_.max_outer)
      return false;
  }

  ++sess.stats.outer_iterations;
  stats_ = &sess.stats;
  sess.stats.scf_iterations +=
      fixed_point(s, sess.phi1, sess.sigma1, sess.t_half, &sess.residual);
  stats_ = nullptr;
  ++sess.outer;

  // Rebuild ACE from the converged midpoint state.
  la::MatC phih(sess.phi1.rows(), sess.phi1.cols());
  la::MatC sigmah(sess.sigma1.rows(), sess.sigma1.cols());
  for (size_t i = 0; i < phih.size(); ++i)
    phih.data()[i] = 0.5 * (sess.phi1.data()[i] + s.phi.data()[i]);
  for (size_t i = 0; i < sigmah.size(); ++i)
    sigmah.data()[i] = 0.5 * (sess.sigma1.data()[i] + s.sigma.data()[i]);
  stage_ace_sources(sess, phih, std::move(sigmah));
  // ISDF: the first midpoint build selects its points once more and every
  // later build of the step fits on that set, so successive Fock energies
  // differ by the iterate alone, not by a new point set.
  if (sess.outer == 1 &&
      h_->exchange_compression() == ham::ExchangeCompression::kIsdf) {
    const ham::ExchangeOperator& xop = h_->exchange_op();
    const la::MatC ace_real = ham::isdf::to_real_policy(xop, sess.ace_phi);
    sess.isdf_points = h_->hold_isdf_points(
        ham::isdf::select_diag(xop, ace_real, sess.ace_occ, ace_real));
  }
  return true;
}

PtImStepStats PtImPropagator::step_finish(TdState& s, StepSession& sess) {
  sess.isdf_points.release();
  sess.stats.residual = sess.residual;
  sess.stats.converged = sess.residual < opt_.tol;
  orthonormalize_commit(s, std::move(sess.phi1), std::move(sess.sigma1),
                        opt_.dt);
  if (hook_) hook_(s, sess.stats);
  return sess.stats;
}

PtImStepStats PtImPropagator::step(TdState& s) {
  ScopedTimer timer("td.ptim_step", obs::Cat::kStep);

  if (opt_.variant == PtImVariant::kAce && opt_.hybrid) {
    // The ACE double loop, driven through the staged protocol (so the
    // golden-trajectory suite pins the same code the ensemble driver
    // batches): each round applies exchange to the staged sources, then
    // step_advance installs the ACE and runs the inner fixed point.
    StepSession sess = step_begin(s);
    la::MatC w;
    do {
      w.resize(sess.ace_phi.rows(), sess.ace_phi.cols());
      h_->exchange_op().apply_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi,
                                   w, false);
    } while (step_advance(s, sess, w));
    return step_finish(s, sess);
  }

  PtImStepStats stats;
  stats_ = &stats;
  const real_t t_half = s.time + 0.5 * opt_.dt;
  la::MatC phi1 = s.phi;
  la::MatC sigma1 = s.sigma;

  stats.outer_iterations = 1;
  stats.outer_converged = true;
  real_t res = 0.0;
  stats.scf_iterations = fixed_point(s, phi1, sigma1, t_half, &res);
  stats.residual = res;
  stats.converged = res < opt_.tol;

  orthonormalize_commit(s, std::move(phi1), std::move(sigma1), opt_.dt);
  stats_ = nullptr;
  if (hook_) hook_(s, stats);
  return stats;
}

}  // namespace ptim::td
