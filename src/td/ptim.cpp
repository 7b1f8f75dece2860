#include "td/ptim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"

namespace ptim::td {

PtImPropagator::PtImPropagator(ham::Hamiltonian& h, PtImOptions opt,
                               const LaserPulse* laser)
    : PtImPropagator(serial_space(h), opt, laser) {}

PtImPropagator::PtImPropagator(std::unique_ptr<BandSpace> serial,
                               PtImOptions opt, const LaserPulse* laser)
    : PtImPropagator(*serial, opt, laser) {
  serial_ = std::move(serial);
}

PtImPropagator::PtImPropagator(BandSpace& space, PtImOptions opt,
                               const LaserPulse* laser)
    : space_(&space),
      reduce_(space_->reduction()),
      opt_(opt),
      exchange_(opt.hybrid && space_->local().hybrid()),
      laser_(laser) {
  // The knobs reach the rank's exchange operator: its pair FFTs (and ring
  // slabs) run at this precision while every propagator reduction stays
  // FP64, so band trajectories remain bit-identical across ranks.
  ham::Hamiltonian& h = space_->local();
  if (opt_.exchange_precision)
    h.set_exchange_precision(*opt_.exchange_precision);
  if (opt_.exchange_compression)
    h.set_exchange_compression(*opt_.exchange_compression);
  if (opt_.isdf_rank_factor) h.set_isdf_rank_factor(*opt_.isdf_rank_factor);
}

void PtImPropagator::set_midpoint(const la::MatC& phih,
                                  const la::MatC& sigmah) {
  space_->set_density(phih, sigmah, opt_.variant == PtImVariant::kBaseline);
  if (!exchange_) {
    space_->set_exchange_none();
    return;
  }
  switch (opt_.variant) {
    case PtImVariant::kBaseline:
      space_->set_exchange_mixed(phih, sigmah);
      break;
    case PtImVariant::kDiag: {
      la::MatC rotated;
      std::vector<real_t> occ;
      space_->diagonalize(phih, sigmah, &rotated, &occ);
      space_->set_exchange_diag(std::move(rotated), std::move(occ));
      break;
    }
    case PtImVariant::kAce:
      return;  // the installed ACE surrogate; nothing per inner iteration
  }
  if (stats_) ++stats_->exchange_applications;
}

int PtImPropagator::fixed_point(const TdState& start, la::MatC& phi1,
                                la::MatC& sigma1, real_t t_half,
                                real_t* residual_out) {
  const la::MatC& phin = start.phi;
  const la::MatC& sigman = start.sigma;
  const size_t npw = phin.rows();
  const size_t nloc = phin.cols();
  const size_t nb = sigman.rows();
  const cplx idt{0.0, opt_.dt};

  // Unknowns {Phi block ++ sigma}; only the Phi block is rank-local.
  la::AndersonMixer mixer(phin.size() + sigman.size(), opt_.anderson_history,
                          opt_.anderson_beta, reduce_, phin.size());
  if (laser_)
    space_->local().set_vector_potential(laser_->vector_potential(t_half));

  la::MatC phih(npw, nloc), sigmah(nb, nb), r, m;
  std::vector<cplx> xv(phin.size() + sigman.size()), fv(xv.size());

  int it = 1;
  for (; it <= opt_.max_scf; ++it) {
    // Midpoints (paper Eq. 4).
    for (size_t i = 0; i < phih.size(); ++i)
      phih.data()[i] = 0.5 * (phi1.data()[i] + phin.data()[i]);
    for (size_t i = 0; i < sigmah.size(); ++i)
      sigmah.data()[i] = 0.5 * (sigma1.data()[i] + sigman.data()[i]);
    la::hermitize(sigmah);

    // Midpoint Hamiltonian (Eq. 5); in band runs rho is reduced, so every
    // rank's Hamiltonian sees identical potentials.
    set_midpoint(phih, sigmah);
    // r = H Phi_h - Phi_h S^{-1} M, with S = Phi_h^H Phi_h and
    // M = Phi_h^H H Phi_h (replicated): P~ H Phi_h is the projector part.
    space_->project_midpoint(&r, &m);

    // Updates (Eq. 6).
    la::MatC phi_new(npw, nloc), sigma_new(nb, nb);
    for (size_t i = 0; i < phi_new.size(); ++i)
      phi_new.data()[i] = phin.data()[i] - idt * r.data()[i];
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

    // Residual of the fixed point: Phi part reduced over ranks, sigma part
    // (replicated) added once after the reduction.
    real_t acc[2] = {0.0, 0.0};
    for (size_t i = 0; i < phi_new.size(); ++i) {
      acc[0] += std::norm(phi_new.data()[i] - phi1.data()[i]);
      acc[1] += std::norm(phi1.data()[i]);
    }
    reduce(acc, 2);
    for (size_t i = 0; i < sigma_new.size(); ++i) {
      acc[0] += std::norm(sigma_new.data()[i] - sigma1.data()[i]);
      acc[1] += std::norm(sigma1.data()[i]);
    }
    const real_t res = std::sqrt(acc[0] / std::max(acc[1], real_t(1e-30)));
    if (residual_out) *residual_out = res;
    if (res < opt_.tol) {
      phi1 = std::move(phi_new);
      sigma1 = std::move(sigma_new);
      break;
    }

    // Anderson mixing of the combined unknowns (Alg. 1 line 8).
    const size_t np = phi1.size();
    std::copy(phi1.data(), phi1.data() + np, xv.begin());
    std::copy(sigma1.data(), sigma1.data() + sigma1.size(), xv.begin() + np);
    for (size_t i = 0; i < np; ++i)
      fv[i] = phi_new.data()[i] - phi1.data()[i];
    for (size_t i = 0; i < sigma1.size(); ++i)
      fv[np + i] = sigma_new.data()[i] - sigma1.data()[i];
    const std::vector<cplx> next = mixer.mix(xv, fv);
    std::copy(next.begin(), next.begin() + np, phi1.data());
    std::copy(next.begin() + np, next.end(), sigma1.data());
  }
  return it;
}

void PtImPropagator::stage_ace_sources(StepSession& sess, const la::MatC& phi,
                                       la::MatC sigma) {
  ScopedTimer t("ptim.ace_prepare");
  space_->diagonalize(phi, std::move(sigma), &sess.ace_phi, &sess.ace_occ);
}

PtImPropagator::StepSession PtImPropagator::step_begin(const TdState& s) {
  PTIM_CHECK_MSG(staged(),
                 "staged stepping is defined for the kAce variant with "
                 "exact exchange on");
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
  // Fock energy sum_b d_b <phi'_b|W_b>: this rank's bands, then reduced.
  space_->set_ace(sess.ace_phi, w);
  ++sess.stats.exchange_applications;
  const size_t off = space_->band_offset();
  real_t ex = 0.0;
  for (size_t b = 0; b < sess.ace_phi.cols(); ++b)
    ex += sess.ace_occ[off + b] *
          std::real(la::dotc(sess.ace_phi.rows(), sess.ace_phi.col(b),
                             w.col(b)));
  reduce(&ex, 1);

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
  if (sess.outer == 1 && space_->local().exchange_compression() ==
                             ham::ExchangeCompression::kIsdf)
    sess.isdf_points = space_->hold_isdf_points(sess.ace_phi, sess.ace_occ);
  return true;
}

PtImStepStats PtImPropagator::step_finish(TdState& s, StepSession& sess) {
  sess.isdf_points.release();
  sess.stats.residual = sess.residual;
  sess.stats.converged = sess.residual < opt_.tol;

  // Alg. 1 line 13: orthogonalize Phi, conjugate-symmetrize sigma. The
  // congruence sigma -> L^H sigma L keeps P = Phi sigma Phi^H invariant.
  la::MatC& phi1 = sess.phi1;
  la::MatC& sigma1 = sess.sigma1;
  const la::MatC l = space_->orthonormalize(phi1);  // Phi <- Phi L^{-H}
  la::MatC tmp(sigma1.rows(), sigma1.cols());
  la::gemm('C', 'N', 1.0, l, sigma1, 0.0, tmp);  // L^H sigma
  la::gemm_nn(tmp, l, sigma1);                   // (L^H sigma) L
  la::hermitize(sigma1);

  s.phi = std::move(phi1);
  s.sigma = std::move(sigma1);
  s.time += opt_.dt;
  return sess.stats;
}

PtImStepStats PtImPropagator::step(TdState& s) {
  ScopedTimer timer("td.ptim_step", obs::Cat::kStep);

  if (staged()) {
    // The ACE double loop, driven through the staged protocol (so the
    // golden-trajectory suite pins the same code the ensemble driver
    // batches): each round applies exchange to the staged sources, then
    // step_advance installs the ACE and runs the inner fixed point.
    StepSession sess = step_begin(s);
    la::MatC w;
    do {
      space_->exchange_diag(sess.ace_phi, sess.ace_occ, w);
    } while (step_advance(s, sess, w));
    return step_finish(s, sess);
  }

  StepSession sess;
  sess.phi1 = s.phi;
  sess.sigma1 = s.sigma;
  sess.stats.outer_iterations = 1;
  sess.stats.outer_converged = true;
  stats_ = &sess.stats;
  sess.stats.scf_iterations = fixed_point(s, sess.phi1, sess.sigma1,
                                          s.time + 0.5 * opt_.dt,
                                          &sess.residual);
  stats_ = nullptr;
  return step_finish(s, sess);
}

}  // namespace ptim::td
