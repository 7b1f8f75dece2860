#include "td/ptim_dist.hpp"

#include <cmath>

#include "common/timer.hpp"
#include "dist/mixer_dist.hpp"
#include "dist/rotate.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/util.hpp"
#include "td/pack.hpp"

namespace ptim::td {

using detail::flatten;
using detail::unflatten;

DistTdState scatter_state(const TdState& s, const dist::BlockLayout& bands,
                          int rank) {
  DistTdState d;
  d.phi_local = dist::scatter_bands(s.phi, bands, rank);
  d.sigma = s.sigma;
  d.time = s.time;
  return d;
}

TdState gather_state(ptmpi::Comm& c, const DistTdState& s,
                     const dist::BlockLayout& bands) {
  TdState full;
  full.phi = dist::gather_bands(c, s.phi_local, bands);
  full.sigma = s.sigma;
  full.time = s.time;
  return full;
}

DistPtImPropagator::DistPtImPropagator(dist::BandDistributedHamiltonian& h,
                                       PtImOptions opt,
                                       const LaserPulse* laser)
    : h_(&h), opt_(opt), laser_(laser) {
  // The policy reaches the ring through the rank-local exchange operator:
  // FP32 slabs circulate while sigma/overlap Allreduces stay FP64, so the
  // distributed trajectory remains bit-identical across ranks.
  if (opt_.exchange_precision)
    h_->local().set_exchange_precision(*opt_.exchange_precision);
  // ISDF compression reaches the rank-local operator the same way; the
  // band-parallel fit (dist/isdf_dist) then replaces the slab circulation
  // with deterministically Allreduced Gram blocks.
  if (opt_.exchange_compression)
    h_->local().set_exchange_compression(*opt_.exchange_compression);
  if (opt_.isdf_rank_factor)
    h_->local().set_isdf_rank_factor(*opt_.isdf_rank_factor);
}

void DistPtImPropagator::configure_exchange_midpoint(
    const la::MatC& phih_local, const la::MatC& sigmah, la::MatC theta_local) {
  if (!opt_.hybrid) {
    h_->set_exchange_none();
    return;
  }
  switch (opt_.variant) {
    case PtImVariant::kBaseline:
      // Reuses the theta = Phi*sigma block the density pass circulated.
      h_->set_exchange_source_mixed_naive(phih_local, sigmah,
                                          std::move(theta_local));
      if (stats_) ++stats_->exchange_applications;
      break;
    case PtImVariant::kDiag:
      h_->set_exchange_source_mixed_diag(phih_local, sigmah);
      if (stats_) ++stats_->exchange_applications;
      break;
    case PtImVariant::kAce:
      // ACE is configured by step(); nothing to refresh per inner iteration.
      break;
  }
}

int DistPtImPropagator::fixed_point(const DistTdState& start, la::MatC& phi1,
                                    la::MatC& sigma1, real_t t_half,
                                    real_t* residual_out) {
  const la::MatC& phin = start.phi_local;
  const la::MatC& sigman = start.sigma;
  const size_t npw = phin.rows();
  const size_t nloc = phin.cols();
  const size_t nb = sigman.rows();
  const real_t dt = opt_.dt;
  const cplx idt{0.0, dt};

  dist::DistAndersonMixer mixer(h_->comm(), npw * nloc, nb * nb,
                                opt_.anderson_history, opt_.anderson_beta);
  if (laser_)
    h_->local().set_vector_potential(laser_->vector_potential(t_half));

  la::MatC phih(npw, nloc), sigmah(nb, nb), hphi(npw, nloc);
  la::MatC x(nb, nb);
  std::vector<cplx> xv, fv;

  int it = 1;
  for (; it <= opt_.max_scf; ++it) {
    // Midpoints (paper Eq. 4).
    for (size_t i = 0; i < phih.size(); ++i)
      phih.data()[i] = 0.5 * (phi1.data()[i] + phin.data()[i]);
    for (size_t i = 0; i < sigmah.size(); ++i)
      sigmah.data()[i] = 0.5 * (sigma1.data()[i] + sigman.data()[i]);
    la::hermitize(sigmah);

    // Midpoint density and Hamiltonian (Eq. 5); rho is Allreduced, so every
    // rank's local Hamiltonian sees identical potentials.
    la::MatC theta;
    const std::vector<real_t> rho = h_->density(phih, sigmah, &theta);
    h_->set_density(rho);
    configure_exchange_midpoint(phih, sigmah, std::move(theta));
    h_->apply(phih, hphi);

    // Overlap S = Phi_h^H Phi_h and M = Phi_h^H H Phi_h (replicated), from
    // one band->grid transpose of each block.
    la::MatC s, m;
    h_->overlap_pair(phih, hphi, &s, &m);

    // Projector part: P~ H Phi_h = Phi_h S^{-1} M.
    x = m;
    const la::MatC l = la::cholesky(s);
    la::cholesky_solve(l, x);
    const la::MatC proj = h_->rotate(phih, x);

    // Updates (Eq. 6).
    la::MatC phi_new(npw, nloc), sigma_new(nb, nb);
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

    // Residual of the fixed point: Phi part reduced over ranks, sigma part
    // (replicated) added once after the reduction.
    real_t acc[2] = {0.0, 0.0};
    for (size_t i = 0; i < phi_new.size(); ++i) {
      acc[0] += std::norm(phi_new.data()[i] - phi1.data()[i]);
      acc[1] += std::norm(phi1.data()[i]);
    }
    h_->comm().allreduce_sum(acc, 2);
    real_t rnum = acc[0], rden = acc[1];
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

real_t DistPtImPropagator::build_ace_from(const la::MatC& phi_local,
                                          const la::MatC& sigma,
                                          ham::IsdfPointHold* hold) {
  ScopedTimer t("ptim.ace_prepare_dist");
  const real_t ex = h_->build_ace(phi_local, sigma, hold);
  if (stats_) ++stats_->exchange_applications;
  return ex;
}

PtImStepStats DistPtImPropagator::step(DistTdState& s) {
  ScopedTimer timer("td.ptim_step_dist");
  PtImStepStats stats;
  stats_ = &stats;

  const real_t t_half = s.time + 0.5 * opt_.dt;
  la::MatC phi1 = s.phi_local;
  la::MatC sigma1 = s.sigma;

  if (opt_.variant == PtImVariant::kAce && opt_.hybrid) {
    // First inner SCF runs with the ACE built at t_n (Fig. 4b).
    real_t ex_prev = build_ace_from(s.phi_local, s.sigma);
    real_t res = 0.0;
    // ISDF points of the first midpoint build, held for the rest of the
    // step and released when the step returns (or throws).
    ham::IsdfPointHold isdf_points;
    for (int outer = 1; outer <= opt_.max_outer; ++outer) {
      ++stats.outer_iterations;
      stats.scf_iterations += fixed_point(s, phi1, sigma1, t_half, &res);
      // Rebuild ACE from the converged midpoint state.
      la::MatC phih(phi1.rows(), phi1.cols()), sigmah(sigma1.rows(),
                                                      sigma1.cols());
      for (size_t i = 0; i < phih.size(); ++i)
        phih.data()[i] = 0.5 * (phi1.data()[i] + s.phi_local.data()[i]);
      for (size_t i = 0; i < sigmah.size(); ++i)
        sigmah.data()[i] = 0.5 * (sigma1.data()[i] + s.sigma.data()[i]);
      const real_t ex =
          build_ace_from(phih, sigmah, outer == 1 ? &isdf_points : nullptr);
      const real_t dex = std::abs(ex - ex_prev);
      ex_prev = ex;
      stats.outer_converged = dex < opt_.tol_fock;
      if (stats.outer_converged) break;
    }
    stats.residual = res;
    stats.converged = res < opt_.tol;
  } else {
    stats.outer_iterations = 1;
    stats.outer_converged = true;
    real_t res = 0.0;
    stats.scf_iterations = fixed_point(s, phi1, sigma1, t_half, &res);
    stats.residual = res;
    stats.converged = res < opt_.tol;
  }

  // Alg. 1 line 13: orthogonalize Phi, conjugate-symmetrize sigma. The
  // congruence sigma -> L^H sigma L keeps P = Phi sigma Phi^H invariant.
  la::MatC sfinal = h_->overlap(phi1, phi1);
  const la::MatC l = la::cholesky(sfinal);
  phi1 = h_->solve_upper_right(l, phi1);  // Phi <- Phi L^{-H}
  la::MatC tmp(sigma1.rows(), sigma1.cols());
  la::gemm('C', 'N', 1.0, l, sigma1, 0.0, tmp);  // L^H sigma
  la::gemm_nn(tmp, l, sigma1);                   // (L^H sigma) L
  la::hermitize(sigma1);

  s.phi_local = std::move(phi1);
  s.sigma = std::move(sigma1);
  s.time += opt_.dt;
  stats_ = nullptr;
  return stats;
}

}  // namespace ptim::td
