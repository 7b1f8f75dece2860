#include "dist/band_ham.hpp"

#include <algorithm>
#include <cmath>

#include "dist/exchange_dist.hpp"
#include "dist/isdf_dist.hpp"
#include "dist/rotate.hpp"
#include "dist/transpose.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"

namespace ptim::dist {

BandDistributedHamiltonian::BandDistributedHamiltonian(ptmpi::Comm& c,
                                                       ham::Hamiltonian& h,
                                                       size_t nbands,
                                                       BandHamOptions opt)
    : gridctx_(opt.grid.pg > 1
                   ? std::make_unique<GridContext>(c, opt.grid,
                                                   h.exchange_op().map())
                   : nullptr),
      c_(gridctx_ ? &gridctx_->band() : &c),
      h_(&h),
      bands_(nbands, c_->size()),
      rows_(h.sphere().npw(), c_->size()),
      opt_(opt) {
  // Validate the layout in every mode (pg == 1 included), so an
  // explicitly-set but inconsistent ProcessGrid is rejected rather than
  // silently ignored. The GridContext path has already checked pg > 1.
  if (!gridctx_) (void)opt_.grid.resolve_pb(c.size());
  // Exchange is applied by this layer; the local Hamiltonian only ever
  // contributes kinetic/local/nonlocal terms.
  h_->set_exchange_mode(ham::ExchangeMode::kNone);
}

la::MatC BandDistributedHamiltonian::exchange_diag(
    const la::MatC& src_local, const std::vector<real_t>& d_local,
    const la::MatC& tgt_local) {
  if (gridctx_) {
    PTIM_CHECK_MSG(
        h_->exchange_op().options().compression !=
            ham::ExchangeCompression::kIsdf,
        "ISDF exchange compression requires a pure band-parallel layout "
        "(process_grid.pg == 1); the slab-distributed grid path (pg > 1) "
        "does not support kIsdf yet");
    return exchange_apply_slab_local(*gridctx_, h_->exchange_op(), src_local,
                                     d_local, tgt_local, bands_, opt_.pattern);
  }
  return exchange_apply_distributed_local(*c_, h_->exchange_op(), src_local,
                                          d_local, tgt_local, bands_,
                                          opt_.pattern);
}

la::MatC BandDistributedHamiltonian::exchange_mixed(
    const la::MatC& src_local, const la::MatC& theta_local,
    const la::MatC& tgt_local) {
  if (gridctx_)
    return exchange_apply_slab_mixed_local(*gridctx_, h_->exchange_op(),
                                           src_local, theta_local, tgt_local,
                                           bands_, opt_.pattern);
  return exchange_apply_distributed_mixed_local(*c_, h_->exchange_op(),
                                                src_local, theta_local,
                                                tgt_local, bands_,
                                                opt_.pattern);
}

la::MatC BandDistributedHamiltonian::overlap(const la::MatC& a_local,
                                             const la::MatC& b_local) {
  // Paper Fig. 1: band -> grid transpose (Alltoallv), partial gemm over the
  // local row slab, then one Allreduce (optionally SHM-staged, Fig. 6).
  const la::MatC ga = band_to_grid(*c_, a_local, bands_, rows_);
  if (&a_local == &b_local)
    return overlap_distributed(*c_, ga, ga, opt_.overlap_shm);
  const la::MatC gb = band_to_grid(*c_, b_local, bands_, rows_);
  return overlap_distributed(*c_, ga, gb, opt_.overlap_shm);
}

void BandDistributedHamiltonian::overlap_pair(const la::MatC& a_local,
                                              const la::MatC& b_local,
                                              la::MatC* aa, la::MatC* ab) {
  const la::MatC ga = band_to_grid(*c_, a_local, bands_, rows_);
  const la::MatC gb = band_to_grid(*c_, b_local, bands_, rows_);
  *aa = overlap_distributed(*c_, ga, ga, opt_.overlap_shm);
  *ab = overlap_distributed(*c_, ga, gb, opt_.overlap_shm);
}

la::MatC BandDistributedHamiltonian::rotate(const la::MatC& a_local,
                                            const la::MatC& r) {
  return rotate_bands(*c_, a_local, r, bands_, opt_.pattern);
}

la::MatC BandDistributedHamiltonian::solve_upper_right(
    const la::MatC& l, const la::MatC& a_local) {
  return solve_upper_right_distributed(*c_, l, a_local, bands_, rows_);
}

std::vector<real_t> BandDistributedHamiltonian::density(
    const la::MatC& phi_local, const la::MatC& sigma, la::MatC* theta_out) {
  la::MatC theta_local = rotate(phi_local, sigma);
  const auto& map = h_->den_map();
  const size_t ng = map.grid().size();
  std::vector<real_t> rho(ng, 0.0);
  std::vector<cplx> wphi(ng), wtheta(ng);
  for (size_t b = 0; b < phi_local.cols(); ++b) {
    map.to_real(phi_local.col(b), wphi.data());
    map.to_real(theta_local.col(b), wtheta.data());
#pragma omp parallel for schedule(static)
    for (size_t j = 0; j < ng; ++j)
      rho[j] += 2.0 * std::real(wtheta[j] * std::conj(wphi[j]));
  }
  c_->allreduce_sum(rho.data(), ng);
  if (theta_out) *theta_out = std::move(theta_local);
  return rho;
}

void BandDistributedHamiltonian::set_exchange_source_mixed_naive(
    const la::MatC& phi_local, const la::MatC& sigma, la::MatC theta_local) {
  xsrc_local_ = phi_local;
  xtheta_local_ = theta_local.same_shape(phi_local)
                      ? std::move(theta_local)
                      : rotate(phi_local, sigma);
  xmode_ = BandExchangeMode::kMixedNaive;
}

void BandDistributedHamiltonian::set_exchange_source_mixed_diag(
    const la::MatC& phi_local, la::MatC sigma) {
  // Same sequence as ham::Hamiltonian::set_exchange_source_mixed: hermitize,
  // diagonalize (replicated, so Q is identical on every rank), rotate.
  la::hermitize(sigma);
  const auto eig = la::eig_herm(sigma);
  xsrc_local_ = rotate(phi_local, eig.V);
  xocc_local_.assign(
      eig.w.begin() + static_cast<long>(bands_.offset(c_->rank())),
      eig.w.begin() + static_cast<long>(bands_.offset(c_->rank()) +
                                        bands_.count(c_->rank())));
  xmode_ = BandExchangeMode::kMixedDiag;
}

real_t BandDistributedHamiltonian::build_ace(const la::MatC& phi_local,
                                             la::MatC sigma,
                                             ham::IsdfPointHold* hold) {
  const int me = c_->rank();
  la::hermitize(sigma);
  const auto eig = la::eig_herm(sigma);
  const la::MatC rotated_local = rotate(phi_local, eig.V);
  const std::vector<real_t> occ_local(
      eig.w.begin() + static_cast<long>(bands_.offset(me)),
      eig.w.begin() + static_cast<long>(bands_.offset(me) +
                                        bands_.count(me)));
  if (hold &&
      h_->exchange_compression() == ham::ExchangeCompression::kIsdf)
    *hold = h_->hold_isdf_points(isdf_select_distributed(
        *c_, h_->exchange_op(), rotated_local, eig.w, rotated_local, bands_));

  // W = (alpha Vx) Phi' via the circulating batched-FFT exchange (slab
  // pipeline under the 2-D layout).
  const la::MatC w_local =
      exchange_diag(rotated_local, occ_local, rotated_local);

  // B = -Phi'^H W (+ ridge), Cholesky, xi = W L^{-H} — the serial
  // AceOperator::build arithmetic on replicated small matrices.
  la::MatC b = overlap(rotated_local, w_local);
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = -b.data()[i];
  la::hermitize(b);
  const size_t n = b.rows();
  real_t dmax = 0.0;
  for (size_t i = 0; i < n; ++i) dmax = std::max(dmax, std::real(b(i, i)));
  const real_t ridge = std::max(dmax, real_t(1.0)) * 1e-13;
  for (size_t i = 0; i < n; ++i) b(i, i) += ridge;
  const la::MatC l = la::cholesky(b);
  xi_local_ = solve_upper_right(l, w_local);
  xmode_ = BandExchangeMode::kAce;

  // Exchange-energy estimate sum_b d_b <phi'_b|W_b>: local bands, then the
  // deterministic Allreduce — replicated like every other scalar.
  real_t ex = 0.0;
  for (size_t b2 = 0; b2 < rotated_local.cols(); ++b2)
    ex += occ_local[b2] * std::real(la::dotc(rotated_local.rows(),
                                             rotated_local.col(b2),
                                             w_local.col(b2)));
  c_->allreduce_sum(&ex, 1);
  return ex;
}

void BandDistributedHamiltonian::apply(const la::MatC& phi_local,
                                       la::MatC& hphi_local) {
  h_->apply_semilocal(phi_local, hphi_local);
  switch (xmode_) {
    case BandExchangeMode::kNone:
      break;
    case BandExchangeMode::kMixedNaive: {
      const la::MatC vx = exchange_mixed(xsrc_local_, xtheta_local_, phi_local);
      for (size_t i = 0; i < hphi_local.size(); ++i)
        hphi_local.data()[i] += vx.data()[i];
      break;
    }
    case BandExchangeMode::kMixedDiag: {
      const la::MatC vx = exchange_diag(xsrc_local_, xocc_local_, phi_local);
      for (size_t i = 0; i < hphi_local.size(); ++i)
        hphi_local.data()[i] += vx.data()[i];
      break;
    }
    case BandExchangeMode::kAce: {
      // V_ACE tgt = -xi (xi^H tgt): replicated G = xi^H tgt, then one
      // rotation to form (xi G)[:, my bands].
      const la::MatC g = overlap(xi_local_, phi_local);
      const la::MatC xg = rotate(xi_local_, g);
      for (size_t i = 0; i < hphi_local.size(); ++i)
        hphi_local.data()[i] -= xg.data()[i];
      break;
    }
  }
}

}  // namespace ptim::dist
