#include "dist/band_ham.hpp"

#include "common/timer.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/isdf_dist.hpp"
#include "dist/rotate.hpp"
#include "dist/transpose.hpp"
#include "ham/density.hpp"

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

la::AndersonMixer::Reduction BandDistributedHamiltonian::reduction() {
  ptmpi::Comm* c = c_;
  return [c](real_t* v, size_t n) { c->allreduce_sum(v, n); };
}

la::MatC BandDistributedHamiltonian::diag_exchange(
    const la::MatC& src_local, const std::vector<real_t>& occ,
    const la::MatC& tgt_local) {
  if (gridctx_) {
    PTIM_CHECK_MSG(
        h_->exchange_op().options().compression !=
            ham::ExchangeCompression::kIsdf,
        "ISDF exchange compression requires a pure band-parallel layout "
        "(process_grid.pg == 1); the slab-distributed grid path (pg > 1) "
        "does not support kIsdf yet");
    return exchange_apply_slab_local(*gridctx_, h_->exchange_op(), src_local,
                                     occ, tgt_local, bands_, opt_.pattern);
  }
  return exchange_apply_distributed_local(*c_, h_->exchange_op(), src_local,
                                          occ, tgt_local, bands_, opt_.pattern);
}

la::MatC BandDistributedHamiltonian::mixed_exchange(
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

void BandDistributedHamiltonian::solve_upper_right(const la::MatC& l,
                                                   la::MatC& a_local) {
  a_local = solve_upper_right_distributed(*c_, l, a_local, bands_, rows_);
}

std::vector<real_t> BandDistributedHamiltonian::band_density(
    const la::MatC& phi_local, const la::MatC& sigma, la::MatC* theta_out) {
  ScopedTimer t("density.sigma");
  la::MatC theta_local = rotate(phi_local, sigma);
  std::vector<real_t> rho =
      ham::density_theta(phi_local, theta_local, h_->den_map());
  c_->allreduce_sum(rho.data(), rho.size());
  if (theta_out) *theta_out = std::move(theta_local);
  return rho;
}

void BandDistributedHamiltonian::set_density(const la::MatC& phi_local,
                                             const la::MatC& sigma, bool) {
  h_->set_density(band_density(phi_local, sigma, &theta_local_));
}

void BandDistributedHamiltonian::set_exchange_mixed(const la::MatC& phi_local,
                                                    const la::MatC&) {
  // Reuses the theta = Phi sigma block the density pass circulated.
  PTIM_CHECK(theta_local_.same_shape(phi_local));
  xsrc_local_ = phi_local;
  xmode_ = BandExchangeMode::kMixedNaive;
}

void BandDistributedHamiltonian::set_exchange_diag(la::MatC rotated_local,
                                                   std::vector<real_t> occ) {
  PTIM_CHECK(occ.size() == bands_.total());
  xsrc_local_ = std::move(rotated_local);
  xocc_ = std::move(occ);
  xmode_ = BandExchangeMode::kMixedDiag;
}

void BandDistributedHamiltonian::exchange_diag(const la::MatC& src_local,
                                               const std::vector<real_t>& occ,
                                               la::MatC& w_local) {
  w_local = diag_exchange(src_local, occ, src_local);
}

void BandDistributedHamiltonian::set_ace(const la::MatC& src_local,
                                         const la::MatC& w_local) {
  const la::MatC l = ham::AceOperator::factor(overlap(src_local, w_local));
  xi_local_ = solve_upper_right_distributed(*c_, l, w_local, bands_, rows_);
  xmode_ = BandExchangeMode::kAce;
}

ham::IsdfPointHold BandDistributedHamiltonian::hold_isdf_points(
    const la::MatC& src_local, const std::vector<real_t>& occ) {
  return h_->hold_isdf_points(isdf_select_distributed(
      *c_, h_->exchange_op(), src_local, occ, src_local, bands_));
}

std::vector<real_t> BandDistributedHamiltonian::density(const td::TdState& s) {
  return band_density(s.phi, s.sigma, nullptr);
}

td::TdState BandDistributedHamiltonian::gather(const td::TdState& s) {
  return td::gather_state(*c_, s, bands_);
}

void BandDistributedHamiltonian::apply(const la::MatC& phi_local,
                                       la::MatC& hphi_local) {
  h_->apply_semilocal(phi_local, hphi_local);
  switch (xmode_) {
    case BandExchangeMode::kNone:
      break;
    case BandExchangeMode::kMixedNaive: {
      const la::MatC vx = mixed_exchange(xsrc_local_, theta_local_, phi_local);
      for (size_t i = 0; i < hphi_local.size(); ++i)
        hphi_local.data()[i] += vx.data()[i];
      break;
    }
    case BandExchangeMode::kMixedDiag: {
      const la::MatC vx = diag_exchange(xsrc_local_, xocc_, phi_local);
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
