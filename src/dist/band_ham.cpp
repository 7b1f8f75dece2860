#include "dist/band_ham.hpp"

#include "common/timer.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/transpose.hpp"
#include "ham/density.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"

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
  // The node leader of a staged reduction is rank 0 of the band
  // communicator's ranks on that node (MPI_Comm_split_type(SHARED)); a band
  // communicator of the 2-D layout may hold no rank that leads its node in
  // the world.
  if (opt_.overlap_shm) node_.emplace(c_->split(c_->node(), c_->rank()));
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

std::vector<real_t> BandDistributedHamiltonian::band_density(
    const la::MatC& phi_local, const la::MatC& sigma, la::MatC* phi_rows,
    la::MatC* theta_local) {
  ScopedTimer t("density.sigma");
  *phi_rows = band_to_grid(*c_, phi_local, bands_, rows_);
  la::MatC theta_rows(phi_rows->rows(), sigma.cols());
  la::gemm_nn(*phi_rows, sigma, theta_rows);
  *theta_local = grid_to_band(*c_, theta_rows, bands_, rows_);
  std::vector<real_t> rho =
      ham::density_theta(phi_local, *theta_local, h_->den_map());
  c_->allreduce_sum(rho.data(), rho.size());
  return rho;
}

void BandDistributedHamiltonian::set_density(const la::MatC& phi_local,
                                             const la::MatC& sigma, bool) {
  mid_local_ = phi_local;
  h_->set_density(band_density(phi_local, sigma, &mid_rows_, &theta_local_));
}

void BandDistributedHamiltonian::set_exchange_mixed(const la::MatC& phi_local,
                                                    const la::MatC&) {
  // Reuses the theta = Phi sigma block of the density pass.
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
  xi_rows_ = band_to_grid(*c_, w_local, bands_, rows_);
  const la::MatC l = ham::AceOperator::factor(overlap_distributed(
      *c_, band_to_grid(*c_, src_local, bands_, rows_), xi_rows_, node()));
  la::solve_upper_right(l, xi_rows_);  // xi = W L^{-H}
  xmode_ = BandExchangeMode::kAce;
}

std::vector<real_t> BandDistributedHamiltonian::density(const td::TdState& s) {
  la::MatC rows, theta;
  return band_density(s.phi, s.sigma, &rows, &theta);
}

td::TdState BandDistributedHamiltonian::gather(const td::TdState& s) {
  return td::gather_state(*c_, s, bands_);
}

void BandDistributedHamiltonian::project_midpoint(la::MatC* r, la::MatC* m) {
  la::MatC hphi(mid_local_.rows(), mid_local_.cols());
  h_->apply_semilocal(mid_local_, hphi);
  la::MatC vx;
  if (xmode_ == BandExchangeMode::kMixedNaive)
    vx = mixed_exchange(xsrc_local_, theta_local_, mid_local_);
  else if (xmode_ == BandExchangeMode::kMixedDiag)
    vx = diag_exchange(xsrc_local_, xocc_, mid_local_);
  for (size_t i = 0; i < vx.size(); ++i) hphi.data()[i] += vx.data()[i];
  la::MatC hphi_rows = band_to_grid(*c_, hphi, bands_, rows_);

  // The row slab's partial S, M and, under ACE, G = xi^H Phi_h: one
  // reduction for all three.
  const size_t nb = bands_.total();
  la::MatC s(nb, nb), g;
  m->resize(nb, nb);
  la::gemm_cn(mid_rows_, mid_rows_, s);
  la::gemm_cn(mid_rows_, hphi_rows, *m);
  if (xmode_ == BandExchangeMode::kAce) {
    g.resize(xi_rows_.cols(), nb);
    la::gemm_cn(xi_rows_, mid_rows_, g);
    reduce_partials(*c_, node(), {&s, m, &g});
    // V_ACE Phi_h = -xi G, so M = Phi_h^H H_s Phi_h - G^H G.
    la::gemm_nn(xi_rows_, g, hphi_rows, cplx(-1.0), cplx(1.0));
    la::gemm_cn(g, g, *m, cplx(-1.0), cplx(1.0));
  } else {
    reduce_partials(*c_, node(), {&s, m});
  }

  // Projector part: P~ H Phi_h = Phi_h S^{-1} M.
  la::MatC x = *m;
  const la::MatC l = la::cholesky(s);
  la::cholesky_solve(l, x);
  la::MatC proj(hphi_rows.rows(), nb);
  la::gemm_nn(mid_rows_, x, proj);
  for (size_t i = 0; i < proj.size(); ++i)
    hphi_rows.data()[i] -= proj.data()[i];
  *r = grid_to_band(*c_, hphi_rows, bands_, rows_);
}

la::MatC BandDistributedHamiltonian::rotate(const la::MatC& a_local,
                                            const la::MatC& r) {
  return rotate_distributed(*c_, a_local, r, bands_, rows_);
}

la::MatC BandDistributedHamiltonian::orthonormalize(la::MatC& phi_local) {
  la::MatC rows = band_to_grid(*c_, phi_local, bands_, rows_);
  const la::MatC l =
      la::cholesky(overlap_distributed(*c_, rows, rows, node()));
  la::solve_upper_right(l, rows);
  phi_local = grid_to_band(*c_, rows, bands_, rows_);
  return l;
}

}  // namespace ptim::dist
