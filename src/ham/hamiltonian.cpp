#include "ham/hamiltonian.hpp"

#include <cmath>

#include "common/fixed_sum.hpp"
#include "common/timer.hpp"
#include "ham/density.hpp"
#include "ham/hartree.hpp"
#include "ham/xc_lda.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"
#include "pseudo/ewald.hpp"
#include "pseudo/local_pot.hpp"

namespace ptim::ham {

Hamiltonian::Hamiltonian(const grid::Lattice& lattice,
                         const pseudo::AtomList& atoms,
                         const grid::GSphere& sphere,
                         const grid::FftGrid& wfc_grid,
                         const grid::FftGrid& den_grid,
                         HamiltonianOptions opt)
    : lattice_(&lattice),
      atoms_(&atoms),
      sphere_(&sphere),
      wfc_grid_(&wfc_grid),
      den_grid_(&den_grid),
      opt_(opt),
      wfc_map_(sphere, wfc_grid),
      den_map_(sphere, den_grid),
      xop_(wfc_map_, opt.exchange) {
  vloc_ion_ = pseudo::build_local_potential(atoms, den_grid);
  vhxc_.assign(den_grid.size(), 0.0);
  ewald_ = pseudo::ewald_energy(atoms, lattice);
  if (opt_.use_kb && opt_.kb_d0 != 0.0)
    kb_.emplace(atoms, sphere, opt_.kb_rc, opt_.kb_d0);
  rebuild_vtot();
}

void Hamiltonian::set_density(const std::vector<real_t>& rho) {
  ScopedTimer t("ham.set_density");
  const HartreeResult h = hartree_potential(rho, *den_grid_);
  ehartree_ = h.energy;
  std::vector<real_t> vxc;
  exc_ = lda_pz81_eval(rho, den_grid_->dvol(), vxc);
  vhxc_.resize(den_grid_->size());
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < vhxc_.size(); ++i) vhxc_[i] = h.v[i] + vxc[i];
  rebuild_vtot();
}

void Hamiltonian::set_external_potential(std::vector<real_t> vext) {
  if (!vext.empty()) PTIM_CHECK(vext.size() == den_grid_->size());
  vext_ = std::move(vext);
  rebuild_vtot();
}

void Hamiltonian::rebuild_vtot() {
  vtot_.resize(den_grid_->size());
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < vtot_.size(); ++i) {
    real_t v = vloc_ion_[i] + vhxc_[i];
    if (!vext_.empty()) v += vext_[i];
    vtot_[i] = v;
  }
}

void Hamiltonian::set_exchange_source_diag(la::MatC phi,
                                           std::vector<real_t> occ) {
  PTIM_CHECK(occ.size() == phi.cols());
  xsrc_phi_ = std::move(phi);
  xsrc_occ_ = std::move(occ);
  if (xmode_ == ExchangeMode::kNone && opt_.hybrid)
    xmode_ = ExchangeMode::kExactDiag;
}

void Hamiltonian::set_exchange_source_mixed(la::MatC phi, la::MatC sigma) {
  PTIM_CHECK(sigma.rows() == phi.cols() && sigma.cols() == phi.cols());
  if (xmode_ == ExchangeMode::kExactNaive) {
    xsrc_phi_ = std::move(phi);
    xsrc_sigma_ = std::move(sigma);
    return;
  }
  // Diag path: rotate once here so every subsequent apply is O(N^2) FFTs.
  la::hermitize(sigma);
  const auto eig = la::eig_herm(sigma);
  la::MatC rotated(phi.rows(), phi.cols());
  la::gemm_nn(phi, eig.V, rotated);
  xsrc_phi_ = std::move(rotated);
  xsrc_occ_ = eig.w;
  if (xmode_ == ExchangeMode::kNone && opt_.hybrid)
    xmode_ = ExchangeMode::kExactDiag;
}

std::vector<real_t> Hamiltonian::kinetic_diag() const {
  const size_t npw = sphere_->npw();
  std::vector<real_t> k(npw);
  for (size_t i = 0; i < npw; ++i) {
    const grid::Vec3 g = sphere_->gvec(i);
    const grid::Vec3 ga = g + avec_;
    k[i] = 0.5 * grid::norm2(ga);
  }
  return k;
}

void Hamiltonian::apply_semilocal(const la::MatC& phi, la::MatC& hphi) const {
  ScopedTimer t("ham.apply_semilocal");
  const size_t npw = sphere_->npw();
  const size_t nb = phi.cols();
  PTIM_CHECK(phi.rows() == npw);
  hphi.resize(npw, nb);

  const std::vector<real_t> kin = kinetic_diag();
  const size_t ng = den_grid_->size();

  // Dense-grid pass for the whole orbital block: one batched inverse FFT,
  // a fused V_tot multiply, one batched forward FFT.
  la::MatC work;
  den_map_.to_real_batch(phi, work);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t b = 0; b < nb; ++b)
    for (size_t r = 0; r < ng; ++r) work.col(b)[r] *= vtot_[r];
  la::MatC gathered;
  den_map_.to_sphere_batch_inplace(work, gathered);

#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nb; ++b) {
    const cplx* in = phi.col(b);
    const cplx* gb = gathered.col(b);
    cplx* out = hphi.col(b);
    for (size_t i = 0; i < npw; ++i) out[i] = kin[i] * in[i] + gb[i];
  }
  if (kb_) kb_->apply(phi, hphi);
}

void Hamiltonian::apply_exchange(const la::MatC& phi, la::MatC& out,
                                 bool accumulate) const {
  switch (xmode_) {
    case ExchangeMode::kNone:
      if (!accumulate) {
        out.resize(phi.rows(), phi.cols());
        out.fill(cplx(0.0));
      }
      return;
    case ExchangeMode::kExactNaive:
      xop_.apply_mixed_naive(xsrc_phi_, xsrc_sigma_, phi, out, accumulate);
      return;
    case ExchangeMode::kExactDiag:
      xop_.apply_diag(xsrc_phi_, xsrc_occ_, phi, out, accumulate);
      return;
    case ExchangeMode::kAce:
      PTIM_CHECK_MSG(ace_.valid(), "ACE mode requested before ACE build");
      ace_.apply(phi, out, accumulate);
      return;
  }
}

void Hamiltonian::apply(const la::MatC& phi, la::MatC& hphi) const {
  apply_semilocal(phi, hphi);
  if (opt_.hybrid && xmode_ != ExchangeMode::kNone)
    apply_exchange(phi, hphi, /*accumulate=*/true);
}

EnergyTerms Hamiltonian::energy(const la::MatC& phi, const la::MatC& sigma,
                                const std::vector<real_t>& rho) const {
  ScopedTimer t("ham.energy");
  EnergyTerms e;
  const size_t nb = phi.cols();
  const size_t npw = sphere_->npw();

  // Kinetic: 2 Re tr(sigma * Phi^H T Phi).
  const std::vector<real_t> kin = kinetic_diag();
  la::MatC tphi(npw, nb);
  for (size_t b = 0; b < nb; ++b)
    for (size_t i = 0; i < npw; ++i) tphi(i, b) = kin[i] * phi(i, b);
  la::MatC st(nb, nb);
  la::gemm_cn(phi, tphi, st);
  cplx tr = 0.0;
  for (size_t i = 0; i < nb; ++i)
    for (size_t j = 0; j < nb; ++j) tr += sigma(i, j) * st(j, i);
  e.kinetic = 2.0 * std::real(tr);

  // Local terms: integrals against rho.
  const real_t dvol = den_grid_->dvol();
  const real_t eloc = fixed_sum(rho.size(), [&](size_t i) {
    real_t v = vloc_ion_[i];
    if (!vext_.empty()) v += vext_[i];
    return rho[i] * v;
  });
  e.local = eloc * dvol;
  e.hartree = ehartree_;
  e.xc = exc_;
  e.ewald = ewald_;

  // Nonlocal: 2 Re tr(sigma * Phi^H Vnl Phi).
  if (kb_) {
    la::MatC vphi(npw, nb, cplx(0.0));
    kb_->apply(phi, vphi);
    la::MatC sv(nb, nb);
    la::gemm_cn(phi, vphi, sv);
    cplx trn = 0.0;
    for (size_t i = 0; i < nb; ++i)
      for (size_t j = 0; j < nb; ++j) trn += sigma(i, j) * sv(j, i);
    e.nonlocal = 2.0 * std::real(trn);
  }

  // Fock term (alpha folded inside the operator).
  if (opt_.hybrid && xmode_ != ExchangeMode::kNone)
    e.fock = xop_.energy_mixed(phi, sigma);
  return e;
}

}  // namespace ptim::ham
