#include "td/band_space.hpp"

#include "dist/transpose.hpp"
#include "ham/density.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"
#include "pw/wavefunction.hpp"

namespace ptim::td {

void BandSpace::diagonalize(const la::MatC& phi, la::MatC sigma,
                            la::MatC* rotated, std::vector<real_t>* occ) {
  la::hermitize(sigma);
  auto eig = la::eig_herm(sigma);
  *rotated = rotate(phi, eig.V);
  *occ = std::move(eig.w);
}

TdState scatter_state(const TdState& s, const dist::BlockLayout& bands,
                      int rank) {
  TdState d;
  d.phi = dist::scatter_bands(s.phi, bands, rank);
  d.sigma = s.sigma;
  d.time = s.time;
  return d;
}

TdState gather_state(ptmpi::Comm& c, const TdState& s,
                     const dist::BlockLayout& bands) {
  TdState full;
  full.phi = dist::gather_bands(c, s.phi, bands);
  full.sigma = s.sigma;
  full.time = s.time;
  return full;
}

namespace {

class SerialBandSpace final : public BandSpace {
 public:
  explicit SerialBandSpace(ham::Hamiltonian& h) : h_(&h) {}

  ham::Hamiltonian& local() override { return *h_; }
  la::AndersonMixer::Reduction reduction() override { return {}; }
  size_t band_offset() override { return 0; }

  void set_density(const la::MatC& phi, const la::MatC& sigma,
                   bool baseline) override {
    mid_ = phi;
    h_->set_density(baseline
                        ? ham::density_sigma_naive(phi, sigma, h_->den_map())
                        : ham::density_sigma(phi, sigma, h_->den_map()));
  }
  void set_exchange_none() override {
    h_->set_exchange_mode(ham::ExchangeMode::kNone);
  }
  void set_exchange_mixed(const la::MatC& phi, const la::MatC& sigma) override {
    h_->set_exchange_mode(ham::ExchangeMode::kExactNaive);
    h_->set_exchange_source_mixed(phi, sigma);
  }
  void set_exchange_diag(la::MatC rotated, std::vector<real_t> occ) override {
    h_->set_exchange_mode(ham::ExchangeMode::kExactDiag);
    h_->set_exchange_source_diag(std::move(rotated), std::move(occ));
  }

  void project_midpoint(la::MatC* r, la::MatC* m) override {
    la::MatC hphi(mid_.rows(), mid_.cols());
    h_->apply(mid_, hphi);
    *m = pw::overlap(mid_, hphi);
    const la::MatC s = pw::overlap(mid_, mid_);
    // Projector part: P~ H Phi_h = Phi_h S^{-1} M.
    la::MatC x = *m;
    const la::MatC l = la::cholesky(s);
    la::cholesky_solve(l, x);
    const la::MatC proj = rotate(mid_, x);
    r->resize(hphi.rows(), hphi.cols());
    for (size_t i = 0; i < hphi.size(); ++i)
      r->data()[i] = hphi.data()[i] - proj.data()[i];
  }
  la::MatC rotate(const la::MatC& a, const la::MatC& r) override {
    la::MatC out(a.rows(), r.cols());
    la::gemm_nn(a, r, out);
    return out;
  }
  la::MatC orthonormalize(la::MatC& phi) override {
    const la::MatC l = la::cholesky(pw::overlap(phi, phi));
    la::solve_upper_right(l, phi);
    return l;
  }

  void exchange_diag(const la::MatC& src, const std::vector<real_t>& occ,
                     la::MatC& w) override {
    w.resize(src.rows(), src.cols());
    h_->exchange_op().apply_diag(src, occ, src, w, false);
  }
  void set_ace(const la::MatC& src, const la::MatC& w) override {
    h_->set_ace(ham::AceOperator::build(src, w));
  }

  std::vector<real_t> density(const TdState& s) override {
    return ham::density_sigma(s.phi, s.sigma, h_->den_map());
  }
  TdState gather(const TdState& s) override { return s; }

 private:
  ham::Hamiltonian* h_;
  la::MatC mid_;  // the midpoint of the last set_density
};

}  // namespace

std::unique_ptr<BandSpace> serial_space(ham::Hamiltonian& h) {
  return std::make_unique<SerialBandSpace>(h);
}

}  // namespace ptim::td
