#include "td/band_space.hpp"

#include "dist/rotate.hpp"
#include "ham/density.hpp"
#include "ham/isdf.hpp"
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

  void apply(const la::MatC& phi, la::MatC& hphi) override {
    h_->apply(phi, hphi);
  }
  la::MatC overlap(const la::MatC& a, const la::MatC& b) override {
    return pw::overlap(a, b);
  }
  void overlap_pair(const la::MatC& a, const la::MatC& b, la::MatC* aa,
                    la::MatC* ab) override {
    *ab = pw::overlap(a, b);
    *aa = pw::overlap(a, a);
  }
  la::MatC rotate(const la::MatC& a, const la::MatC& r) override {
    la::MatC out(a.rows(), r.cols());
    la::gemm_nn(a, r, out);
    return out;
  }
  void solve_upper_right(const la::MatC& l, la::MatC& a) override {
    la::solve_upper_right(l, a);
  }

  void exchange_diag(const la::MatC& src, const std::vector<real_t>& occ,
                     la::MatC& w) override {
    w.resize(src.rows(), src.cols());
    h_->exchange_op().apply_diag(src, occ, src, w, false);
  }
  void set_ace(const la::MatC& src, const la::MatC& w) override {
    h_->set_ace(ham::AceOperator::build(src, w));
  }
  ham::IsdfPointHold hold_isdf_points(
      const la::MatC& src, const std::vector<real_t>& occ) override {
    const ham::ExchangeOperator& xop = h_->exchange_op();
    const la::MatC real = ham::isdf::to_real_policy(xop, src);
    return h_->hold_isdf_points(ham::isdf::select_diag(xop, real, occ, real));
  }

  std::vector<real_t> density(const TdState& s) override {
    return ham::density_sigma(s.phi, s.sigma, h_->den_map());
  }
  TdState gather(const TdState& s) override { return s; }

 private:
  ham::Hamiltonian* h_;
};

}  // namespace

std::unique_ptr<BandSpace> serial_space(ham::Hamiltonian& h) {
  return std::make_unique<SerialBandSpace>(h);
}

}  // namespace ptim::td
