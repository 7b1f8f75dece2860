#pragma once
// The Kohn–Sham Hamiltonian with hybrid functional (paper Eq. 8):
//   H[P] = -1/2 (nabla + iA(t))^2 + V_loc,ion + V_H[rho] + V_xc[rho]
//          + V_ext(t) + alpha*Vx[P] (+ V_nl).
//
// Time-dependent fields: a spatially uniform vector potential A(t)
// (velocity gauge — the physically clean coupling for periodic cells) and
// an optional extra local potential on the density grid (length gauge for
// molecule-in-box systems).
//
// The exchange term runs in one of four modes matching the paper's
// optimization ladder: none (semilocal), exact with the naive Alg. 2 triple
// loop (baseline), exact after sigma diagonalization ("Diag"), or through
// an ACE surrogate ("ACE").

#include <memory>
#include <optional>
#include <vector>

#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "ham/ace.hpp"
#include "ham/exchange.hpp"
#include "pseudo/atoms.hpp"
#include "pseudo/kb.hpp"
#include "pw/transforms.hpp"

namespace ptim::ham {

struct HamiltonianOptions {
  ExchangeOptions exchange;   // alpha, mu, screened
  bool hybrid = true;         // include the Fock term at all
  bool use_kb = false;        // optional nonlocal channel
  real_t kb_rc = 1.2;
  real_t kb_d0 = 0.0;
};

enum class ExchangeMode { kNone, kExactNaive, kExactDiag, kAce };

struct EnergyTerms {
  real_t kinetic = 0.0;
  real_t local = 0.0;    // rho * (V_loc,ion + V_ext)
  real_t hartree = 0.0;
  real_t xc = 0.0;       // semilocal part
  real_t fock = 0.0;     // alpha-weighted exact exchange
  real_t nonlocal = 0.0;
  real_t ewald = 0.0;
  real_t total() const {
    return kinetic + local + hartree + xc + fock + nonlocal + ewald;
  }
};

class Hamiltonian {
 public:
  Hamiltonian(const grid::Lattice& lattice, const pseudo::AtomList& atoms,
              const grid::GSphere& sphere, const grid::FftGrid& wfc_grid,
              const grid::FftGrid& den_grid, HamiltonianOptions opt);

  // --- state updates -------------------------------------------------
  // Recompute V_H, V_xc and the assembled local potential from rho.
  void set_density(const std::vector<real_t>& rho);
  void set_vector_potential(const grid::Vec3& a) { avec_ = a; }
  const grid::Vec3& vector_potential() const { return avec_; }
  // Extra local potential (length-gauge laser); empty disables it.
  void set_external_potential(std::vector<real_t> vext);

  // Exchange source state (the P in Vx[P]).
  void set_exchange_source_diag(la::MatC phi, std::vector<real_t> occ);
  void set_exchange_source_mixed(la::MatC phi, la::MatC sigma);
  void set_exchange_mode(ExchangeMode m) { xmode_ = m; }
  ExchangeMode exchange_mode() const { return xmode_; }
  // Precision policy of the exact-exchange hot path (pair FFTs, ring
  // payloads); everything else the Hamiltonian computes stays FP64.
  void set_exchange_precision(Precision p) { xop_.set_precision(p); }
  Precision exchange_precision() const { return xop_.precision(); }
  // Batched-FFT block width of the exchange pair pipeline (a pure
  // throughput knob; bit-identical across widths).
  void set_exchange_batch(size_t bs) { xop_.set_batch_size(bs); }
  size_t exchange_batch() const { return xop_.batch_size(); }
  // Low-rank (ISDF) compression of the diag-exchange apply and its rank
  // factor; see ham/isdf. The fit is rebuilt at every apply; the only
  // operator state is a step's held point set (below).
  void set_exchange_compression(ExchangeCompression c) {
    xop_.set_compression(c);
  }
  ExchangeCompression exchange_compression() const {
    return xop_.compression();
  }
  void set_isdf_rank_factor(real_t c) { xop_.set_isdf_rank_factor(c); }
  real_t isdf_rank_factor() const { return xop_.isdf_rank_factor(); }
  // Install the ISDF interpolation points every later kIsdf apply of the
  // exchange operator fits on — the PT-IM propagators hold their first
  // midpoint selection for the rest of a step, the way set_ace installs
  // the ACE surrogate. The set stays until the returned scope ends.
  [[nodiscard]] IsdfPointHold hold_isdf_points(std::vector<size_t> points) {
    return xop_.hold_isdf_points(std::move(points));
  }
  // Γ-point real-wavefunction fast path of the exchange pair pipeline
  // (detection-gated; complex orbitals fall back bitwise — see
  // ham/exchange.hpp).
  void set_exchange_gamma_real(bool on) { xop_.set_gamma_real(on); }
  bool exchange_gamma_real() const { return xop_.gamma_real(); }
  void set_ace(AceOperator ace) { ace_ = std::move(ace); xmode_ = ExchangeMode::kAce; }
  const AceOperator& ace() const { return ace_; }

  // --- application ---------------------------------------------------
  // hphi = H * phi for every column.
  void apply(const la::MatC& phi, la::MatC& hphi) const;
  // Kinetic + local + nonlocal only (no exchange) — used by ACE builds.
  void apply_semilocal(const la::MatC& phi, la::MatC& hphi) const;
  // Exchange part only: out (+)= alpha*Vx*phi in the current mode.
  void apply_exchange(const la::MatC& phi, la::MatC& out,
                      bool accumulate) const;

  // --- energies ------------------------------------------------------
  // Full breakdown for a mixed state (sigma may be diagonal).
  EnergyTerms energy(const la::MatC& phi, const la::MatC& sigma,
                     const std::vector<real_t>& rho) const;

  // --- accessors -----------------------------------------------------
  const grid::GSphere& sphere() const { return *sphere_; }
  const pw::SphereGridMap& wfc_map() const { return wfc_map_; }
  const pw::SphereGridMap& den_map() const { return den_map_; }
  const grid::FftGrid& den_grid() const { return *den_grid_; }
  const ExchangeOperator& exchange_op() const { return xop_; }
  const std::vector<real_t>& vloc_ion() const { return vloc_ion_; }
  const std::vector<real_t>& vtot() const { return vtot_; }
  real_t ewald() const { return ewald_; }
  real_t alpha() const { return opt_.exchange.alpha; }
  bool hybrid() const { return opt_.hybrid; }
  const pseudo::AtomList& atoms() const { return *atoms_; }

  // Diagonal kinetic factors 0.5*|G+A|^2 for the current A(t).
  std::vector<real_t> kinetic_diag() const;

 private:
  const grid::Lattice* lattice_;
  const pseudo::AtomList* atoms_;
  const grid::GSphere* sphere_;
  const grid::FftGrid* wfc_grid_;
  const grid::FftGrid* den_grid_;
  HamiltonianOptions opt_;

  pw::SphereGridMap wfc_map_;
  pw::SphereGridMap den_map_;
  ExchangeOperator xop_;
  std::optional<pseudo::KbProjector> kb_;

  std::vector<real_t> vloc_ion_;  // dense grid
  std::vector<real_t> vhxc_;      // V_H + V_xc (dense)
  std::vector<real_t> vext_;      // laser (dense, may be empty)
  std::vector<real_t> vtot_;      // sum of the above (dense)
  real_t ehartree_ = 0.0;
  real_t exc_ = 0.0;
  real_t ewald_ = 0.0;
  grid::Vec3 avec_{0.0, 0.0, 0.0};

  // Exchange source state.
  ExchangeMode xmode_ = ExchangeMode::kNone;
  la::MatC xsrc_phi_;             // rotated orbitals (diag mode) or raw
  std::vector<real_t> xsrc_occ_;  // eigen-occupations (diag mode)
  la::MatC xsrc_sigma_;           // full sigma (naive mode)
  AceOperator ace_;

  void rebuild_vtot();
};

}  // namespace ptim::ham
