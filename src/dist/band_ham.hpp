#pragma once
// Band-parallel view of the Kohn-Sham Hamiltonian: the band implementation
// of the PT-IM propagator's band-space seam (td/band_space.hpp), and the
// layer that turns the standalone dist/ kernels into the production PT-IM
// path (paper Secs. IV-B/IV-C). Every ptmpi rank owns a BlockLayout band
// slice of {Phi, sigma-contracted quantities}; nb x nb matrices (sigma,
// overlaps, M = Phi^H H Phi) and occupation vectors stay replicated but are
// only ever produced from Allreduced data, so they are bit-identical on
// every rank. A propagator built over this layer (td::PtImPropagator)
// refers to it; the caller owns both and keeps this one alive as long.
//
// Communication map (the measured analogue of Table I):
//  * exact exchange          — Bcast / Ring / Async-Ring slab circulation
//                              with the batched-FFT pair kernel inside each
//                              round (dist/exchange_dist), weighted by the
//                              replicated occupations (no collective),
//  * wavefunction rotations  — the same circulation over coefficient slabs
//                              (dist/rotate),
//  * overlaps S, M           — band->grid Alltoallv transpose + partial
//                              gemm + Allreduce, optionally staged through
//                              the node-shared window (dist/transpose),
//  * density                 — local band accumulation + grid Allreduce,
//  * full-state gathers      — Allgatherv.
//
// Each rank must bring its OWN ham::Hamiltonian instance (the Hamiltonian
// carries mutable density/exchange state); all instances see identical
// densities because rho is Allreduced before set_density.

#include <memory>
#include <vector>

#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "dist/slab_exchange.hpp"
#include "ham/hamiltonian.hpp"
#include "ptmpi/comm.hpp"
#include "td/band_space.hpp"

namespace ptim::dist {

struct BandHamOptions {
  ExchangePattern pattern = ExchangePattern::kAsyncRing;
  // Stage overlap reductions through the MPI-3-style node-shared window
  // before the Allreduce (paper Fig. 6).
  bool overlap_shm = false;
  // 2-D band x grid process layout. With grid.pg == 1 (the default) the
  // construction is a bitwise no-op against the pure band-parallel path:
  // the world communicator IS the band communicator and no split happens.
  // With pg > 1 the world splits into pb band communicators (bands and all
  // nb x nb collectives live there) and pg grid communicators (the
  // real-space grid is z-slab-distributed and exact exchange runs through
  // dist/slab_exchange). Everything outside exchange is computed
  // redundantly (and therefore bit-identically) by the pg column replicas.
  ProcessGrid grid{};
};

// Mirrors ham::ExchangeMode for the band-distributed state.
enum class BandExchangeMode { kNone, kMixedNaive, kMixedDiag, kAce };

// Every td::BandSpace call is collective over the band communicator (and,
// under the 2-D layout, its exchange also over the grid communicator).
// Phi-shaped arguments are this rank's band block.
class BandDistributedHamiltonian final : public td::BandSpace {
 public:
  BandDistributedHamiltonian(ptmpi::Comm& c, ham::Hamiltonian& h,
                             size_t nbands, BandHamOptions opt = {});

  // The BAND communicator: the pb ranks this instance's band slices and
  // nb x nb collectives are distributed over. Equal to the construction
  // communicator when grid.pg == 1.
  ptmpi::Comm& comm() { return *c_; }
  const BlockLayout& bands() const { return bands_; }

  // --- td::BandSpace --------------------------------------------------
  ham::Hamiltonian& local() override { return *h_; }
  la::AndersonMixer::Reduction reduction() override;
  size_t band_offset() override { return bands_.offset(c_->rank()); }

  // rho = 2 Re sum_b theta_b(r) conj(phi_b(r)) with theta = Phi sigma,
  // reduced over bands; the theta block is kept for set_exchange_mixed
  // (the baseline exchange needs the same contraction).
  void set_density(const la::MatC& phi_local, const la::MatC& sigma,
                   bool baseline) override;
  void set_exchange_none() override { xmode_ = BandExchangeMode::kNone; }
  // Alg. 2 baseline: keep the full sigma, carried as the theta = Phi sigma
  // block the last set_density formed.
  void set_exchange_mixed(const la::MatC& phi_local,
                          const la::MatC& sigma) override;
  // Diag optimization: the block of rotated orbitals Phi Q of
  // sigma = Q D Q^H, with the eigen-occupations D of all nb bands.
  void set_exchange_diag(la::MatC rotated_local,
                         std::vector<real_t> occ) override;

  // hphi_local = H * phi_local (semilocal on the local block + the
  // configured distributed exchange term).
  void apply(const la::MatC& phi_local, la::MatC& hphi_local) override;
  // Full nb x nb overlap A^H B from band blocks, replicated on every rank:
  // band->grid transposes, partial gemm over the local row slab, one
  // Allreduce. A == B transposes the argument only once.
  la::MatC overlap(const la::MatC& a_local, const la::MatC& b_local) override;
  // S = A^H A and M = A^H B from a single transpose of each argument — the
  // fixed-point loop's pair, where A (the midpoint wavefunction) is the
  // largest payload in the step.
  void overlap_pair(const la::MatC& a_local, const la::MatC& b_local,
                    la::MatC* aa, la::MatC* ab) override;
  // (A * R)[:, my bands] through the ring rotation (dist/rotate).
  la::MatC rotate(const la::MatC& a_local, const la::MatC& r) override;
  // A <- A L^{-H} on the row layout, serial-identical rows.
  void solve_upper_right(const la::MatC& l, la::MatC& a_local) override;

  // The circulating batched-FFT exchange, or the slab pipeline under the
  // 2-D layout (ISDF only on the 1-D one).
  void exchange_diag(const la::MatC& src_local, const std::vector<real_t>& occ,
                     la::MatC& w_local) override;
  // B = Phi'^H W from the blocks, the shared Cholesky compression
  // (ham::AceOperator::factor), xi = W L^{-H}. Switches the mode to kAce.
  void set_ace(const la::MatC& src_local, const la::MatC& w_local) override;
  // Points from dist/isdf_dist's collective selection, bitwise identical
  // on every rank.
  ham::IsdfPointHold hold_isdf_points(const la::MatC& src_local,
                                      const std::vector<real_t>& occ) override;

  std::vector<real_t> density(const td::TdState& s) override;
  td::TdState gather(const td::TdState& s) override;

 private:
  // Local bands accumulated (ham::density_theta), then Allreduced
  // (identical on every rank); theta_out (optional) receives the theta =
  // Phi sigma block.
  std::vector<real_t> band_density(const la::MatC& phi_local,
                                   const la::MatC& sigma, la::MatC* theta_out);
  // (alpha Vx[src, occ]) tgt for the target block, with occ the replicated
  // occupations of all nb source bands, and its theta-weighted (baseline)
  // twin.
  la::MatC diag_exchange(const la::MatC& src_local,
                         const std::vector<real_t>& occ,
                         const la::MatC& tgt_local);
  la::MatC mixed_exchange(const la::MatC& src_local,
                          const la::MatC& theta_local,
                          const la::MatC& tgt_local);

  std::unique_ptr<GridContext> gridctx_;  // pg > 1 only; owns the splits
  ptmpi::Comm* c_;  // band communicator (world when pg == 1)
  ham::Hamiltonian* h_;
  BlockLayout bands_;
  BlockLayout rows_;
  BandHamOptions opt_;

  BandExchangeMode xmode_ = BandExchangeMode::kNone;
  la::MatC xsrc_local_;    // rotated orbitals (diag) or raw Phi (naive)
  la::MatC theta_local_;   // the last density pass's Phi*sigma block
  std::vector<real_t> xocc_;  // eigen-occupations of all bands (diag mode)
  la::MatC xi_local_;      // ACE projector block
};

}  // namespace ptim::dist
