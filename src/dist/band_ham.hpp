#pragma once
// Band-parallel view of the Kohn-Sham Hamiltonian: the band implementation
// of the PT-IM propagator's band-space seam (td/band_space.hpp), and the
// layer that turns the standalone dist/ kernels into the production PT-IM
// path (paper Secs. IV-B/IV-C). Every ptmpi rank owns a BlockLayout band
// slice of Phi for the FFT work (density, semilocal and exchange applies)
// and, for the dense nb x nb algebra, a BlockLayout slice of the
// plane-wave rows of all nb bands (the G-row layout of paper Fig. 1).
// nb x nb matrices (sigma, overlaps, M = Phi^H H Phi) and occupation
// vectors stay replicated but are only ever produced from Allreduced data,
// so they are bit-identical on every rank. A propagator built over this
// layer (td::PtImPropagator) refers to it; the caller owns both and keeps
// this one alive as long.
//
// Communication map (the measured analogue of Table I):
//  * exact exchange          — Bcast / Ring / Async-Ring slab circulation
//                              with the batched-FFT pair kernel inside each
//                              round (dist/exchange_dist), weighted by the
//                              replicated occupations (no collective); the
//                              only circulation,
//  * ISDF exchange (kIsdf)   — no circulation: ham/isdf's selection and fit
//                              on the band block, its sketches,
//                              quasi-density and Gram blocks Allreduced,
//                              one Allgatherv of the target widths,
//  * nb x nb products        — band->row Alltoallv transpose, local GEMMs
//    (theta = Phi sigma, the   on the row slab, row->band transpose
//    ACE term, the projector,  (dist/transpose). Per SCF iteration Phi_h
//    rotations)                and H_s Phi_h go to rows, theta and
//                              H Phi_h - Phi_h S^{-1} M come back: four
//                              transposes,
//  * overlaps S, M (and the  — partial gemm_cn on the row slab + ONE
//    ACE's G = xi^H Phi_h)     Allreduce, optionally staged through the
//                              node-shared window (paper Fig. 6),
//  * density                 — local band accumulation + grid Allreduce,
//  * full-state gathers      — Allgatherv.
//
// Each rank must bring its OWN ham::Hamiltonian instance (the Hamiltonian
// carries mutable density/exchange state); all instances see identical
// densities because rho is Allreduced before set_density.

#include <memory>
#include <optional>
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
  // before the Allreduce (paper Fig. 6): the band communicator's ranks on
  // one node sum there first.
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

  // rho = 2 Re sum_b theta_b(r) conj(phi_b(r)) with theta = Phi sigma
  // formed on the row slab, reduced over bands. Phi is kept, as band block
  // and row slab, for project_midpoint, and the theta block for
  // set_exchange_mixed (the baseline exchange needs the same contraction).
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

  // H_s Phi_h (semilocal, plus a circulated exchange) on the band block,
  // then one transpose to rows. There S, M and the ACE's G = xi^H Phi_h
  // share one Allreduce, H Phi_h = H_s Phi_h - xi G, and
  // r = H Phi_h - Phi_h S^{-1} M goes back to bands.
  void project_midpoint(la::MatC* r, la::MatC* m) override;
  // (A * R)[:, my bands] through the row layout (rotate_distributed):
  // every row is the serial la::gemm_nn's.
  la::MatC rotate(const la::MatC& a_local, const la::MatC& r) override;
  // One transpose of Phi serves the overlap and the row-slab solve
  // Phi <- Phi L^{-H}, whose rows are the serial solve's for the same L.
  la::MatC orthonormalize(la::MatC& phi_local) override;

  // The circulating batched-FFT exchange, or the slab pipeline under the
  // 2-D layout; under kIsdf the band-summed ham/isdf apply (1-D only).
  void exchange_diag(const la::MatC& src_local, const std::vector<real_t>& occ,
                     la::MatC& w_local) override;
  // One transpose of W serves B = Phi'^H W on the row slabs and, after the
  // shared Cholesky compression (ham::AceOperator::factor), xi = W L^{-H}
  // on W's row slab, which is all of xi this rank keeps. Switches the
  // mode to kAce.
  void set_ace(const la::MatC& src_local, const la::MatC& w_local) override;

  std::vector<real_t> density(const td::TdState& s) override;
  td::TdState gather(const td::TdState& s) override;

 private:
  // rho of (Phi, sigma), identical on every rank: Phi's row slab (into
  // phi_rows), theta = Phi sigma on it and back to bands (into
  // theta_local), the local bands accumulated (ham::density_theta), then
  // Allreduced.
  std::vector<real_t> band_density(const la::MatC& phi_local,
                                   const la::MatC& sigma, la::MatC* phi_rows,
                                   la::MatC* theta_local);
  // (alpha Vx[src, occ]) tgt for the target block, with occ the replicated
  // occupations of all nb source bands, and its theta-weighted (baseline)
  // twin.
  la::MatC diag_exchange(const la::MatC& src_local,
                         const std::vector<real_t>& occ,
                         const la::MatC& tgt_local);
  la::MatC mixed_exchange(const la::MatC& src_local,
                          const la::MatC& theta_local,
                          const la::MatC& tgt_local);
  // The node communicator of the staged reductions, or null.
  ptmpi::Comm* node() { return node_ ? &*node_ : nullptr; }

  std::unique_ptr<GridContext> gridctx_;  // pg > 1 only; owns the splits
  ptmpi::Comm* c_;  // band communicator (world when pg == 1)
  // overlap_shm only: c_'s ranks on this rank's node, in c_'s rank order.
  std::optional<ptmpi::Comm> node_;
  ham::Hamiltonian* h_;
  BlockLayout bands_;
  BlockLayout rows_;
  BandHamOptions opt_;

  BandExchangeMode xmode_ = BandExchangeMode::kNone;
  la::MatC xsrc_local_;       // rotated orbitals (diag) or raw Phi (naive)
  std::vector<real_t> xocc_;  // eigen-occupations of all bands (diag mode)
  la::MatC xi_rows_;          // ACE projector xi, row slab
  // Iteration state: the last set_density's midpoint Phi_h, as band block
  // and row slab, and its theta = Phi_h sigma_h block.
  la::MatC mid_local_, mid_rows_, theta_local_;
};

}  // namespace ptim::dist
