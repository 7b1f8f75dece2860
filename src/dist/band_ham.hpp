#pragma once
// Band-parallel view of the Kohn-Sham Hamiltonian: the layer that turns the
// standalone dist/ kernels into the production PT-IM path (paper Secs.
// IV-B/IV-C). Every ptmpi rank owns a BlockLayout band slice of {Phi,
// sigma-contracted quantities}; nb x nb matrices (sigma, overlaps, M =
// Phi^H H Phi) stay replicated but are only ever produced from Allreduced
// data, so they are bit-identical on every rank.
//
// Communication map (the measured analogue of Table I):
//  * exact exchange          — Bcast / Ring / Async-Ring slab circulation
//                              with the batched-FFT pair kernel inside each
//                              round (dist/exchange_dist),
//  * wavefunction rotations  — the same circulation over coefficient slabs
//                              (dist/rotate),
//  * overlaps S, M           — band->grid Alltoallv transpose + partial
//                              gemm + Allreduce, optionally staged through
//                              the node-shared window (dist/transpose),
//  * density                 — local band accumulation + grid Allreduce,
//  * occupations / gathers   — Allgatherv.
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

class BandDistributedHamiltonian {
 public:
  BandDistributedHamiltonian(ptmpi::Comm& c, ham::Hamiltonian& h,
                             size_t nbands, BandHamOptions opt = {});

  // The BAND communicator: the pb ranks this instance's band slices and
  // nb x nb collectives are distributed over. Equal to the construction
  // communicator when grid.pg == 1.
  ptmpi::Comm& comm() { return *c_; }
  ham::Hamiltonian& local() { return *h_; }
  const BlockLayout& bands() const { return bands_; }

  // --- band-block collectives -----------------------------------------
  // Full nb x nb overlap A^H B from band blocks, replicated on every rank.
  // A == B transposes the argument only once.
  la::MatC overlap(const la::MatC& a_local, const la::MatC& b_local);
  // S = A^H A and M = A^H B from a single transpose of each argument — the
  // fixed-point loop's pair, where A (the midpoint wavefunction) is the
  // largest payload in the step.
  void overlap_pair(const la::MatC& a_local, const la::MatC& b_local,
                    la::MatC* aa, la::MatC* ab);
  // (A * R)[:, my bands] for replicated nb x nb R.
  la::MatC rotate(const la::MatC& a_local, const la::MatC& r);
  // A <- A L^{-H} (replicated lower-triangular L), serial-identical rows.
  la::MatC solve_upper_right(const la::MatC& l, const la::MatC& a_local);

  // --- density ---------------------------------------------------------
  // rho = 2 Re sum_b theta_b(r) conj(phi_b(r)) with theta = Phi sigma;
  // local bands accumulated (ham::density_theta), then Allreduced
  // (identical on every rank). theta_out (optional) receives the
  // circulated theta block so callers can reuse it (the baseline exchange
  // needs the same contraction).
  std::vector<real_t> density(const la::MatC& phi_local, const la::MatC& sigma,
                              la::MatC* theta_out = nullptr);
  void set_density(const std::vector<real_t>& rho) { h_->set_density(rho); }

  // --- exchange configuration (the P in Vx[P]) -------------------------
  void set_exchange_none() { xmode_ = BandExchangeMode::kNone; }
  // Alg. 2 baseline: keep the full sigma, carried as the theta = Phi sigma
  // block density() circulated.
  void set_exchange_source_mixed_naive(const la::MatC& phi_local,
                                       la::MatC theta_local);
  // Diag optimization: the block of rotated orbitals Phi Q of
  // sigma = Q D Q^H, with the eigen-occupations D of all nb bands.
  void set_exchange_source_diag(la::MatC rotated_local,
                                std::vector<real_t> occ);
  // ACE install from rotated sources and W = (alpha Vx) sources (both band
  // blocks): B = Phi'^H W from the blocks, the shared Cholesky compression
  // (ham::AceOperator::factor), xi = W L^{-H}. Switches the mode to kAce.
  void set_ace(const la::MatC& src_local, const la::MatC& w_local);

  // --- application ------------------------------------------------------
  // hphi_local = H * phi_local (semilocal on the local block + the
  // configured distributed exchange term). Collective call.
  void apply(const la::MatC& phi_local, la::MatC& hphi_local);
  // (alpha Vx[src, occ]) tgt for the target block, with occ the
  // occupations of all nb source bands: the circulating batched-FFT
  // exchange, or the slab pipeline under the 2-D layout. Collective call.
  la::MatC exchange_diag(const la::MatC& src_local,
                         const std::vector<real_t>& occ,
                         const la::MatC& tgt_local);

 private:
  la::MatC exchange_mixed(const la::MatC& src_local,
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
  la::MatC xtheta_local_;  // Phi*sigma block (naive mode)
  std::vector<real_t> xocc_;  // eigen-occupations of all bands (diag mode)
  la::MatC xi_local_;      // ACE projector block
};

}  // namespace ptim::dist
