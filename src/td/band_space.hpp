#pragma once
// The band-space seam of the PT-IM propagator (td/ptim.hpp): every
// operation whose arithmetic depends on how Phi is laid out. The fixed
// point, the staged ACE outer loop, the orthonormalization and the step
// statistics are written once against it, and two implementations supply
// the layouts:
//
//   serial — all nb bands on one ham::Hamiltonian (gemm overlaps and
//            rotations, AceOperator::apply); the propagator builds and
//            owns it (serial_space);
//   band   — dist::BandDistributedHamiltonian (dist/band_ham.hpp) itself:
//            this rank's BlockLayout block of Phi, for band-parallel and
//            2-D runs (band<->row Alltoallv transposes with the nb x nb
//            products as row-slab GEMMs + one Allreduce, ring or slab
//            exchange). The caller owns it, and the propagator refers to
//            it.
//
// Phi-shaped arguments hold the rank's band block (every band when
// serial). nb x nb matrices and occupation vectors cover all nb bands and
// are replicated: they are only ever formed from reduced data, so they are
// bit-identical on every rank and reach the exchange ring as they are.
// Each implementation calls exactly its own layer's kernels; a one-rank
// band space is a valid layout but does not compute like the serial one
// (its ACE apply and baseline density differ), so serial runs use the
// serial space. ISDF point selection is not a seam call: the propagator
// runs ham::isdf::select_diag on its band block with reduction() as the
// band sum, the same code on every layout.
//
// Iteration state: set_density keeps the midpoint Phi_h it was given (the
// band space also its row slab, and the theta = Phi_h sigma_h block the
// baseline exchange reuses); project_midpoint works on that midpoint with
// the exchange configured since.

#include <memory>
#include <vector>

#include "ham/hamiltonian.hpp"
#include "la/mixer.hpp"
#include "td/state.hpp"

namespace ptim::dist {
class BlockLayout;
}
namespace ptim::ptmpi {
class Comm;
}

namespace ptim::td {

class BandSpace {
 public:
  virtual ~BandSpace() = default;

  // The rank's Hamiltonian: exchange knobs, vector potential.
  virtual ham::Hamiltonian& local() = 0;
  // Sums rank-partial values over the band communicator; empty (no
  // reduction) when serial.
  virtual la::AndersonMixer::Reduction reduction() = 0;
  // Index of this rank's first band (0 when serial).
  virtual size_t band_offset() = 0;

  // --- midpoint Hamiltonian (paper Eq. 5) -------------------------------
  // Density of (Phi, sigma) and set_density; Phi becomes the midpoint of
  // project_midpoint. `baseline` selects the serial Alg. 2 pair-loop
  // density; the band space always forms theta = Phi sigma and keeps it
  // for set_exchange_mixed.
  virtual void set_density(const la::MatC& phi, const la::MatC& sigma,
                           bool baseline) = 0;
  virtual void set_exchange_none() = 0;
  // Alg. 2 baseline exchange from the full (Phi, sigma).
  virtual void set_exchange_mixed(const la::MatC& phi,
                                  const la::MatC& sigma) = 0;
  // Diag exchange from rotated sources Phi Q and eigen-occupations D.
  virtual void set_exchange_diag(la::MatC rotated, std::vector<real_t> occ) = 0;

  // --- the fixed point's products (paper Eq. 6) ---------------------------
  // On the midpoint Phi_h of the last set_density, with S = Phi_h^H Phi_h:
  // r = H Phi_h - Phi_h S^{-1} M (the rank's block) and m = M =
  // Phi_h^H H Phi_h (replicated).
  virtual void project_midpoint(la::MatC* r, la::MatC* m) = 0;
  // A R for replicated nb x nb R.
  virtual la::MatC rotate(const la::MatC& a, const la::MatC& r) = 0;
  // Phi <- Phi L^{-H} with L L^H = Phi^H Phi; returns L (replicated).
  virtual la::MatC orthonormalize(la::MatC& phi) = 0;

  // --- ACE ----------------------------------------------------------------
  // w = (alpha Vx[src, occ]) src: the expensive exchange apply of an ACE
  // build. Collective in the band space.
  virtual void exchange_diag(const la::MatC& src,
                             const std::vector<real_t>& occ, la::MatC& w) = 0;
  // Install the ACE surrogate compressed from (src, w).
  virtual void set_ace(const la::MatC& src, const la::MatC& w) = 0;

  // --- committed states ---------------------------------------------------
  // rho of a state (reduced over bands).
  virtual std::vector<real_t> density(const TdState& s) = 0;
  // The full state: every band of Phi (collective in the band space).
  virtual TdState gather(const TdState& s) = 0;

  // sigma = Q D Q^H after hermitization (replicated), and rotated = Phi Q:
  // the sources of the Diag exchange and of an ACE build.
  void diagonalize(const la::MatC& phi, la::MatC sigma, la::MatC* rotated,
                   std::vector<real_t>* occ);
};

std::unique_ptr<BandSpace> serial_space(ham::Hamiltonian& h);

// A band-parallel run's state is a TdState whose phi holds the rank's band
// block (phi[:, bands of rank]) and whose sigma is replicated. Slice a full
// state, or reassemble one (collective over the band communicator c).
TdState scatter_state(const TdState& s, const dist::BlockLayout& bands,
                      int rank);
TdState gather_state(ptmpi::Comm& c, const TdState& s,
                     const dist::BlockLayout& bands);

}  // namespace ptim::td
