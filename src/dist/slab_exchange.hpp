#pragma once
// Slab-aware exact exchange: the 2-D band x grid decomposition of the
// distributed Fock operator (paper Secs. IV-B/VI; the G-space dimension of
// Jia/Wang/Lin's Summit PT-TDDFT and the GPU-SPARC hybrid code).
//
// A world of pb*pg ranks is a ProcessGrid: bands are BlockLayout-split
// over the pb rows exactly as in the 1-D band-parallel path, and the
// real-space grid is z-slab-split over the pg columns. Source orbitals
// circulate as z-SLAB portions around the BAND communicator (payload
// w * nreal instead of w * Ng — the pg-fold reduction in ring bytes).
// Both entry points are dist::circulate_pairs (dist/exchange_dist) over a
// z-slab ham::PairSeam: the pair engine of the serial and 1-D applies
// (ExchangeOperator::run_pairs) runs its pointwise stages on this rank's
// slab, every pair FFT is a distributed slab transform (fft::DistFft3)
// across the GRID communicator, and a round's target columns are gathered
// together by one batched slab transform plus one exact (disjoint-support)
// Allreduce of the sphere coefficients over the grid communicator.
//
// Bit-identity guarantees (pinned in tests/test_grid2d.cpp):
//  * pb = 1: any pg reproduces the SERIAL operator bit-for-bit (one apply
//    visits all sources in serial order; the distributed FFT is
//    bit-identical to the serial engine),
//  * fixed pb: every pg produces bit-identical results (the per-slab
//    arithmetic is pointwise and the cross-rank assembly touches disjoint
//    grid points), so pg > 1 runs match the 1-D band-parallel operator,
//  * all three circulation patterns x {FP64, FP32} agree bitwise; the band
//    ring is the same host engine as the 1-D path (dist/circulate.hpp),
//  * a traced apply records the serial path's exchange phases
//    (xchg.pair_form, xchg.kernel_filter, xchg.accumulate, xchg.gather)
//    on every rank.

#include <memory>
#include <vector>

#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "fft/dist_fft.hpp"
#include "ham/exchange.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

// Per-rank context of the 2-D layout: the split communicators, the FP64 and
// FP32 distributed FFT twins over the wavefunction grid, and the pencil
// scatter plan of the sphere coefficients. Construction is collective over
// the world communicator (it performs the two Comm::splits).
class GridContext {
 public:
  GridContext(ptmpi::Comm& world, ProcessGrid grid,
              const pw::SphereGridMap& map);

  const ProcessGrid& process_grid() const { return pgrid_; }
  ptmpi::Comm& band() { return band_; }   // pb ranks, same grid column
  ptmpi::Comm& grid() { return grid_; }   // pg ranks, same band row
  int band_rank() const { return band_.rank(); }
  int grid_rank() const { return grid_.rank(); }

  const pw::SphereGridMap& map() const { return *map_; }
  fft::DistFft3& fft64() { return fft64_; }
  fft::DistFft3f& fft32() { return fft32_; }

  // z-slab elements per orbital on this rank (identical for both scalars).
  size_t nreal() const { return fft64_.nreal(); }
  size_t npencil() const { return fft64_.npencil(); }

  // Sphere scatter plan: sphere coefficient sphere_idx()[k] lives at
  // pencil-local index pencil_idx()[k] of this rank's y pencil. Every
  // sphere index appears on exactly one grid-column rank.
  const std::vector<size_t>& sphere_idx() const { return sph_idx_; }
  const std::vector<size_t>& pencil_idx() const { return pen_idx_; }
  // Global grid index of each pencil-local element (kernel table lookups).
  const std::vector<size_t>& pencil_global() const { return pen_global_; }

 private:
  ProcessGrid pgrid_;
  ptmpi::Comm band_;
  ptmpi::Comm grid_;
  const pw::SphereGridMap* map_;
  fft::DistFft3 fft64_;
  fft::DistFft3f fft32_;
  std::vector<size_t> sph_idx_, pen_idx_, pen_global_;
};

// Diagonal-occupation exchange on the 2-D layout: this rank holds the band
// block src_local (npw x src_bands.count(band_rank), sphere coefficients —
// replicated within a band row) and a local target block; d_all holds the
// replicated occupations of all src_bands.total() bands, as in the 1-D
// path. Collective over the whole pb x pg world. Returns
// alpha*Vx[src,d]*tgt_local (npw x tgt_local.cols()), identical on every
// rank of a band row.
la::MatC exchange_apply_slab_local(GridContext& gc,
                                   const ham::ExchangeOperator& xop,
                                   const la::MatC& src_local,
                                   const std::vector<real_t>& d_all,
                                   const la::MatC& tgt_local,
                                   const BlockLayout& src_bands,
                                   ExchangePattern pat);

// Mixed-state (full sigma) exchange on the 2-D layout; theta_local carries
// the sigma contraction exactly as in exchange_apply_distributed_mixed_local
// and [phi | theta] slab pairs circulate around the band ring.
la::MatC exchange_apply_slab_mixed_local(
    GridContext& gc, const ham::ExchangeOperator& xop,
    const la::MatC& src_local, const la::MatC& theta_local,
    const la::MatC& tgt_local, const BlockLayout& src_bands,
    ExchangePattern pat);

}  // namespace ptim::dist
