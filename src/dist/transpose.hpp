#pragma once
// Distributed data-movement kernels of the band layout (paper Fig. 1 and
// Fig. 6):
//  * band <-> row transposes via Alltoallv — the wavefunction
//    redistribution between the band layout (FFT work) and the G-row
//    layout, where every nb x nb product is a local GEMM on the row slab,
//  * rotations A R of band-distributed A: one transpose each way around a
//    row-slab la::gemm_nn,
//  * the reduction of row-slab partial products (overlaps S = A^H B),
//    optionally accumulating through a node-shared window before the
//    Allreduce (the MPI-3 SHM optimization that collapses the Allreduce
//    participant count),
//  * the rank-local band slice of a full matrix and its reassembly.

#include <initializer_list>

#include "dist/layout.hpp"
#include "la/matrix.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

// Rank r enters holding the band block (npw x bands.count(r)) of a global
// npw x nb matrix and leaves holding the row slab (rows.count(r) x nb).
la::MatC band_to_grid(ptmpi::Comm& c, const la::MatC& band_block,
                      const BlockLayout& bands, const BlockLayout& rows);

// Exact inverse of band_to_grid.
la::MatC grid_to_band(ptmpi::Comm& c, const la::MatC& grid_block,
                      const BlockLayout& bands, const BlockLayout& rows);

// out_local = (A * R)[:, bands of this rank], with A band-distributed over
// c.size() ranks and R replicated (bands.total() x r.cols() == nb): band ->
// row, la::gemm_nn on the row slab, row -> band. Each output row is the
// serial la::gemm_nn's row bit for bit, for every rank count.
la::MatC rotate_distributed(ptmpi::Comm& c, const la::MatC& a_local,
                            const la::MatC& r, const BlockLayout& bands,
                            const BlockLayout& rows);

// Sums the rank-partial values data[0, n) over c, in place, identically on
// every rank. With `node` (c's ranks on this rank's node, as
// c.split(c.node(), c.rank()) forms them) the partials are first summed
// into the node's shared window in node rank order, and only the node's
// rank 0 carries that sum into the Allreduce.
void reduce_partials(ptmpi::Comm& c, ptmpi::Comm* node, cplx* data,
                     size_t n);

// reduce_partials over several matrices at once: one Allreduce for all.
void reduce_partials(ptmpi::Comm& c, ptmpi::Comm* node,
                     std::initializer_list<la::MatC*> mats);

// Full m x n overlap S = A^H B from row-distributed A (local_rows x m) and
// B (local_rows x n): a partial gemm_cn over the row slab, then
// reduce_partials.
la::MatC overlap_distributed(ptmpi::Comm& c, const la::MatC& a,
                             const la::MatC& b, ptmpi::Comm* node = nullptr);

// Rank-local band slice / reassembly helpers.
la::MatC scatter_bands(const la::MatC& full, const BlockLayout& bands,
                       int rank);
la::MatC gather_bands(ptmpi::Comm& c, const la::MatC& a_local,
                      const BlockLayout& bands);

}  // namespace ptim::dist
