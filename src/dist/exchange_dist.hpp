#pragma once
// Distributed exact-exchange application (paper Fig. 5): every rank owns a
// band block of targets and a band block of sources; real-space source
// slabs circulate so each rank accumulates every source's contribution
// onto its local targets. Three circulation patterns, matching Table I
// (see dist/pattern.hpp). All produce results identical to the serial
// operator.
//
// The rank-local entry points are the production API: each rank passes only
// the band blocks it owns (the layout of the PT-IM propagator state) and
// the occupations of every band, which the propagator keeps replicated, so
// an apply shares nothing but the circulating slabs. The legacy
// full-replication signature is kept as a thin wrapper that slices the
// global matrices before delegating.
//
// Every dense entry point, here and in dist/slab_exchange, runs the one
// band circulation: the 1-D ones with the full-grid seam and the world
// communicator, the 2-D ones (circulate_pairs) with the z-slab seam of a
// GridContext and its band communicator. Each circulation round is a
// one-job ExchangeOperator::run_pairs pack over the origin rank's slab,
// the same engine as the serial apply. ISDF is dispatched by the 1-D diag
// entry before it. Under gamma_real the 1-D diag entry alone holds a rank
// vote on the serial gate's realness check; when every rank's fields pass,
// the same round loop circulates REAL slabs (half the bytes) as real jobs
// of run_pairs, staged per origin so that the result is bitwise the same
// for every pattern. 2-D and theta-weighted applies never vote: a vote
// over the band communicator cannot bind the grid communicator's slab-FFT
// collectives.

#include <vector>

#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "ham/exchange.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

// The dense band circulation with complex payloads (no Γ-point vote).
// Transforms this rank's band block of sources once through the seam
// (packed as [phi_b | theta_b] pairs when theta_local is given) and its
// targets once, then circulates the source slabs around `band`
// (circulate_slabs) and runs every round as a one-job run_pairs pack over
// the origin rank's slab. d_all: the replicated occupations of every band
// (diag kind), ignored when theta_local carries the sigma contraction.
// Returns alpha*Vx*tgt_local.
la::MatC circulate_pairs(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                         const ham::PairSeam& seam, const la::MatC& src_local,
                         const std::vector<real_t>& d_all,
                         const la::MatC* theta_local, const la::MatC& tgt_local,
                         const BlockLayout& src_bands, ExchangePattern pat);

// Diagonal-occupation exchange on rank-local blocks: this rank holds
// src_local = src[:, src_bands-of-rank] and an arbitrary-width local target
// block; d_all holds the occupations of all src_bands.total() bands,
// replicated on every rank (FP64 in every precision mode), so any origin's
// slab is weighted locally and no collective shares them. Real-space
// source slabs circulate in the requested pattern (real slabs when the
// gamma_real vote passes; see above). Each field goes to real space once
// per apply. Returns alpha*Vx[src,d]*tgt_local (npw x tgt_local.cols()).
la::MatC exchange_apply_distributed_local(ptmpi::Comm& c,
                                          const ham::ExchangeOperator& xop,
                                          const la::MatC& src_local,
                                          const std::vector<real_t>& d_all,
                                          const la::MatC& tgt_local,
                                          const BlockLayout& src_bands,
                                          ExchangePattern p);

// Mixed-state (full sigma) exchange on rank-local blocks. The sigma
// contraction is carried by theta_local = (Phi * sigma)[:, local bands]:
// pairs of (phi_k, theta_k) real-space slabs circulate and each round
// accumulates -alpha sum_k theta_k(r) V[conj(phi_k) tgt_j](r) — equal to
// the serial apply_mixed_naive without replicating Phi or sigma.
la::MatC exchange_apply_distributed_mixed_local(
    ptmpi::Comm& c, const ham::ExchangeOperator& xop, const la::MatC& src_local,
    const la::MatC& theta_local, const la::MatC& tgt_local,
    const BlockLayout& src_bands, ExchangePattern p);

// Legacy wrapper: every rank passes the FULL src/tgt matrices
// (npw x nsrc / npw x ntgt) and occupations d; the function slices the
// matrices over c.size() ranks with BlockLayout and returns this rank's
// npw x BlockLayout(ntgt).count(me) block of alpha*Vx[src,d]*tgt.
la::MatC exchange_apply_distributed(ptmpi::Comm& c,
                                    const ham::ExchangeOperator& xop,
                                    const la::MatC& src,
                                    const std::vector<real_t>& d,
                                    const la::MatC& tgt, ExchangePattern p);

}  // namespace ptim::dist
