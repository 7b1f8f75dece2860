#pragma once
// Band-parallel ISDF exchange (ExchangeCompression::kIsdf on pg == 1
// layouts). The dense distributed diag exchange circulates full real-space
// source slabs around the band ring; the ISDF path replaces the
// circulation wholesale:
//
//  * every band-summed fit input (sketches, quasi-density, Gram blocks,
//    the occupation-weighted G block) is computed as a rank-local partial
//    over the rank's bands and combined with the DETERMINISTIC rank-ordered
//    Allreduce (ptmpi), so each rank derives a bitwise-identical fit;
//  * the tiny Nmu x nb interpolation-point values are Allgathered over the
//    band communicator (the "fitted blocks" that replace full slabs on the
//    wire), giving every rank the normal-equation matrix without any
//    full-grid exchange of orbitals;
//  * each rank then applies the shared fit to its LOCAL targets with one
//    GEMM — no per-apply circulation at all. Wire traffic per refresh is
//    O(Ng * Nmu) of Gram blocks instead of (p-1) rounds of O(Ng * nb/p)
//    slabs per apply.
//
// Serial and distributed fits agree to summation-association rounding
// (partial sums + Allreduce vs one GEMM), pinned by tests at tolerance;
// across ranks the fit and the selected points are bitwise identical.
//
// Point selection follows the serial per-step rule (ham/isdf): while the
// rank-local operator holds an ISDF point set, the fit uses it and skips
// the sketch, its three Allreduces and the QRCP. The distributed PT-IM
// step installs the set from isdf_select_distributed, run collectively on
// the Allreduced sketch, so every rank holds the same points.

#include <vector>

#include "dist/layout.hpp"
#include "ham/exchange.hpp"
#include "ham/isdf.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

// Collective point selection on the Allreduced sketch and quasi-density:
// the set isdf_fit_distributed selects when none is held, bitwise
// identical on every rank. Arguments as below; empty for a null operator.
std::vector<size_t> isdf_select_distributed(ptmpi::Comm& c,
                                            const ham::ExchangeOperator& xop,
                                            const la::MatC& src_local,
                                            const std::vector<real_t>& d_all,
                                            const la::MatC& tgt_local,
                                            const BlockLayout& src_bands);

// Build the band-parallel ISDF fit: src_local holds this rank's band slice
// (sphere coefficients), d_all the FULL occupation vector (replicated on
// every rank), tgt_local the rank's target block. Collective over c;
// returns the same Fit on every rank (bitwise).
ham::isdf::Fit isdf_fit_distributed(ptmpi::Comm& c,
                                    const ham::ExchangeOperator& xop,
                                    const la::MatC& src_local,
                                    const std::vector<real_t>& d_all,
                                    const la::MatC& tgt_local,
                                    const BlockLayout& src_bands);

// Full band-parallel ISDF diag exchange: fit (collective) + local apply.
// Drop-in replacement for the slab circulation inside
// exchange_apply_distributed_local; returns alpha*Vx*tgt_local.
la::MatC exchange_apply_isdf_local(ptmpi::Comm& c,
                                   const ham::ExchangeOperator& xop,
                                   const la::MatC& src_local,
                                   const std::vector<real_t>& d_all,
                                   const la::MatC& tgt_local,
                                   const BlockLayout& src_bands);

}  // namespace ptim::dist
