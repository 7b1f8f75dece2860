#pragma once
// Circulation patterns of the band-parallel exact exchange (paper Table I):
//  * kBcast     — each round one rank broadcasts its slab (the ACE-era
//                 baseline; Bcast dominates the comm budget),
//  * kRing      — slabs hop neighbor-to-neighbor with Sendrecv,
//  * kAsyncRing — ring with Isend/Irecv posted before the compute so the
//                 transfer overlaps the local work.
// The exchange is the only circulation: every other band-parallel product
// runs on the row layout (dist/transpose).

namespace ptim::dist {

enum class ExchangePattern { kBcast, kRing, kAsyncRing };

const char* pattern_name(ExchangePattern p);

}  // namespace ptim::dist
