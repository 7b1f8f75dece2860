#pragma once
// Compatibility names for callers written against the former band-parallel
// propagator class. A band-parallel state is a TdState holding the rank's
// band block (td/band_space.hpp: scatter_state / gather_state), and
// td::PtImPropagator built over a dist::BandDistributedHamiltonian steps
// it. New code uses those names directly.

#include "dist/band_ham.hpp"
#include "td/band_space.hpp"
#include "td/ptim.hpp"

namespace ptim::td {

using DistTdState = TdState;
using DistPtImPropagator = PtImPropagator;

}  // namespace ptim::td
