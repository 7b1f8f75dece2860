#pragma once
// Band-parallel PT-IM propagator: the distributed production path of the
// paper (Secs. IV-B/IV-C). One ptmpi rank runs one instance; each owns a
// BlockLayout band slice of Phi while sigma and every other nb x nb matrix
// stay replicated (produced exclusively from Allreduced data, hence
// bit-identical across ranks). Exact exchange runs through the Bcast /
// Ring / Async-Ring circulation with the batched-FFT pair kernel inside
// each round; overlaps go band->grid (Alltoallv) + Allreduce; the
// fixed-point Anderson mixing reduces its inner products globally.
//
// The trajectory matches td::PtImPropagator to rounding for every variant
// (kBaseline / kDiag / kAce) — the serial-vs-distributed regression tests
// pin agreement to 1e-10 over 10 steps. Under ISDF compression a kAce step
// follows the serial point rule (td/ptim.hpp): the first midpoint build
// selects collectively and every rank holds that set for the step's later
// builds (pinned against the serial trajectory at 1e-8 relative).

#include "dist/band_ham.hpp"
#include "td/laser.hpp"
#include "td/ptim.hpp"
#include "td/state.hpp"

namespace ptim::td {

// Band slice of a TdState: phi_local = phi[:, bands-of-rank], sigma
// replicated.
struct DistTdState {
  la::MatC phi_local;  // npw x bands.count(rank)
  la::MatC sigma;      // nb x nb, replicated
  real_t time = 0.0;
};

// Slice / reassemble against a full state (gather is a collective).
DistTdState scatter_state(const TdState& s, const dist::BlockLayout& bands,
                          int rank);
TdState gather_state(ptmpi::Comm& c, const DistTdState& s,
                     const dist::BlockLayout& bands);

class DistPtImPropagator {
 public:
  DistPtImPropagator(dist::BandDistributedHamiltonian& h, PtImOptions opt,
                     const LaserPulse* laser);

  // One PT-IM step on the band-distributed state. Collective call; the
  // returned stats are identical on every rank.
  PtImStepStats step(DistTdState& s);
  const PtImOptions& options() const { return opt_; }

 private:
  int fixed_point(const DistTdState& start, la::MatC& phi1, la::MatC& sigma1,
                  real_t t_half, real_t* residual_out);
  real_t build_ace_from(const la::MatC& phi_local, const la::MatC& sigma,
                        ham::IsdfPointHold* hold = nullptr);
  void configure_exchange_midpoint(const la::MatC& phih_local,
                                   const la::MatC& sigmah,
                                   la::MatC theta_local = {});

  dist::BandDistributedHamiltonian* h_;
  PtImOptions opt_;
  const LaserPulse* laser_;
  PtImStepStats* stats_ = nullptr;
};

}  // namespace ptim::td
