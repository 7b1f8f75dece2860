#pragma once
// Parallel-transport implicit-midpoint propagator for finite-temperature
// rt-TDDFT (paper Sec. II-A, Alg. 1) and its ACE-accelerated double-SCF
// variant (Sec. IV-A2, Fig. 4).
//
// One step solves the fixed-point equations (paper Eq. 6)
//   Phi_{n+1}  = Phi_n  - i dt (I - P~_{n+1/2}) H_{n+1/2} Phi_{n+1/2}
//   sigma_{n+1}= sigma_n- i dt [ Phi_{n+1/2}^H H Phi_{n+1/2}, sigma_{n+1/2} ]
// by self-consistent iteration with Anderson mixing of {Phi, sigma}
// (history 20, as in the paper), then orthonormalizes Phi and conjugate-
// symmetrizes sigma. When Phi is re-orthonormalized (Phi -> Phi L^{-H}),
// sigma is congruence-transformed (sigma -> L^H sigma L) so the physical
// density matrix P = Phi sigma Phi^H is untouched.
//
// Variants map onto the paper's optimization ladder:
//   kBaseline — Alg. 2 naive mixed-state exchange (N^3 FFTs) + naive density,
//   kDiag     — occupation-matrix diagonalization (N^2 FFTs),
//   kAce      — kDiag plus the ACE double loop (exact exchange applied only
//               once per outer iteration; the paper's 25 -> 5 reduction).
//
// One propagator serves serial and band-parallel runs (paper Secs.
// IV-B/IV-C): the algorithm is written once against the band-space seam
// (td/band_space.hpp). Built over a ham::Hamiltonian, it owns the serial
// space; built over a band layout (a dist::BandDistributedHamiltonian,
// which is a BandSpace), it refers to the caller's. In a band-parallel run
// every rank runs one instance on its band block of Phi (scatter_state)
// while sigma and every nb x nb matrix stay replicated; each call is then
// collective, and the returned stats are identical on every rank. The band
// trajectory matches the serial one to rounding for every variant (pinned
// at 1e-10 over 10 steps). Under ISDF both layouts select and fit through
// ham/isdf, the band one with its band sums, so they differ only by how
// those sums associate (pinned at 1e-8 over 5 steps in test_isdf).

#include <memory>
#include <optional>

#include "ham/hamiltonian.hpp"
#include "td/band_space.hpp"
#include "td/laser.hpp"
#include "td/state.hpp"

namespace ptim::td {

enum class PtImVariant { kBaseline, kDiag, kAce };

struct PtImOptions {
  real_t dt = 50.0 / units::au_time_as;  // 50 as, the paper's step
  int max_scf = 30;        // inner fixed-point cap (paper: ~25 avg / ~13 ACE)
  real_t tol = 1e-6;       // relative {Phi, sigma} residual
  int max_outer = 8;       // ACE outer loop cap (paper: ~5 avg)
  real_t tol_fock = 1e-6;  // exchange-energy outer tolerance (paper: 1e-6)
  size_t anderson_history = 20;
  real_t anderson_beta = 0.7;
  PtImVariant variant = PtImVariant::kDiag;
  // Exact exchange is on iff this and the Hamiltonian's
  // HamiltonianOptions::hybrid are both set.
  bool hybrid = true;
  // When set, applied to the Hamiltonian's exchange operator at propagator
  // construction: the exchange pair FFTs (and, distributed, the ring slabs)
  // run at this precision while all propagator algebra — midpoints,
  // Anderson mixing, orthonormalization, sigma evolution — stays FP64.
  // Unset keeps whatever the Hamiltonian was configured with.
  std::optional<Precision> exchange_precision;
  // Low-rank (ISDF) compression of the exchange apply (ham/isdf), applied
  // like exchange_precision at propagator construction. The fit is rebuilt
  // at every ACE build. Under kAce a step selects interpolation points at
  // the t_n build and once more at the first midpoint build, then holds
  // that midpoint set for the step's later builds, so the outer loop
  // compares Fock energies of one fit basis; the set is released when the
  // step ends, so there is no cross-step operator state. kBaseline and
  // kDiag select points at every apply. Unset keeps the Hamiltonian's
  // configuration.
  std::optional<ham::ExchangeCompression> exchange_compression;
  std::optional<real_t> isdf_rank_factor;
  // false = PT-CN mode: freeze sigma and evolve only Phi — the earlier
  // parallel-transport Crank-Nicolson scheme (Jia et al., JCTC 2018) that
  // is valid for gapped/pure-state systems. PT-IM generalizes it to mixed
  // states; keeping both enables the paper's motivating comparison.
  bool evolve_sigma = true;
};

struct PtImStepStats {
  int scf_iterations = 0;        // inner iterations (summed over outer)
  int outer_iterations = 0;      // 1 for non-ACE variants
  int exchange_applications = 0; // full Vx*Phi evaluations this step
  real_t residual = 0.0;
  bool converged = false;        // inner fixed point: residual < tol
  // ACE outer loop: true iff the Fock-energy test (|dE_x| < tol_fock)
  // ended the loop, false when max_outer stopped it first. Variants
  // without an outer loop report true.
  bool outer_converged = false;
};

class PtImPropagator {
 public:
  // Serial: every band of Phi on one Hamiltonian.
  PtImPropagator(ham::Hamiltonian& h, PtImOptions opt, const LaserPulse* laser);
  // Band-parallel or 2-D: a dist::BandDistributedHamiltonian, which must
  // outlive the propagator; the stepped state holds this rank's band block.
  PtImPropagator(BandSpace& space, PtImOptions opt, const LaserPulse* laser);

  PtImStepStats step(TdState& s);
  const PtImOptions& options() const { return opt_; }
  // True when step() runs the staged ACE double loop below: the kAce
  // variant with exact exchange on.
  bool staged() const {
    return opt_.variant == PtImVariant::kAce && exchange_;
  }
  // The layout: the density and the full state of a committed state, and
  // the exchange apply of the staged protocol.
  BandSpace& space() { return *space_; }

  // --- staged stepping (staged() only) ------------------------------------
  // The ACE double loop of step() split at its exchange applications so an
  // external driver can batch the expensive W = (alpha Vx) Phi evaluation
  // across several trajectories (core::EnsembleDriver packs one
  // ExchangeOperator::DiagApplyJob per in-flight serial trajectory).
  // Protocol:
  //
  //   auto sess = prop.step_begin(s);
  //   do {
  //     // W for THIS session's pending ACE sources, by any bit-identical
  //     // route (step() uses prop.space().exchange_diag; the ensemble
  //     // driver uses apply_diag_packed):
  //     prop.space().exchange_diag(sess.ace_phi, sess.ace_occ, w);
  //   } while (prop.step_advance(s, sess, w));
  //   stats = prop.step_finish(s, sess);
  //
  // step() itself runs exactly this protocol, so the golden-trajectory
  // suite pins the staged path; a driver interleaving the advance calls of
  // several sessions gets per-trajectory results bitwise identical to
  // serial step() calls (each session keeps its own iteration order, and
  // the packed exchange is bitwise per job).
  //
  // Under ISDF compression the session's interpolation points live on the
  // Hamiltonian's exchange operator, so the W call above must go through
  // THAT operator (or one holding the same set): step_advance installs the
  // first midpoint build's selection there, and the session releases it
  // at step_finish or, abandoned, when it is destroyed.
  struct StepSession {
    real_t t_half = 0.0;
    la::MatC phi1, sigma1;        // fixed-point iterate
    la::MatC ace_phi;             // pending ACE build sources: rotated
    std::vector<real_t> ace_occ;  // orbitals (band block) + eigen-
                                  // occupations (all nb bands)
    real_t ex_prev = 0.0;         // last exchange-energy estimate
    real_t residual = 0.0;
    int outer = 0;                // fixed-point rounds completed
    ham::IsdfPointHold isdf_points;  // the step's held set (kIsdf only)
    PtImStepStats stats;
  };

  // Initialize a session and stage the t_n ACE sources (Fig. 4b's first
  // build). The state must not be mutated until step_finish.
  StepSession step_begin(const TdState& s);
  // Consume W = (alpha Vx[ace_phi, ace_occ]) ace_phi for the pending
  // sources: install the ACE operator, run the convergence check, and —
  // when another round is due — run the inner fixed point and stage the
  // midpoint sources (under kIsdf, the first midpoint staging also selects
  // and holds the step's interpolation points). Returns true while another
  // W is needed.
  bool step_advance(const TdState& s, StepSession& sess, const la::MatC& w);
  // Orthonormalization epilogue; commits the new state and returns stats.
  PtImStepStats step_finish(TdState& s, StepSession& sess);

 private:
  PtImPropagator(std::unique_ptr<BandSpace> serial, PtImOptions opt,
                 const LaserPulse* laser);

  // Inner fixed-point loop with the currently configured exchange; updates
  // (phi1, sigma1) in place and returns iterations used.
  int fixed_point(const TdState& start, la::MatC& phi1, la::MatC& sigma1,
                  real_t t_half, real_t* residual_out);
  // Midpoint density and the variant's exchange source (Eq. 5).
  void set_midpoint(const la::MatC& phih, const la::MatC& sigmah);
  // Stage ACE build sources into the session: diagonalize sigma and rotate
  // phi into its eigenbasis (the exchange apply is the caller's job).
  void stage_ace_sources(StepSession& sess, const la::MatC& phi,
                         la::MatC sigma);
  void reduce(real_t* v, size_t n) const {
    if (reduce_) reduce_(v, n);
  }

  std::unique_ptr<BandSpace> serial_;  // the owned space of a serial run
  BandSpace* space_;
  la::AndersonMixer::Reduction reduce_;  // empty when serial
  PtImOptions opt_;
  bool exchange_;                   // opt.hybrid && the Hamiltonian's hybrid
  const LaserPulse* laser_;
  PtImStepStats* stats_ = nullptr;  // active step statistics
};

}  // namespace ptim::td
