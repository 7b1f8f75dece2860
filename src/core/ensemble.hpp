#pragma once
// Trajectory-batch job driver: the production workload is not one
// trajectory but many (absorption spectra under different kicks, laser
// scans, pump-probe ensembles) replayed over ONE prepared ground state.
// EnsembleDriver takes N perturbation/laser specs, propagates them in
// lockstep batches, and amortizes the expensive machinery across the
// batch:
//
//  * the FFT plans and grids are the Simulation's, shared by every job;
//  * each batch slot's Hamiltonian is pooled and reused across batches;
//  * the ACE builds — the exchange hot path — run through
//    ExchangeOperator::apply_diag_packed, which concatenates every
//    in-flight trajectory's pair-density blocks into shared batched FFTs
//    (driven by the PtImPropagator staged-step protocol). Under ISDF
//    compression, which has no pair FFTs to share, each trajectory's
//    builds apply through its own slot's operator, where its step holds
//    its interpolation points.
//
// Per-job results are BITWISE identical to N independent serial runs: the
// staged protocol replays step() exactly and the packed exchange is
// bitwise per job (see td/ptim.hpp and ham/exchange.hpp).
//
//   core::EnsembleDriver ens(sim, cfg);
//   for (auto& p : pulses) ens.submit({name, p, {}});
//   ens.set_measurements(proto);           // cloned into every job
//   auto results = ens.run_all();          // one batch per batch_width jobs

#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace ptim::core {

struct EnsembleJob {
  std::string name;
  // Per-job laser, envelope placed against the run's horizon (the lazy
  // placement RunConfig enables). Unset = no field.
  std::optional<td::LaserParams> laser;
  // Delta-kick vector potential applied at t = 0 (absorption spectra). A
  // job carries a laser OR a nonzero kick: the propagator sets A from the
  // laser every step, which would silently drop the kick, so submit()
  // throws on both.
  grid::Vec3 kick{0.0, 0.0, 0.0};
  // Optional replacement initial state; unset = the shared ground state.
  std::optional<td::TdState> initial;
};

struct EnsembleJobResult {
  std::string name;
  td::TdState final_state;
  MeasurementSet measurements;
  std::vector<td::PtImStepStats> steps;
};

// Throws ptim::Error naming the job when it carries both a laser and a
// nonzero kick. EnsembleDriver::submit and EnsembleCampaign::submit call
// it.
void check_laser_or_kick(const std::string& name, bool has_laser,
                         const grid::Vec3& kick);

class EnsembleDriver {
 public:
  // The Simulation must have its ground state prepared before run_all.
  // Ensemble batching is defined for serial per-trajectory propagation
  // (cfg.nranks == 1); the exchange packing needs a staged propagator
  // (kAce with exact exchange on), anything else falls back to unbatched
  // stepping.
  EnsembleDriver(Simulation& sim, RunConfig cfg);

  void submit(EnsembleJob job);
  size_t pending() const { return jobs_.size(); }
  const RunConfig& config() const { return cfg_; }

  // Measurement prototype cloned into every job (probe set + empty
  // series).
  void set_measurements(MeasurementSet proto) { proto_ = std::move(proto); }

  // Propagate every submitted job, batch_width trajectories in lockstep
  // per batch (0 = all pending jobs in one batch; 1 = the one-at-a-time
  // baseline bench_throughput compares against). Drains the queue one
  // batch at a time: a job is removed only after its batch completed, so
  // an exception mid-campaign leaves the failing batch and every unrun
  // job submitted (pending() reports them; a later run_all retries them).
  std::vector<EnsembleJobResult> run_all(size_t batch_width = 0);

 private:
  std::vector<EnsembleJobResult> run_batch(const EnsembleJob* batch,
                                           size_t n);

  Simulation* sim_;
  RunConfig cfg_;
  MeasurementSet proto_;
  std::vector<EnsembleJob> jobs_;
  // Pooled per-slot Hamiltonians, reused across batches (construction —
  // structure factors, local potential tables, kernel tables — is paid
  // once per slot, not once per trajectory).
  std::vector<std::unique_ptr<ham::Hamiltonian>> pool_;
};

}  // namespace ptim::core
