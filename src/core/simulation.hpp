#pragma once
// User-facing driver: owns the cell, grids, Hamiltonian and ground state,
// and hands out propagators and observables. This is the API the examples
// and benches are written against.
//
//   core::SystemSpec spec;             // 1x1x1 Si cell, Ecut, T, laser...
//   core::Simulation sim(spec);
//   sim.prepare_ground_state();
//   core::RunConfig cfg;               // steps, dt, variant, nranks...
//   auto result = sim.run(cfg, measurements);
// or, stepping by hand:
//   auto prop  = sim.make_ptim(cfg);
//   auto state = sim.initial_state();
//   for (...) { prop->step(state); record(sim.dipole_x(state)); }

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/measurements.hpp"
#include "core/run_config.hpp"
#include "dist/band_ham.hpp"
#include "io/checkpoint.hpp"
#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "gs/scf.hpp"
#include "ham/hamiltonian.hpp"
#include "pseudo/atoms.hpp"
#include "ptmpi/comm.hpp"
#include "td/laser.hpp"
#include "td/ptim.hpp"
#include "td/state.hpp"

namespace ptim::obs {
struct StepCounters;
struct StepReport;
}  // namespace ptim::obs

namespace ptim::core {

// Per-step metrics rows, shared by Simulation::run and campaigns: the
// counter snapshot the StepSampler diffs (`xop` is the exchange operator
// the propagator drives; `comm` is null for serial runs), and a step's
// solver statistics.
obs::StepCounters sample_counters(const ham::ExchangeOperator& xop,
                                  ptmpi::Comm* comm);
void fill_step_stats(obs::StepReport* r, const td::PtImStepStats& st);

struct SystemSpec {
  // Supercell repeats of the 8-atom conventional Si cell.
  int nx = 1, ny = 1, nz = 1;
  real_t ecut = 5.0;            // Hartree (paper: 10; tests use less)
  real_t temperature_k = 0.0;   // 0 = pure state; paper: 8000 K
  // Extra (unoccupied) states as a fraction of the atom count
  // (paper: 1.0 in accuracy tests, 0.5 elsewhere).
  real_t extra_states_per_atom = 0.5;
  ham::HamiltonianOptions ham;
  gs::ScfOptions scf;           // nbands/nelec filled in automatically
};

class Simulation {
 public:
  explicit Simulation(SystemSpec spec);

  // --- setup ----------------------------------------------------------
  const gs::ScfResult& prepare_ground_state();
  bool has_ground_state() const { return gs_done_; }
  const gs::ScfResult& ground_state() const;

  // Initial TD state: Phi from the ground state, sigma = diag(f_FD).
  td::TdState initial_state() const;

  // Attach a laser WITHOUT placing its envelope: the center/width defaults
  // are resolved against the time horizon of whichever run launches next
  // (RunConfig::horizon), so one Simulation can serve ensemble jobs whose
  // horizons differ. Re-resolved at every run start.
  void set_laser(td::LaserParams p);
  // Build the pulse for a known horizon now (no-op without pending params);
  // run() and make_ptim() call this automatically.
  const td::LaserPulse* resolve_laser(real_t horizon);
  const td::LaserPulse* laser() const { return laser_.get(); }

  // --- propagators ------------------------------------------------------
  // Resolves the lazy laser against cfg's horizon and applies the exchange
  // knobs (precision / batch / compression) before constructing the
  // propagator on this simulation's Hamiltonian.
  std::unique_ptr<td::PtImPropagator> make_ptim(const RunConfig& cfg);

  // --- unified run driver -----------------------------------------------
  // One entry point for serial (nranks == 1) and band/grid-distributed
  // propagation, with per-step sampling of the registered measurements.
  // `start`/`start_step` resume a split trajectory (e.g. from a
  // checkpoint); measurements are sampled after every step with ctx.step =
  // start_step + k, so a split run's series concatenate to the
  // uninterrupted run's.
  struct RunResult {
    td::TdState final_state;                // gathered full state
    MeasurementSet measurements;            // per-step series + statistics
    std::vector<td::PtImStepStats> steps;   // per-step solver statistics
    std::vector<ptmpi::CommStats> comm;     // distributed runs only
  };
  RunResult run(const RunConfig& cfg, MeasurementSet measurements = {},
                const td::TdState* start = nullptr, uint64_t start_step = 0);

  // --- checkpoint/restart -----------------------------------------------
  // RNG-free hash binding a checkpoint to (system, physics config, laser):
  // resuming under a different configuration is a descriptive error.
  uint64_t config_hash(const RunConfig& cfg) const;
  // Snapshot after `steps_done` steps of a cfg run (captures the live
  // vector potential — the laser phase / delta-kick carrier).
  io::Checkpoint checkpoint(const RunConfig& cfg, const td::TdState& s,
                            uint64_t steps_done) const;
  // Re-arm the Hamiltonian from a loaded checkpoint (vector potential) and
  // hand back the state to resume from.
  td::TdState restore(const io::Checkpoint& c);

  // --- measurement probes -----------------------------------------------
  Probe dipole_probe(grid::Vec3 dir) const;
  // Total-energy probe (register with needs_phi = true). Samples through
  // this Simulation's Hamiltonian exactly like energy().
  Probe energy_probe();
  // Sample a full state outside a run (e.g. the t = 0 point of a
  // spectrum); records with the given step index.
  void measure(MeasurementSet& m, const td::TdState& s, int step) const;

  // --- precision policy -------------------------------------------------
  // Scalar type of the exact-exchange hot path (pair FFTs, distributed ring
  // payloads); the propagated trajectory stays FP64 in every mode. Applied
  // to the live Hamiltonian and recorded in the spec so per-rank
  // Hamiltonians of distributed runs inherit it.
  void set_exchange_precision(Precision p) {
    spec_.ham.exchange.precision = p;
    h_->set_exchange_precision(p);
  }
  Precision exchange_precision() const { return h_->exchange_precision(); }

  // Batched-FFT block width of the exchange pair pipeline (throughput-only
  // knob, bit-identical across widths). Recorded in the spec so per-rank
  // Hamiltonians inherit it.
  void set_exchange_batch(size_t bs) {
    spec_.ham.exchange.batch_size = bs;
    h_->set_exchange_batch(bs);
  }
  size_t exchange_batch() const { return h_->exchange_batch(); }

  // --- band-parallel propagation ----------------------------------------
  // Fresh Hamiltonian over this simulation's (shared, read-only) grids and
  // atoms: each ptmpi rank of a distributed run needs its own instance
  // because the Hamiltonian carries mutable density/exchange state.
  std::unique_ptr<ham::Hamiltonian> make_rank_hamiltonian() const;

  // --- observables ------------------------------------------------------
  std::vector<real_t> density(const td::TdState& s) const;
  real_t dipole(const td::TdState& s, const grid::Vec3& dir) const;
  real_t dipole_x(const td::TdState& s) const { return dipole(s, {1, 0, 0}); }
  ham::EnergyTerms energy(const td::TdState& s) const;

  // --- plumbing ----------------------------------------------------------
  const SystemSpec& spec() const { return spec_; }
  const grid::Lattice& lattice() const { return *lattice_; }
  const pseudo::AtomList& atoms() const { return atoms_; }
  const grid::GSphere& sphere() const { return *sphere_; }
  ham::Hamiltonian& hamiltonian() { return *h_; }
  const ham::Hamiltonian& hamiltonian() const { return *h_; }
  size_t natoms() const { return atoms_.natoms(); }
  size_t nbands() const { return nbands_; }
  real_t nelec() const { return nelec_; }

 private:
  SystemSpec spec_;
  std::unique_ptr<grid::Lattice> lattice_;
  pseudo::AtomList atoms_;
  std::unique_ptr<grid::GSphere> sphere_;
  std::unique_ptr<grid::FftGrid> wfc_grid_;
  std::unique_ptr<grid::FftGrid> den_grid_;
  std::unique_ptr<ham::Hamiltonian> h_;
  std::unique_ptr<td::LaserPulse> laser_;
  std::optional<td::LaserParams> pending_laser_;  // lazy envelope placement
  gs::ScfResult gs_;
  bool gs_done_ = false;
  size_t nbands_ = 0;
  real_t nelec_ = 0.0;
};

}  // namespace ptim::core
