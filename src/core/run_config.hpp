#pragma once
// One consolidated run configuration for every propagation driver:
// RunConfig is the single surface Simulation::run, make_ptim and
// EnsembleDriver consume. td::PtImOptions and dist::BandHamOptions are
// derived from it (ptim() / band() below) for the propagators themselves.
//
// Hash policy (config_hash / physics_hash): the RNG-free hash stored in
// checkpoints covers exactly the fields that determine the trajectory's
// NUMBERS — dt, variant, tolerances, precision, the laser and the horizon.
// It deliberately excludes steps (that is the split point a resume moves),
// and the layout/throughput knobs (nranks, process grid, circulation
// pattern, batch size), which are all regression-pinned to be bitwise
// trajectory-invariant.

#include <cstdint>
#include <optional>
#include <string>

#include "backend/backend.hpp"
#include "dist/band_ham.hpp"
#include "dist/layout.hpp"
#include "io/checkpoint.hpp"
#include "td/laser.hpp"
#include "td/ptim.hpp"

namespace ptim::core {

struct RunConfig {
  // --- trajectory -------------------------------------------------------
  int steps = 10;
  real_t dt = 50.0 / units::au_time_as;  // 50 as, the paper's step
  // Physical end time used to place the laser envelope. 0 resolves lazily
  // to start.time + steps*dt when the run launches; a split trajectory
  // (checkpoint + resume) must set it explicitly so both segments see the
  // same envelope.
  real_t t_horizon = 0.0;

  // --- propagator -------------------------------------------------------
  td::PtImVariant variant = td::PtImVariant::kDiag;
  bool hybrid = true;
  bool evolve_sigma = true;  // false = PT-CN (frozen occupations)
  int max_scf = 30;
  real_t tol = 1e-6;
  int max_outer = 8;
  real_t tol_fock = 1e-6;
  size_t anderson_history = 20;
  real_t anderson_beta = 0.7;

  // --- exchange hot path ------------------------------------------------
  // Unset keeps whatever the Hamiltonian was configured with.
  std::optional<Precision> precision;
  std::optional<size_t> exchange_batch;  // batched-FFT block width
  // IGNORED. The ring has one host engine (dist/circulate.hpp); this field
  // only keeps perfbench.cpp:243 (cfg.backend = backend::Kind::kHostSerial)
  // compiling, and goes when perfbench drops that line.
  std::optional<backend::Kind> backend;
  // Low-rank (ISDF) compression of the exchange apply and its rank factor
  // (ham/isdf). Deliberately HASH-NEUTRAL (unlike precision): the fit is
  // derived state, rebuilt from the wavefunctions at every apply, and its
  // interpolation points are held at most for the step that selected them
  // (td/ptim.hpp), so a checkpoint — always taken between steps — carries
  // no ISDF state and a resume may tighten, relax or drop the compression
  // without invalidating earlier snapshots (the accuracy-continuation
  // workflow the rank sweep supports).
  std::optional<ham::ExchangeCompression> compression;
  std::optional<real_t> isdf_rank_factor;

  // --- process layout (distributed runs) --------------------------------
  int nranks = 1;  // 1 = serial propagation
  int ranks_per_node = 1;
  dist::ProcessGrid process_grid{};  // pb band rows x pg grid columns
  dist::ExchangePattern pattern = dist::ExchangePattern::kAsyncRing;
  bool overlap_shm = false;

  // --- durability (auto-checkpointing) ------------------------------------
  // checkpoint_every > 0 makes Simulation::run save an io::Checkpoint of
  // the committed state every K steps (and at the final step) into
  // checkpoint_dir, as `ckpt_<step>.ckpt`. Saves are atomic (tmp + rename),
  // so a kill at any instant leaves only complete files. Hash-neutral:
  // where/how often snapshots land never changes the trajectory, so old
  // checkpoints stay resumable when these knobs move (same policy as the
  // layout knobs above).
  int checkpoint_every = 0;    // 0 = no auto-checkpointing
  std::string checkpoint_dir;  // must exist when checkpoint_every > 0

  // --- observability ------------------------------------------------------
  // Both hash-neutral (physics_hash enumerates fields, so new knobs are
  // excluded by default): telemetry must never invalidate a checkpoint.
  // trace_path: when nonempty, Simulation::run records obs spans across
  // the whole run and writes ONE merged Chrome trace-event JSON there —
  // distributed runs gather every rank's buffers over ptmpi first, so the
  // file holds one process lane per rank.
  // metrics_path: when nonempty, every committed PT-IM step appends one
  // StepReport JSONL line there (per rank, for distributed runs). For
  // campaigns this knob is an enable switch: each job writes to
  // `<job's checkpoint dir>/metrics.jsonl` instead of one shared file.
  std::string trace_path;
  std::string metrics_path;

  // Resolve the envelope horizon for a run starting at t_start.
  real_t horizon(real_t t_start) const {
    return t_horizon > 0.0 ? t_horizon
                           : t_start + static_cast<real_t>(steps) * dt;
  }

  // The propagators' option structs, derived. These are the ONLY
  // conversion points, so no driver can drift from another.
  td::PtImOptions ptim() const {
    td::PtImOptions o;
    o.dt = dt;
    o.max_scf = max_scf;
    o.tol = tol;
    o.max_outer = max_outer;
    o.tol_fock = tol_fock;
    o.anderson_history = anderson_history;
    o.anderson_beta = anderson_beta;
    o.variant = variant;
    o.hybrid = hybrid;
    o.exchange_precision = precision;
    o.exchange_compression = compression;
    o.isdf_rank_factor = isdf_rank_factor;
    o.evolve_sigma = evolve_sigma;
    return o;
  }
  dist::BandHamOptions band() const {
    dist::BandHamOptions b;
    b.pattern = pattern;
    b.overlap_shm = overlap_shm;
    b.grid = process_grid;
    return b;
  }

  // Chain the physics-determining fields through FNV-1a (see the hash
  // policy above). Simulation::config_hash extends this with the system
  // dimensions and the attached laser.
  uint64_t physics_hash(uint64_t h = io::kFnvOffset) const {
    auto mix = [&h](const auto& v) { h = io::fnv1a(&v, sizeof(v), h); };
    mix(dt);
    mix(t_horizon);
    const int var = static_cast<int>(variant);
    mix(var);
    mix(hybrid);
    mix(evolve_sigma);
    mix(max_scf);
    mix(tol);
    mix(max_outer);
    mix(tol_fock);
    mix(anderson_history);
    mix(anderson_beta);
    const bool has_prec = precision.has_value();
    mix(has_prec);
    if (has_prec) {
      const int p = static_cast<int>(*precision);
      mix(p);
    }
    return h;
  }
};

}  // namespace ptim::core
