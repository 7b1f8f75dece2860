#include "core/simulation.hpp"

#include <cmath>
#include <memory>

#include "backend/buffer.hpp"
#include "common/error.hpp"
#include "ham/density.hpp"
#include "obs/obs.hpp"
#include "obs/step_report.hpp"
#include "obs/trace_export.hpp"
#include "td/observables.hpp"

namespace ptim::core {

obs::StepCounters sample_counters(const ham::ExchangeOperator& xop,
                                  ptmpi::Comm* comm) {
  obs::StepCounters sc;
  sc.ffts = xop.fft_count.load(std::memory_order_relaxed);
  sc.alloc_count = backend::buffer_alloc_count();
  sc.isdf_fit_seconds = obs::profile_get(obs::intern("isdf.fit")).seconds;
  if (comm) sc.comm = comm->stats().snapshot();
  return sc;
}

void fill_step_stats(obs::StepReport* r, const td::PtImStepStats& st) {
  r->scf_iterations = st.scf_iterations;
  r->outer_iterations = st.outer_iterations;
  r->exchange_applications = st.exchange_applications;
  r->residual = st.residual;
  r->converged = st.converged ? 1 : 0;
  r->outer_converged = st.outer_converged ? 1 : 0;
}

Simulation::Simulation(SystemSpec spec) : spec_(spec) {
  grid::Lattice tmp = grid::Lattice::cubic(1.0);
  atoms_ = pseudo::silicon_supercell(spec.nx, spec.ny, spec.nz, &tmp);
  lattice_ = std::make_unique<grid::Lattice>(tmp);

  sphere_ = std::make_unique<grid::GSphere>(*lattice_, spec.ecut);
  wfc_grid_ =
      std::make_unique<grid::FftGrid>(*lattice_, sphere_->suggest_dims(1));
  den_grid_ =
      std::make_unique<grid::FftGrid>(*lattice_, sphere_->suggest_dims(2));
  h_ = std::make_unique<ham::Hamiltonian>(*lattice_, atoms_, *sphere_,
                                          *wfc_grid_, *den_grid_, spec.ham);

  nelec_ = atoms_.total_charge();
  const auto extra = static_cast<size_t>(std::lround(
      spec.extra_states_per_atom * static_cast<real_t>(atoms_.natoms())));
  nbands_ = static_cast<size_t>(nelec_ / 2.0) + std::max<size_t>(extra, 1);
  PTIM_CHECK_MSG(nbands_ <= sphere_->npw(),
                 "SystemSpec: more bands than plane waves — raise ecut");
}

const gs::ScfResult& Simulation::prepare_ground_state() {
  gs::ScfOptions opt = spec_.scf;
  opt.nbands = nbands_;
  opt.nelec = nelec_;
  opt.temperature_k = spec_.temperature_k;
  gs_ = gs::ground_state(*h_, opt);
  gs_done_ = true;
  return gs_;
}

const gs::ScfResult& Simulation::ground_state() const {
  PTIM_CHECK_MSG(gs_done_, "call prepare_ground_state() first");
  return gs_;
}

td::TdState Simulation::initial_state() const {
  const auto& g = ground_state();
  return td::TdState::from_occupations(g.phi, g.occ);
}

void Simulation::set_laser(td::LaserParams p) {
  pending_laser_ = p;
  laser_.reset();  // placed lazily against the next run's horizon
}

const td::LaserPulse* Simulation::resolve_laser(real_t horizon) {
  // Pending params are kept: a later run with a different horizon re-places
  // the envelope (the lazy-laser contract ensemble jobs rely on).
  if (pending_laser_)
    laser_ = std::make_unique<td::LaserPulse>(*pending_laser_, horizon);
  return laser_.get();
}

std::unique_ptr<td::PtImPropagator> Simulation::make_ptim(
    const RunConfig& cfg) {
  resolve_laser(cfg.horizon(0.0));
  if (cfg.exchange_batch) set_exchange_batch(*cfg.exchange_batch);
  return std::make_unique<td::PtImPropagator>(*h_, cfg.ptim(), laser_.get());
}

std::unique_ptr<ham::Hamiltonian> Simulation::make_rank_hamiltonian() const {
  return std::make_unique<ham::Hamiltonian>(*lattice_, atoms_, *sphere_,
                                            *wfc_grid_, *den_grid_, spec_.ham);
}

Simulation::RunResult Simulation::run(const RunConfig& cfg,
                                      MeasurementSet measurements,
                                      const td::TdState* start,
                                      uint64_t start_step) {
  PTIM_CHECK_MSG(cfg.nranks >= 1 && cfg.steps >= 0, "RunConfig: bad options");
  PTIM_CHECK_MSG(cfg.checkpoint_every <= 0 || !cfg.checkpoint_dir.empty(),
                 "RunConfig: checkpoint_every set without a checkpoint_dir");
  const td::TdState initial = start ? *start : initial_state();
  resolve_laser(cfg.horizon(initial.time));
  if (cfg.exchange_batch) set_exchange_batch(*cfg.exchange_batch);

  RunResult result;
  result.measurements = std::move(measurements);
  result.steps.resize(static_cast<size_t>(cfg.steps));

  // Auto-checkpoint cadence: every K committed steps and at the last one,
  // named by ABSOLUTE step index so a resumed segment's snapshots line up
  // with the uninterrupted run's.
  const auto ckpt_due = [&cfg](uint64_t done, int step) {
    return cfg.checkpoint_every > 0 &&
           (done % static_cast<uint64_t>(cfg.checkpoint_every) == 0 ||
            step + 1 == cfg.steps);
  };
  const auto ckpt_path = [&cfg](uint64_t done) {
    return cfg.checkpoint_dir + "/ckpt_" + std::to_string(done) + ".ckpt";
  };

  // Observability knobs (both hash-neutral). Tracing spans the whole run;
  // the previous enabled state is restored on exit so a traced run inside
  // a larger process (tests, benches) cannot leak recording into it.
  const bool tracing = !cfg.trace_path.empty();
  const bool was_enabled = obs::enabled();
  if (tracing) {
    obs::clear();
    obs::set_enabled(true);
  }
  std::shared_ptr<obs::MetricsSink> metrics;
  if (!cfg.metrics_path.empty())
    metrics = std::make_shared<obs::MetricsSink>(cfg.metrics_path);

  const bool want_phi = result.measurements.needs_phi();
  // Hash once on the launcher thread; the rank lambdas only read it.
  const uint64_t cfg_hash = cfg.checkpoint_every > 0 ? config_hash(cfg) : 0;

  // One step loop for every layout; the propagator's band space supplies
  // the density and the full-state gather. `h` is the Hamiltonian the
  // propagator drives (it carries the live vector potential: delta kick,
  // laser phase) and `c` the world communicator of a distributed run, null
  // when serial. Returns the final full state.
  const auto propagate = [&](ham::Hamiltonian& h, td::PtImPropagator& prop,
                             td::TdState s, ptmpi::Comm* c) {
    const bool root = !c || c->rank() == 0;
    // Per-rank metrics sampler: each rank reports its own comm/FFT deltas
    // into the shared (thread-safe) sink, keyed by its rank column.
    obs::StepSampler sampler;
    if (metrics) sampler.begin(sample_counters(h.exchange_op(), c));
    for (int step = 0; step < cfg.steps; ++step) {
      const td::PtImStepStats st = prop.step(s);
      const uint64_t done = start_step + static_cast<uint64_t>(step) + 1;
      if (metrics) {
        obs::StepReport r = sampler.end(sample_counters(h.exchange_op(), c));
        if (c) r.rank = c->rank();
        r.step = static_cast<long>(done);
        fill_step_stats(&r, st);
        metrics->write(r);
        sampler.begin(sample_counters(h.exchange_op(), c));
      }
      // rho is reduced over the band communicator (and the grid columns
      // compute it redundantly and identically), so rho-derived probes see
      // the same values on every rank; world rank 0 records them. Probes
      // that read Phi force a full gather every step (collective over the
      // band communicator; each grid column gathers redundantly).
      const std::vector<real_t> rho = prop.space().density(s);
      const bool ckpt = ckpt_due(done, step);
      td::TdState full;
      if (want_phi || ckpt) full = prop.space().gather(s);
      if (!root) continue;
      result.steps[static_cast<size_t>(step)] = st;
      result.measurements.record({&rho, want_phi ? &full.phi : nullptr,
                                  &s.sigma, s.time,
                                  static_cast<int>(start_step) + step});
      // The committed state a resume restores, so saving here is
      // bitwise-safe.
      if (ckpt) {
        io::Checkpoint ck;
        ck.state = std::move(full);
        ck.step_index = done;
        ck.config_hash = cfg_hash;
        ck.avec = h.vector_potential();
        io::save_checkpoint(ckpt_path(done), ck);
      }
    }
    return prop.space().gather(s);
  };

  if (cfg.nranks == 1) {
    td::PtImPropagator prop(*h_, cfg.ptim(), laser_.get());
    result.final_state = propagate(*h_, prop, initial, nullptr);
    if (tracing) {
      obs::set_enabled(was_enabled);
      obs::write_chrome_trace(cfg.trace_path, obs::snapshot());
      obs::clear();
    }
    return result;
  }

  // 2-D layout: RunConfig::process_grid splits the nranks world into pb
  // band rows x pg grid columns; pg == 1 is the pure band-parallel path.
  // resolve_pb validates pb*pg == nranks in EVERY mode, so an explicitly
  // set but inconsistent layout is rejected rather than silently ignored.
  (void)cfg.process_grid.resolve_pb(cfg.nranks);
  ptmpi::run_ranks(cfg.nranks, cfg.ranks_per_node, [&](ptmpi::Comm& c) {
    // Per-rank Hamiltonian over the shared read-only grids/atoms; carries
    // the live vector potential (delta-kick / resumed laser phase).
    std::unique_ptr<ham::Hamiltonian> h = make_rank_hamiltonian();
    h->set_vector_potential(h_->vector_potential());
    dist::BandDistributedHamiltonian bdh(c, *h, nbands_, cfg.band());
    td::PtImPropagator prop(bdh, cfg.ptim(), laser_.get());
    // Grid column 0 contains world rank 0, which holds the full state for
    // the caller.
    td::TdState s = td::scatter_state(
        initial, bdh.bands(), cfg.process_grid.band_rank_of(c.rank()));
    td::TdState full = propagate(*h, prop, std::move(s), &c);
    if (c.rank() == 0) result.final_state = std::move(full);
    if (tracing) {
      // Rank-merged trace: after the barrier every rank is past its last
      // instrumented operation, so the per-rank snapshots are quiesced.
      // Each rank filters to its own span set and ships it to world rank
      // 0, which writes ONE timeline with a process lane per rank.
      c.barrier();
      const std::vector<obs::Span> merged =
          obs::gather_spans(c, obs::snapshot(c.rank()));
      if (c.rank() == 0) obs::write_chrome_trace(cfg.trace_path, merged);
    }
  });
  result.comm = ptmpi::last_run_stats();
  if (tracing) {
    obs::set_enabled(was_enabled);
    obs::clear();
  }
  return result;
}

uint64_t Simulation::config_hash(const RunConfig& cfg) const {
  uint64_t h = cfg.physics_hash();
  auto mix = [&h](const auto& v) { h = io::fnv1a(&v, sizeof(v), h); };
  const uint64_t npw = sphere_->npw();
  const uint64_t nb = nbands_;
  const uint64_t na = atoms_.natoms();
  mix(npw);
  mix(nb);
  mix(na);
  mix(spec_.ecut);
  mix(spec_.temperature_k);
  // The laser is part of the physics (a pulse only ever comes from pending
  // parameters, so those are what the hash sees).
  const td::LaserParams* lp = pending_laser_ ? &*pending_laser_ : nullptr;
  const bool has_laser = lp != nullptr;
  mix(has_laser);
  if (lp) {
    mix(lp->e0);
    mix(lp->wavelength_nm);
    mix(lp->t_center);
    mix(lp->t_width);
    for (int d = 0; d < 3; ++d) mix(lp->polarization[d]);
  }
  return h;
}

io::Checkpoint Simulation::checkpoint(const RunConfig& cfg,
                                      const td::TdState& s,
                                      uint64_t steps_done) const {
  io::Checkpoint c;
  c.state = s;
  c.step_index = steps_done;
  c.config_hash = config_hash(cfg);
  c.avec = h_->vector_potential();
  return c;
}

td::TdState Simulation::restore(const io::Checkpoint& c) {
  h_->set_vector_potential(c.avec);
  return c.state;
}

Probe Simulation::dipole_probe(grid::Vec3 dir) const {
  const grid::FftGrid* g = den_grid_.get();
  return [g, dir](const MeasureContext& ctx) {
    return td::dipole(*ctx.rho, *g, dir);
  };
}

Probe Simulation::energy_probe() {
  return [this](const MeasureContext& ctx) {
    h_->set_density(*ctx.rho);
    return h_->energy(*ctx.phi, *ctx.sigma, *ctx.rho).total();
  };
}

void Simulation::measure(MeasurementSet& m, const td::TdState& s,
                         int step) const {
  const std::vector<real_t> rho = density(s);
  m.record({&rho, &s.phi, &s.sigma, s.time, step});
}

std::vector<real_t> Simulation::density(const td::TdState& s) const {
  return ham::density_sigma(s.phi, s.sigma, h_->den_map());
}

real_t Simulation::dipole(const td::TdState& s, const grid::Vec3& dir) const {
  return td::dipole(density(s), *den_grid_, dir);
}

ham::EnergyTerms Simulation::energy(const td::TdState& s) const {
  const std::vector<real_t> rho = density(s);
  h_->set_density(rho);
  return h_->energy(s.phi, s.sigma, rho);
}

}  // namespace ptim::core
