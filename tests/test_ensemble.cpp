// The ensemble serving layer: the measurement framework units, the
// RunConfig/run() driver pinned bitwise against a hand-stepped propagator,
// lazy laser-envelope placement, and the tentpole guarantee — an
// EnsembleDriver batch whose ACE builds share packed exchange FFTs is
// BITWISE identical, per trajectory, to N independent serial runs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/ensemble.hpp"
#include "core/simulation.hpp"
#include "ham/isdf.hpp"
#include "td/observables.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

core::Simulation& shared_sim() {
  static core::Simulation* sim = [] {
    core::SystemSpec spec;
    spec.ecut = 1.5;  // very small: 8-atom cell must stay test-fast
    spec.temperature_k = 8000.0;
    spec.extra_states_per_atom = 0.5;
    spec.scf.tol_rho = 5e-5;
    spec.scf.max_scf = 120;
    spec.scf.davidson_tol = 1e-6;
    spec.scf.max_outer_ace = 3;
    auto* s = new core::Simulation(spec);
    s->prepare_ground_state();
    return s;
  }();
  return *sim;
}

core::RunConfig ace_config(int steps) {
  core::RunConfig cfg;
  cfg.steps = steps;
  cfg.dt = 1.0;
  cfg.variant = td::PtImVariant::kAce;
  cfg.tol = 1e-7;
  return cfg;
}

bool bitwise_equal(const la::MatC& a, const la::MatC& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

}  // namespace

// --- measurement framework units (no Simulation needed) -------------------

TEST(Measurements, SeriesStatsAndBinning) {
  core::MeasurementSet m;
  m.add("t", [](const core::MeasureContext& c) { return c.time; });
  m.add("step2", [](const core::MeasureContext& c) {
    return static_cast<real_t>(c.step * c.step);
  });
  const std::vector<real_t> rho(4, 0.25);
  for (int k = 0; k < 7; ++k) {
    core::MeasureContext ctx;
    ctx.rho = &rho;
    ctx.time = 1.0 + k;
    ctx.step = k;
    m.record(ctx);
  }
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.has("t"));
  EXPECT_FALSE(m.has("nope"));
  ASSERT_EQ(m.series("t").size(), 7u);
  EXPECT_DOUBLE_EQ(m.series("t")[3], 4.0);

  const core::RunningStats& s = m.stats("t");  // samples 1..7
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_NEAR(s.variance(), 28.0 / 6.0, 1e-14);  // sum (k-4)^2 = 28, n-1 = 6
  EXPECT_NEAR(s.stddev(), std::sqrt(28.0 / 6.0), 1e-14);

  // 7 samples in 3 bins: 2 + 2 + 3 (remainder folds into the last bin).
  const auto b = m.binned("t", 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0], 1.5);
  EXPECT_DOUBLE_EQ(b[1], 3.5);
  EXPECT_DOUBLE_EQ(b[2], 6.0);
  // More bins than samples degrades to one sample per bin.
  EXPECT_EQ(m.binned("t", 100).size(), 7u);

  EXPECT_THROW(m.add("t", core::probes::sigma_trace()), Error);
  EXPECT_THROW(m.series("nope"), Error);
}

TEST(Measurements, NeedsPhiIsEnforced) {
  core::MeasurementSet m;
  m.add("norm", [](const core::MeasureContext& c) {
    return std::real((*c.phi)(0, 0));
  }, /*needs_phi=*/true);
  EXPECT_TRUE(m.needs_phi());
  const std::vector<real_t> rho(4, 0.0);
  core::MeasureContext ctx;
  ctx.rho = &rho;
  EXPECT_THROW(m.record(ctx), Error);  // phi not gathered
}

TEST(Measurements, BuiltinProbes) {
  const la::MatC sigma = test::random_occupation_matrix(4, 7);
  std::vector<real_t> rho = {0.5, 1.5, 2.0};
  core::MeasureContext ctx;
  ctx.rho = &rho;
  ctx.sigma = &sigma;
  real_t tr = 0.0;
  for (size_t i = 0; i < 4; ++i) tr += std::real(sigma(i, i));
  EXPECT_DOUBLE_EQ(core::probes::sigma_trace()(ctx), tr);
  EXPECT_DOUBLE_EQ(core::probes::density_sum(0.25)(ctx), 1.0);
}

// --- Simulation::run pinned against a hand-stepped propagator -------------

TEST(RunConfig, SerialRunMatchesLegacyStepLoopBitwise) {
  auto& sim = shared_sim();
  const core::RunConfig cfg = ace_config(3);

  // Hand-stepped path: propagator + manual step loop + ad-hoc dipole.
  auto prop = sim.make_ptim(cfg);
  td::TdState legacy = sim.initial_state();
  std::vector<real_t> legacy_dipole;
  for (int i = 0; i < cfg.steps; ++i) {
    prop->step(legacy);
    legacy_dipole.push_back(sim.dipole_x(legacy));
  }

  // Driver path: Simulation::run + measurement framework.
  core::MeasurementSet m;
  m.add("dipole_x", sim.dipole_probe({1.0, 0.0, 0.0}));
  const auto r = sim.run(cfg, std::move(m));

  EXPECT_TRUE(bitwise_equal(r.final_state.phi, legacy.phi));
  EXPECT_TRUE(bitwise_equal(r.final_state.sigma, legacy.sigma));
  const auto& d = r.measurements.series("dipole_x");
  ASSERT_EQ(d.size(), legacy_dipole.size());
  for (size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(d[i], legacy_dipole[i]);  // same arithmetic, exact equality
  ASSERT_EQ(r.steps.size(), 3u);
  EXPECT_TRUE(r.steps.back().converged);
}

// --- the ensemble tentpole ------------------------------------------------

TEST(Ensemble, BatchedBitwiseEqualsIndependentRuns) {
  auto& sim = shared_sim();
  const core::RunConfig cfg = ace_config(3);
  constexpr int kJobs = 4;

  auto make_jobs = [] {
    std::vector<core::EnsembleJob> jobs;
    for (int i = 0; i < kJobs; ++i) {
      core::EnsembleJob j;
      j.name = "kick" + std::to_string(i);
      j.kick = {1e-3 * (i + 1), 0.0, 0.0};
      jobs.push_back(std::move(j));
    }
    return jobs;
  };

  // N independent runs, each on its own Hamiltonian + propagator — the
  // pre-ensemble workflow the batch must reproduce exactly.
  std::vector<td::TdState> independent;
  for (const auto& job : make_jobs()) {
    auto h = sim.make_rank_hamiltonian();
    h->set_vector_potential(job.kick);
    td::PtImPropagator prop(*h, cfg.ptim(), nullptr);
    td::TdState s = sim.initial_state();
    for (int i = 0; i < cfg.steps; ++i) prop.step(s);
    independent.push_back(std::move(s));
  }

  core::EnsembleDriver ens(sim, cfg);
  core::MeasurementSet proto;
  proto.add("dipole_x", sim.dipole_probe({1.0, 0.0, 0.0}));
  proto.add("sigma_trace", core::probes::sigma_trace());
  ens.set_measurements(std::move(proto));
  for (auto& j : make_jobs()) ens.submit(std::move(j));
  EXPECT_EQ(ens.pending(), static_cast<size_t>(kJobs));
  const auto batched = ens.run_all();  // one packed batch
  EXPECT_EQ(ens.pending(), 0u);

  ASSERT_EQ(batched.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(bitwise_equal(batched[i].final_state.phi,
                              independent[i].phi))
        << "job " << i;
    EXPECT_TRUE(bitwise_equal(batched[i].final_state.sigma,
                              independent[i].sigma))
        << "job " << i;
    EXPECT_EQ(batched[i].steps.size(), 3u);
    EXPECT_EQ(batched[i].measurements.series("dipole_x").size(), 3u);
    EXPECT_NEAR(batched[i].measurements.stats("sigma_trace").mean,
                sim.nelec() / 2.0, 1e-6);
  }
  // Stronger kicks displace more charge; the per-job measurement series
  // must actually differ across the ensemble.
  EXPECT_NE(batched[0].measurements.series("dipole_x").back(),
            batched[3].measurements.series("dipole_x").back());

  // Batch width is a throughput knob, not a numerics knob.
  core::EnsembleDriver ens2(sim, cfg);
  for (auto& j : make_jobs()) ens2.submit(std::move(j));
  const auto paired = ens2.run_all(/*batch_width=*/2);
  ASSERT_EQ(paired.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i)
    EXPECT_TRUE(bitwise_equal(paired[i].final_state.phi,
                              batched[i].final_state.phi))
        << "width=2 job " << i;
}

TEST(Ensemble, IsdfBatchedBitwiseEqualsIndependentRuns) {
  // Under ISDF each trajectory holds its own interpolation points for the
  // step, so the batch must fit every job with its OWN set. Jobs start from
  // distinct states, and c = 2 keeps Nmu below Ng, so fresh selections
  // genuinely differ between trajectories.
  auto& sim = shared_sim();
  core::RunConfig cfg = ace_config(2);
  cfg.compression = ham::ExchangeCompression::kIsdf;
  cfg.isdf_rank_factor = 2.0;
  constexpr int kJobs = 3;
  const td::TdState ground = sim.initial_state();
  const size_t ng = sim.hamiltonian().exchange_op().map().grid().size();
  const size_t nb = ground.phi.cols();
  ASSERT_LT(ham::isdf::rank(*cfg.isdf_rank_factor, nb, nb, ng), ng);

  // Distinct starting states: the ground state after k strongly kicked
  // dense steps.
  std::vector<td::TdState> starts;
  {
    auto h = sim.make_rank_hamiltonian();
    h->set_vector_potential({2e-2, 0.0, 0.0});
    td::PtImPropagator prop(*h, ace_config(1).ptim(), nullptr);
    td::TdState s = ground;
    for (int k = 0; k < kJobs; ++k) {
      starts.push_back(s);
      prop.step(s);
    }
  }
  auto make_jobs = [&] {
    std::vector<core::EnsembleJob> jobs;
    for (int i = 0; i < kJobs; ++i) {
      core::EnsembleJob j;
      j.name = "isdf" + std::to_string(i);
      j.kick = {1e-3 * (i + 1), 0.0, 0.0};
      j.initial = starts[static_cast<size_t>(i)];
      jobs.push_back(std::move(j));
    }
    return jobs;
  };

  std::vector<td::TdState> independent;
  for (const auto& job : make_jobs()) {
    auto h = sim.make_rank_hamiltonian();
    h->set_vector_potential(job.kick);
    td::PtImPropagator prop(*h, cfg.ptim(), nullptr);
    td::TdState s = *job.initial;
    for (int i = 0; i < cfg.steps; ++i) prop.step(s);
    independent.push_back(std::move(s));
  }

  core::EnsembleDriver ens(sim, cfg);
  for (auto& j : make_jobs()) ens.submit(std::move(j));
  const auto batched = ens.run_all();
  ASSERT_EQ(batched.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(bitwise_equal(batched[i].final_state.phi,
                              independent[i].phi))
        << "job " << i;
    EXPECT_TRUE(bitwise_equal(batched[i].final_state.sigma,
                              independent[i].sigma))
        << "job " << i;
  }
}

// --- failure containment: unrun jobs stay recoverable ---------------------

TEST(Ensemble, FailedRunLeavesUnrunJobsSubmitted) {
  auto& sim = shared_sim();
  const core::RunConfig cfg = ace_config(2);

  const auto make_jobs = [] {
    std::vector<core::EnsembleJob> jobs;
    for (int k = 1; k <= 3; ++k) {
      core::EnsembleJob j;
      j.name = "kick_" + std::to_string(k);
      j.kick = {k * 1e-3, 0.0, 0.0};
      jobs.push_back(std::move(j));
    }
    return jobs;
  };

  // A probe with an injected fault: the first sample of the first batch
  // throws, as a solver divergence or I/O error mid-campaign would.
  static bool boom = true;
  boom = true;
  core::MeasurementSet proto;
  proto.add("fuse", [](const core::MeasureContext&) -> real_t {
    if (boom) throw Error("injected probe failure");
    return 0.0;
  });

  core::EnsembleDriver ens(sim, cfg);
  for (auto& j : make_jobs()) ens.submit(std::move(j));
  ens.set_measurements(proto);
  EXPECT_THROW(ens.run_all(/*batch_width=*/1), Error);
  // run_all drains the queue one batch at a time: the failing batch and
  // every batch after it are still submitted, not silently dropped.
  EXPECT_EQ(ens.pending(), 3u);

  // Clear the fault and retry on the SAME driver: all jobs complete and
  // match a clean driver bitwise.
  boom = false;
  const auto retried = ens.run_all(/*batch_width=*/1);
  ASSERT_EQ(retried.size(), 3u);
  EXPECT_EQ(ens.pending(), 0u);

  core::EnsembleDriver clean(sim, cfg);
  for (auto& j : make_jobs()) clean.submit(std::move(j));
  clean.set_measurements(proto);
  const auto ref = clean.run_all(/*batch_width=*/1);
  ASSERT_EQ(ref.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        bitwise_equal(retried[i].final_state.phi, ref[i].final_state.phi))
        << "job " << i;
    EXPECT_TRUE(
        bitwise_equal(retried[i].final_state.sigma, ref[i].final_state.sigma))
        << "job " << i;
  }
}

// --- a laser and a kick are exclusive per job -----------------------------

TEST(EnsembleSubmit, RejectsLaserPlusKickNamingTheJob) {
  // The propagator sets A from the laser every step, so a kick submitted
  // with a laser used to vanish: the job ended bitwise equal to the plain
  // pulse run. submit() now refuses it instead.
  core::EnsembleDriver ens(shared_sim(), ace_config(1));
  core::EnsembleJob job;
  job.name = "pump_and_kick";
  job.laser = td::LaserParams{};
  job.kick = {0.0, 0.0, 1e-3};
  try {
    ens.submit(job);
    ADD_FAILURE() << "a laser + kick job was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("pump_and_kick"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ens.pending(), 0u);

  // Either perturbation alone is accepted.
  core::EnsembleJob pulse = job;
  pulse.kick = {};
  ens.submit(pulse);
  core::EnsembleJob kick = job;
  kick.laser.reset();
  ens.submit(kick);
  EXPECT_EQ(ens.pending(), 2u);
}

// --- lazy laser-envelope placement (LAST: mutates shared_sim's laser) -----

TEST(LazyLaser, ResolvesAgainstRunHorizon) {
  auto& sim = shared_sim();
  const core::RunConfig cfg = ace_config(3);

  td::LaserParams lp;
  lp.e0 = 5e-3;
  lp.wavelength_nm = 380.0;

  // Lazy attach: parameters only; run() places the envelope against its
  // own horizon.
  sim.set_laser(lp);
  EXPECT_EQ(sim.laser(), nullptr);
  const auto lazy = sim.run(cfg);
  ASSERT_NE(sim.laser(), nullptr);
  const real_t efield_lazy = sim.laser()->efield(1.0);

  // A longer run re-resolves the SAME pending parameters against its own
  // horizon: the default-centered envelope genuinely moves.
  (void)sim.make_ptim(ace_config(9));  // resolves for a 9-step horizon
  EXPECT_NE(sim.laser()->efield(1.0), efield_lazy);

  // An ensemble can mix per-job envelopes off one Simulation: the job
  // carrying the pulse sees a field, the kick-only job does not.
  core::EnsembleDriver ens(sim, cfg);
  core::EnsembleJob pulsed;
  pulsed.name = "pulsed";
  pulsed.laser = lp;
  core::EnsembleJob dark;
  dark.name = "dark";
  dark.kick = {1e-3, 0.0, 0.0};
  ens.submit(std::move(pulsed));
  ens.submit(std::move(dark));
  const auto r = ens.run_all();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_FALSE(bitwise_equal(r[0].final_state.phi, r[1].final_state.phi));
  // The pulsed job reproduces the lazy serial run above (same params, same
  // horizon) even though it ran through the batch machinery.
  EXPECT_TRUE(bitwise_equal(r[0].final_state.phi, lazy.final_state.phi));
}
