// Crash-safe ensemble campaigns: the persistent job queue round-trips
// specs exactly, a campaign killed at an arbitrary step resumes from its
// latest VALID checkpoint and replays the committed golden fixture —
// serial and band-distributed — landing bitwise on the uninterrupted
// endpoint, a corrupted/truncated newest checkpoint falls back to an older
// valid one (and a torn .tmp is never selected), multi-worker dispatch is
// bitwise per job, and a drifted-config resume is refused, not silently
// wrong.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/simulation.hpp"
#include "ham/density.hpp"
#include "io/checkpoint.hpp"
#include "io/job_queue.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

constexpr real_t kTol = 1e-10;
constexpr size_t kBands = 6;
const char* kFixture = "ptim_ace_10step.txt";

bool bitwise_equal(const la::MatC& a, const la::MatC& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Recursively delete a campaign directory (two levels: queue records +
// per-job checkpoint dirs). A fresh dir per test keeps runs independent.
void remove_tree(const std::string& path) {
  for (const std::string& name : io::list_dir(path))
    remove_tree(path + "/" + name);
  ::rmdir(path.c_str());
  std::remove(path.c_str());
}

// --- golden-trajectory scaffolding (mirrors tests/test_io.cpp) ------------

td::PtImOptions ptim_options() {
  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-8;
  opt.variant = td::PtImVariant::kAce;
  return opt;
}

td::TdState initial_state(size_t npw) {
  td::TdState s;
  s.phi = test::random_orbitals(npw, kBands, 641);
  s.sigma = test::random_occupation_matrix(kBands, 642);
  return s;
}

// The golden fixture's tiny system, shared by every campaign job Hamiltonian
// (grids and atoms are read-only under propagation; each job gets its OWN
// Hamiltonian instance from the factory below).
test::TinySystem& tiny() {
  static test::TinySystem* sys =
      new test::TinySystem(test::TinySystem::make(3.0));
  return *sys;
}

std::unique_ptr<ham::Hamiltonian> make_tiny_ham() {
  test::TinySystem& s = tiny();
  return std::make_unique<ham::Hamiltonian>(*s.lattice, s.atoms, *s.sphere,
                                            *s.wfc_grid, *s.den_grid,
                                            ham::HamiltonianOptions{});
}

// Host Simulation: supplies config_hash context only — campaign jobs carry
// explicit tiny-system states + the ham_factory, so no ground state and no
// dimensional match with the Simulation's own (8-atom) cell is needed.
core::Simulation& host_sim() {
  static core::Simulation* sim = [] {
    core::SystemSpec spec;
    spec.ecut = 1.5;
    return new core::Simulation(spec);
  }();
  return *sim;
}

core::RunConfig campaign_config(int steps, int every) {
  core::RunConfig cfg;
  cfg.steps = steps;
  cfg.dt = 0.5;
  cfg.tol = 1e-8;
  cfg.variant = td::PtImVariant::kAce;
  cfg.checkpoint_every = every;
  return cfg;
}

// The serial observation ruler of the golden harness, reshaped into
// measurement probes: a dedicated kExactDiag Hamiltonian so the
// propagator's exchange mutations cannot leak into the measured Fock
// energy. The energy probe mutates the shared observer Hamiltonian, so
// campaigns using it need nworkers == 1 (multi-worker tests use the pure
// probes only).
core::MeasurementSet golden_probes() {
  auto h = std::make_shared<ham::Hamiltonian>(
      *tiny().lattice, tiny().atoms, *tiny().sphere, *tiny().wfc_grid,
      *tiny().den_grid, ham::HamiltonianOptions{});
  h->set_exchange_mode(ham::ExchangeMode::kExactDiag);
  core::MeasurementSet m;
  m.add(
      "energy",
      [h](const core::MeasureContext& c) {
        h->set_density(*c.rho);
        return h->energy(*c.phi, *c.sigma, *c.rho).total();
      },
      /*needs_phi=*/true);
  grid::FftGrid* den_grid = tiny().den_grid.get();
  m.add("dipole_x", [den_grid](const core::MeasureContext& c) {
    return td::dipole(*c.rho, *den_grid, {1.0, 0.0, 0.0});
  });
  m.add("sigma_trace", core::probes::sigma_trace());
  return m;
}

void expect_series_match_fixture(const core::MeasurementSet& m, size_t count,
                                 const char* what) {
  const test::GoldenTrajectory ref = test::golden_load(kFixture);
  ASSERT_LE(count, ref.steps.size()) << what;
  const std::vector<real_t>& e = m.series("energy");
  const std::vector<real_t>& d = m.series("dipole_x");
  const std::vector<real_t>& t = m.series("sigma_trace");
  ASSERT_EQ(e.size(), count) << what;
  ASSERT_EQ(d.size(), count) << what;
  ASSERT_EQ(t.size(), count) << what;
  for (size_t k = 0; k < count; ++k) {
    EXPECT_NEAR(e[k], ref.steps[k].energy, kTol) << what << " fixture row "
                                                 << k;
    EXPECT_NEAR(d[k], ref.steps[k].dipole, kTol) << what << " fixture row "
                                                 << k;
    EXPECT_NEAR(t[k], ref.steps[k].sigma_trace, kTol)
        << what << " fixture row " << k;
  }
}

// Uninterrupted serial reference: fresh system + propagator, `steps` from
// the golden initial state (optionally kicked).
td::TdState run_serial_steps(int steps, grid::Vec3 kick = {0.0, 0.0, 0.0}) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  sys.ham->set_vector_potential(kick);
  td::TdState s = initial_state(sys.sphere->npw());
  td::PtImPropagator prop(*sys.ham, ptim_options(), nullptr);
  for (int i = 0; i < steps; ++i) prop.step(s);
  return s;
}

void expect_state_bitwise(const td::TdState& got, const td::TdState& want,
                          const char* what) {
  EXPECT_TRUE(bitwise_equal(got.phi, want.phi)) << what;
  EXPECT_TRUE(bitwise_equal(got.sigma, want.sigma)) << what;
  EXPECT_EQ(std::memcmp(&got.time, &want.time, sizeof(real_t)), 0) << what;
}

}  // namespace

// --- job queue persistence ------------------------------------------------

TEST(JobQueue, PersistsAndReloadsRecordsExactly) {
  const std::string dir = "test_campaign_queue";
  remove_tree(dir);

  io::JobSpec laser_spec;
  laser_spec.name = "pump";
  laser_spec.steps = 10;
  laser_spec.t_horizon = 5.0;
  // Values that are NOT exactly representable short decimals: %.17g must
  // round-trip them bit-for-bit.
  laser_spec.kick = {1e-3, -2.5e-4, 3.0 + 1e-13};
  laser_spec.has_laser = true;
  laser_spec.laser.e0 = 2.4e-2;
  laser_spec.laser.wavelength_nm = 800.0;
  laser_spec.laser.t_center = 1.25;
  laser_spec.laser.t_width = 0.4 + 1e-14;
  laser_spec.laser.polarization = {0.6, 0.0, 0.8};
  laser_spec.config_hash = 0xdeadbeefcafe1234ull;

  io::JobSpec kick_spec;
  kick_spec.name = "kick_x";
  kick_spec.steps = 4;
  kick_spec.t_horizon = 2.0;
  kick_spec.kick = {1e-3, 0.0, 0.0};
  kick_spec.config_hash = 42;

  {
    io::JobQueue q(dir);
    EXPECT_EQ(q.submit(laser_spec), 0);
    EXPECT_EQ(q.submit(kick_spec), 1);
    io::JobStatus st;
    st.state = io::JobState::kRunning;
    st.steps_done = 3;
    q.update_status(0, st);
    st.state = io::JobState::kFailed;
    st.steps_done = 0;
    st.error = "boom: solver diverged";
    q.update_status(1, st);
  }

  // A fresh queue over the same directory (a restarted process) sees every
  // record, with all trajectory-determining doubles bit-exact.
  io::JobQueue q(dir);
  ASSERT_EQ(q.size(), 2u);
  const io::JobSpec& s0 = q.record(0).spec;
  EXPECT_EQ(s0.name, "pump");
  EXPECT_EQ(s0.steps, 10);
  EXPECT_TRUE(s0.has_laser);
  const auto exact = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  EXPECT_TRUE(exact(s0.t_horizon, laser_spec.t_horizon));
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(exact(s0.kick[d], laser_spec.kick[d]));
    EXPECT_TRUE(
        exact(s0.laser.polarization[d], laser_spec.laser.polarization[d]));
  }
  EXPECT_TRUE(exact(s0.laser.e0, laser_spec.laser.e0));
  EXPECT_TRUE(exact(s0.laser.t_width, laser_spec.laser.t_width));
  EXPECT_EQ(s0.config_hash, laser_spec.config_hash);
  EXPECT_EQ(q.record(0).status.state, io::JobState::kRunning);
  EXPECT_EQ(q.record(0).status.steps_done, 3u);
  EXPECT_EQ(q.record(1).status.state, io::JobState::kFailed);
  EXPECT_EQ(q.record(1).status.error, "boom: solver diverged");
  EXPECT_FALSE(q.record(1).spec.has_laser);
  EXPECT_TRUE(io::file_exists(q.job_dir(0)));

  // Atomic rewrites leave no staging files behind.
  for (const std::string& name : io::list_dir(dir))
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;

  // A spec without a status file is a submit torn between the two writes:
  // reload treats it as freshly pending, not as corruption.
  std::remove((dir + "/job_1.status").c_str());
  q.reload();
  EXPECT_EQ(q.record(1).status.state, io::JobState::kPending);
  EXPECT_EQ(q.record(1).status.steps_done, 0u);
  remove_tree(dir);
}

// --- serial kill + resume against the golden fixture ----------------------

TEST(Campaign, SerialKillAndResumeReplaysGoldenBitwise) {
  const std::string dir = "test_campaign_serial";
  remove_tree(dir);
  const core::RunConfig cfg = campaign_config(10, /*every=*/2);

  core::CampaignOptions opt;
  opt.dir = dir;
  opt.ham_factory = make_tiny_ham;
  opt.fault_hook = [](int, uint64_t done) {
    if (done == 7) throw core::CampaignKill("simulated kill after step 7");
  };
  {
    core::EnsembleCampaign camp(host_sim(), cfg, opt);
    camp.set_measurements(golden_probes());
    core::CampaignJob job;
    job.name = "golden";
    job.initial = initial_state(tiny().sphere->npw());
    EXPECT_EQ(camp.submit(job), 0);
    EXPECT_EQ(camp.pending(), 1u);
    EXPECT_THROW(camp.run(), core::CampaignKill);
    // The kill landed between checkpoints: the last persisted snapshot is
    // step 6, and the status file says so.
    EXPECT_EQ(camp.poll()[0].status.state, io::JobState::kRunning);
    EXPECT_EQ(camp.poll()[0].status.steps_done, 6u);
  }

  // A fresh campaign over the same directory — the restarted process. The
  // queue alone knows the job is in flight; run() resumes it from ckpt_6.
  core::CampaignOptions opt2 = opt;
  opt2.fault_hook = nullptr;
  core::EnsembleCampaign camp(host_sim(), cfg, opt2);
  camp.set_measurements(golden_probes());
  EXPECT_EQ(camp.pending(), 1u);
  camp.run();
  EXPECT_EQ(camp.pending(), 0u);
  EXPECT_EQ(camp.poll()[0].status.state, io::JobState::kDone);

  std::vector<core::CampaignResult> results = camp.collect();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].steps_done, 10u);
  // The restored + replayed series reproduce the committed fixture...
  expect_series_match_fixture(results[0].measurements, 10,
                              "serial kill+resume");
  // ...and the endpoint is bitwise the uninterrupted run's.
  expect_state_bitwise(results[0].final_state, run_serial_steps(10),
                       "serial kill+resume endpoint");
  remove_tree(dir);
}

// --- corrupted-checkpoint fallback ----------------------------------------

TEST(Campaign, CorruptNewestFallsBackToOlderValidCheckpoint) {
  const std::string dir = "test_campaign_corrupt";
  remove_tree(dir);
  const core::RunConfig cfg = campaign_config(6, /*every=*/2);

  core::CampaignOptions opt;
  opt.dir = dir;
  opt.ham_factory = make_tiny_ham;
  opt.fault_hook = [](int, uint64_t done) {
    if (done == 5) throw core::CampaignKill("simulated kill after step 5");
  };
  {
    core::EnsembleCampaign camp(host_sim(), cfg, opt);
    camp.set_measurements(golden_probes());
    core::CampaignJob job;
    job.name = "golden";
    job.initial = initial_state(tiny().sphere->npw());
    camp.submit(job);
    EXPECT_THROW(camp.run(), core::CampaignKill);
  }
  const std::string jd = dir + "/job_0";
  ASSERT_TRUE(io::file_exists(jd + "/ckpt_4.ckpt"));

  // Damage the chain the way real crashes do: the newest checkpoint
  // truncated mid-write, the one before it bit-flipped on disk, plus a
  // torn .tmp staging file that must never be considered at all.
  std::vector<unsigned char> bytes = slurp(jd + "/ckpt_4.ckpt");
  bytes.resize(bytes.size() / 2);
  spit(jd + "/ckpt_4.ckpt", bytes);
  bytes = slurp(jd + "/ckpt_2.ckpt");
  bytes[bytes.size() / 2] ^= 0x01;
  spit(jd + "/ckpt_2.ckpt", bytes);
  spit(jd + "/ckpt_9.ckpt.tmp", {0xde, 0xad, 0xbe, 0xef});

  // Resume: ckpt_4 and ckpt_2 are rejected, ckpt_0 (written at submit) is
  // the valid floor, and the whole trajectory replays from scratch.
  core::CampaignOptions opt2 = opt;
  opt2.fault_hook = nullptr;
  core::EnsembleCampaign camp(host_sim(), cfg, opt2);
  camp.set_measurements(golden_probes());
  EXPECT_EQ(camp.pending(), 1u);
  camp.run();

  std::vector<core::CampaignResult> results = camp.collect();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].steps_done, 6u);
  expect_series_match_fixture(results[0].measurements, 6,
                              "corrupt-fallback resume");
  expect_state_bitwise(results[0].final_state, run_serial_steps(6),
                       "corrupt-fallback endpoint");
  remove_tree(dir);
}

// --- distributed kill + resume --------------------------------------------

TEST(Campaign, DistributedKillAndResumeMatchesUninterruptedBitwise) {
  const std::string dir_ref = "test_campaign_dist_ref";
  const std::string dir = "test_campaign_dist";
  remove_tree(dir_ref);
  remove_tree(dir);
  core::RunConfig cfg = campaign_config(10, /*every=*/2);
  cfg.nranks = 4;  // band-parallel trajectory inside the worker group

  const auto launch = [&](const std::string& d,
                          core::EnsembleCampaign*& out_camp,
                          std::function<void(int, uint64_t)> fault) {
    core::CampaignOptions opt;
    opt.dir = d;
    opt.ham_factory = make_tiny_ham;
    opt.fault_hook = std::move(fault);
    out_camp = new core::EnsembleCampaign(host_sim(), cfg, opt);
    out_camp->set_measurements(golden_probes());
    core::CampaignJob job;
    job.name = "golden";
    job.initial = initial_state(tiny().sphere->npw());
    out_camp->submit(job);
  };

  // Uninterrupted distributed reference.
  core::EnsembleCampaign* ref = nullptr;
  launch(dir_ref, ref, nullptr);
  ref->run();
  std::vector<core::CampaignResult> ref_results = ref->collect();
  ASSERT_EQ(ref_results.size(), 1u);

  // Killed-at-step-7 campaign: the fault hook fires on EVERY rank of the
  // group, so the simulated crash unwinds the whole worker cleanly.
  core::EnsembleCampaign* killed = nullptr;
  launch(dir, killed, [](int, uint64_t done) {
    if (done == 7) throw core::CampaignKill("simulated kill after step 7");
  });
  EXPECT_THROW(killed->run(), core::CampaignKill);
  EXPECT_EQ(killed->poll()[0].status.steps_done, 6u);
  delete killed;

  // Restarted process: fresh campaign, resume, compare.
  core::EnsembleCampaign* resumed = nullptr;
  launch(dir, resumed, nullptr);
  // submit() above appended job 1 to the SAME directory; both jobs (the
  // interrupted 0 and the fresh 1) are runnable and both must finish.
  EXPECT_EQ(resumed->pending(), 2u);
  resumed->run();
  std::vector<core::CampaignResult> results = resumed->collect();
  ASSERT_EQ(results.size(), 2u);

  for (const core::CampaignResult& r : results) {
    EXPECT_EQ(r.steps_done, 10u);
    // Distributed series match the serial golden fixture at 1e-10...
    expect_series_match_fixture(
        r.measurements, 10,
        (r.id == 0 ? "dist kill+resume" : "dist fresh job"));
    // ...and the kill+resume endpoint is BITWISE the uninterrupted
    // distributed run's (same layout, same reduction order).
    expect_state_bitwise(r.final_state, ref_results[0].final_state,
                         "dist kill+resume endpoint");
  }
  delete resumed;
  delete ref;
  remove_tree(dir_ref);
  remove_tree(dir);
}

// --- multi-worker dispatch ------------------------------------------------

TEST(Campaign, MultiWorkerDispatchMatchesIndependentRunsBitwise) {
  const std::string dir = "test_campaign_workers";
  remove_tree(dir);
  const core::RunConfig cfg = campaign_config(4, /*every=*/0);  // final only

  core::CampaignOptions opt;
  opt.dir = dir;
  opt.nworkers = 2;  // two serial worker groups claim jobs off the cursor
  opt.ham_factory = make_tiny_ham;
  core::EnsembleCampaign camp(host_sim(), cfg, opt);
  // Concurrent workers: pure probes only (the energy probe mutates its
  // shared observer Hamiltonian).
  core::MeasurementSet probes;
  probes.add("sigma_trace", core::probes::sigma_trace());
  camp.set_measurements(probes);

  const std::vector<grid::Vec3> kicks = {
      {1e-3, 0.0, 0.0}, {2e-3, 0.0, 0.0}, {0.0, 1e-3, 0.0}};
  for (size_t k = 0; k < kicks.size(); ++k) {
    core::CampaignJob job;
    job.name = "kick_" + std::to_string(k);
    job.kick = kicks[k];
    job.initial = initial_state(tiny().sphere->npw());
    camp.submit(job);
  }
  EXPECT_EQ(camp.pending(), 3u);
  camp.run();
  EXPECT_EQ(camp.pending(), 0u);

  std::vector<core::CampaignResult> results = camp.collect();
  ASSERT_EQ(results.size(), 3u);
  for (size_t k = 0; k < kicks.size(); ++k) {
    EXPECT_EQ(results[k].id, static_cast<int>(k));
    EXPECT_EQ(results[k].name, "kick_" + std::to_string(k));
    EXPECT_EQ(results[k].measurements.series("sigma_trace").size(), 4u);
    expect_state_bitwise(results[k].final_state,
                         run_serial_steps(4, kicks[k]),
                         results[k].name.c_str());
  }
  remove_tree(dir);
}

// --- a laser + kick job is refused before anything is persisted ----------

TEST(Campaign, LaserPlusKickJobIsRejectedAtSubmit) {
  const std::string dir = "test_campaign_laser_kick";
  remove_tree(dir);
  core::CampaignOptions opt;
  opt.dir = dir;
  opt.ham_factory = make_tiny_ham;
  core::EnsembleCampaign camp(host_sim(), campaign_config(2, 0), opt);
  core::CampaignJob job;
  job.name = "pump_and_kick";
  job.laser = td::LaserParams{};
  job.kick = {1e-3, 0.0, 0.0};
  job.initial = initial_state(tiny().sphere->npw());
  try {
    camp.submit(job);
    ADD_FAILURE() << "a laser + kick job was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("pump_and_kick"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(camp.poll().empty());
  EXPECT_EQ(camp.pending(), 0u);
  remove_tree(dir);
}

// --- drifted-config resume is refused -------------------------------------

TEST(Campaign, DriftedConfigResumeIsRefusedNotSilentlyWrong) {
  const std::string dir = "test_campaign_drift";
  remove_tree(dir);
  const core::RunConfig cfg = campaign_config(2, /*every=*/0);

  core::CampaignOptions opt;
  opt.dir = dir;
  opt.ham_factory = make_tiny_ham;
  {
    core::EnsembleCampaign camp(host_sim(), cfg, opt);
    core::CampaignJob job;
    job.name = "golden";
    job.initial = initial_state(tiny().sphere->npw());
    camp.submit(job);  // persisted, never run
  }

  // Reopen under different physics (dt changed): the per-job config hash
  // rejects every checkpoint, so the job FAILS with a descriptive error
  // instead of propagating a subtly different trajectory.
  core::RunConfig drifted = cfg;
  drifted.dt = 1.0;
  core::EnsembleCampaign wrong(host_sim(), drifted, opt);
  EXPECT_EQ(wrong.pending(), 1u);
  wrong.run();
  EXPECT_EQ(wrong.poll()[0].status.state, io::JobState::kFailed);
  EXPECT_NE(wrong.poll()[0].status.error.find("no valid checkpoint"),
            std::string::npos)
      << wrong.poll()[0].status.error;

  // The checkpoint itself is intact — under the ORIGINAL config it loads.
  core::EnsembleCampaign orig(host_sim(), cfg, opt);
  const io::Checkpoint ck = io::load_checkpoint(
      dir + "/job_0/ckpt_0.ckpt", orig.queue().record(0).spec.config_hash);
  EXPECT_EQ(ck.step_index, 0u);
  remove_tree(dir);
}
