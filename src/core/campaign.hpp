#pragma once
// Crash-safe ensemble campaigns: a persistent submit/poll/collect front
// end (io::JobQueue) dispatching trajectory jobs across ptmpi ranks —
// trajectory-level parallelism layered ON TOP of the band/grid parallelism
// inside each trajectory. The campaign directory alone is the durable
// state: a process killed at ANY step can reopen the directory with a
// fresh EnsembleCampaign and run() resumes every in-flight job from its
// latest VALID checkpoint, replaying the uninterrupted trajectory
// bitwise (the fault-injection suite pins this against the committed
// golden fixture, serial and distributed).
//
//   core::EnsembleCampaign camp(sim, cfg, {.dir = "campaign"});
//   camp.set_measurements(proto);
//   camp.submit({"kick_x", std::nullopt, {1e-3, 0, 0}});
//   camp.run();                       // workers claim + propagate jobs
//   for (auto& r : camp.collect()) use(r.measurements, r.final_state);
//
// Execution model: run() launches nworkers rank-GROUPS of cfg.nranks ptmpi
// ranks each. Idle groups claim the next runnable job through a shared
// fetch_add cursor (Comm::fetch_add — the MPI_Fetch_and_op job-handoff
// idiom), the group leader broadcasts the claim, and the group propagates
// the job: serially for cfg.nranks == 1, else through the same
// td::PtImPropagator over a dist::BandDistributedHamiltonian that
// Simulation::run uses, over the group's split subcommunicator. The
// worker owns that band space for the job and the propagator refers to
// it, so the space is built first and outlives the propagator.
//
// Durability: every job writes ckpt_0 at submit and an io::Checkpoint
// (format v2) every cfg.checkpoint_every steps plus the final step, into
// <dir>/job_<id>/ckpt_<step>.ckpt. The measurement series recorded so far
// ride in the checkpoint's campaign_meta blob, so ONE atomic file carries
// everything a resume needs; saves are tmp + fsync + rename, so a torn
// write is never visible under a checkpoint name. Resume scans the job's
// checkpoints newest-first and takes the first one that validates
// (checksum + config hash) — a truncated or corrupted newest file falls
// back to the previous valid one.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ensemble.hpp"
#include "core/simulation.hpp"
#include "io/job_queue.hpp"

namespace ptim::core {

// Thrown by a fault_hook to simulate a hard kill mid-campaign.
// Deliberately NOT a ptim::Error: the serial worker's per-job error
// containment (Error -> job marked failed) must never swallow a simulated
// crash — a kill aborts run() like a real SIGKILL would abort the process.
struct CampaignKill : std::runtime_error {
  explicit CampaignKill(const std::string& msg) : std::runtime_error(msg) {}
};

struct CampaignOptions {
  std::string dir;        // campaign directory (queue + checkpoints)
  int nworkers = 1;       // concurrent worker rank-groups
  // Override per-job Hamiltonian construction (default:
  // Simulation::make_rank_hamiltonian). The test harness injects the tiny
  // golden-fixture system here; jobs always carry their state explicitly
  // (ckpt_0), so the job's dimensions come from its checkpoint, not from
  // the Simulation.
  std::function<std::unique_ptr<ham::Hamiltonian>()> ham_factory;
  // Fault-injection seam: called on EVERY rank of the owning group after
  // each committed step (post-checkpoint, a collective-free point), with
  // the job id and the number of steps done. Throwing CampaignKill here
  // simulates a crash at exactly that step.
  std::function<void(int job_id, uint64_t steps_done)> fault_hook;
};

// One ensemble trajectory job (mirrors EnsembleJob: per-job laser, delta
// kick, optional replacement initial state). As there, a laser and a
// nonzero kick are exclusive: submit() throws on both.
struct CampaignJob {
  std::string name;
  std::optional<td::LaserParams> laser;
  grid::Vec3 kick{0.0, 0.0, 0.0};
  std::optional<td::TdState> initial;  // unset = the shared ground state
};

struct CampaignResult {
  int id = -1;
  std::string name;
  td::TdState final_state;
  MeasurementSet measurements;  // probe set + series restored from disk
  uint64_t steps_done = 0;
};

class EnsembleCampaign {
 public:
  // Opening an existing campaign directory restores the full queue from
  // disk: previously submitted jobs keep their ids, statuses and
  // checkpoint chains, so run() continues exactly where the killed
  // process stopped. cfg must describe the same physics the jobs were
  // submitted under (the per-job config hash rejects a drifted resume).
  // cfg.checkpoint_every sets the auto-checkpoint cadence (the final step
  // is always checkpointed — collect() reads results from checkpoints).
  EnsembleCampaign(Simulation& sim, RunConfig cfg, CampaignOptions opt);

  // Persist a new job: spec + pending status + its ckpt_0 (initial state,
  // kick as the starting vector potential). Returns the job id.
  int submit(const CampaignJob& job);

  // Measurement prototype cloned into every job. With nworkers > 1 the
  // clones record concurrently, so probes must be pure (the built-in
  // dipole/sigma probes are; Simulation::energy_probe mutates the shared
  // Hamiltonian and needs nworkers == 1).
  void set_measurements(MeasurementSet proto) { proto_ = std::move(proto); }

  // Current queue records (id, spec, last persisted status).
  const std::vector<io::JobRecord>& poll() const { return queue_.records(); }
  // Jobs still runnable (pending or in-flight from a killed process).
  size_t pending() const;

  // Propagate every runnable job to completion across the worker groups.
  // Serial groups contain per-job ptim::Error failures (job marked
  // kFailed, campaign continues); a CampaignKill always propagates.
  void run();

  // Results of every kDone job, reloaded from its final checkpoint (state
  // + measurement series) — valid in a fresh process with no run() call.
  std::vector<CampaignResult> collect();

  const io::JobQueue& queue() const { return queue_; }
  const RunConfig& config() const { return cfg_; }

 private:
  uint64_t job_hash(const io::JobSpec& spec) const;
  // Newest checkpoint in job_dir that validates against `hash` (checksum,
  // completeness, config binding); returns false if none do.
  bool load_latest_valid(const std::string& job_dir, uint64_t hash,
                         io::Checkpoint* out) const;
  // Propagate job `id` from its latest valid checkpoint to spec.steps on
  // this worker group (serial when group.size() == 1, else band/grid-
  // distributed). The group leader records measurements, saves
  // checkpoints and updates the status file.
  void run_job(ptmpi::Comm& group, int id);

  Simulation* sim_;
  RunConfig cfg_;
  CampaignOptions opt_;
  io::JobQueue queue_;
  MeasurementSet proto_;
};

}  // namespace ptim::core
