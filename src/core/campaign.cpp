#include "core/campaign.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "obs/step_report.hpp"

namespace ptim::core {

namespace {

// --- campaign_meta blob --------------------------------------------------
// The measurement series recorded so far, serialized into the checkpoint's
// opaque metadata block (see io/checkpoint.hpp):
//   u64 version (1), u64 nseries,
//   per series: u64 name_len, name bytes, u64 count, count x f64.
// Raw IEEE-754 doubles, so restore -> replay is bitwise.

constexpr uint64_t kMetaVersion = 1;

void append_bytes(std::vector<uint8_t>& out, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
void append_pod(std::vector<uint8_t>& out, const T& v) {
  append_bytes(out, &v, sizeof(T));
}

std::vector<uint8_t> serialize_series(const MeasurementSet& m) {
  std::vector<uint8_t> out;
  const std::vector<std::string> names = m.names();
  append_pod<uint64_t>(out, kMetaVersion);
  append_pod<uint64_t>(out, names.size());
  for (const std::string& name : names) {
    append_pod<uint64_t>(out, name.size());
    append_bytes(out, name.data(), name.size());
    const std::vector<real_t>& s = m.series(name);
    append_pod<uint64_t>(out, s.size());
    append_bytes(out, s.data(), s.size() * sizeof(real_t));
  }
  return out;
}

std::map<std::string, std::vector<real_t>> parse_series(
    const std::vector<uint8_t>& meta) {
  std::map<std::string, std::vector<real_t>> out;
  if (meta.empty()) return out;  // ckpt_0: nothing recorded yet
  size_t pos = 0;
  const auto take = [&](void* p, size_t n) {
    PTIM_CHECK_MSG(pos + n <= meta.size(),
                   "campaign metadata blob truncated");
    std::memcpy(p, meta.data() + pos, n);
    pos += n;
  };
  uint64_t version = 0, nseries = 0;
  take(&version, sizeof(version));
  PTIM_CHECK_MSG(version == kMetaVersion,
                 "unsupported campaign metadata version " << version);
  take(&nseries, sizeof(nseries));
  for (uint64_t i = 0; i < nseries; ++i) {
    uint64_t name_len = 0, count = 0;
    take(&name_len, sizeof(name_len));
    PTIM_CHECK_MSG(name_len < (1ull << 16),
                   "campaign metadata: implausible series name length");
    std::string name(name_len, '\0');
    if (name_len) take(name.data(), name_len);
    take(&count, sizeof(count));
    PTIM_CHECK_MSG(count < (1ull << 32),
                   "campaign metadata: implausible series length");
    std::vector<real_t> vals(count);
    if (count) take(vals.data(), count * sizeof(real_t));
    out.emplace(std::move(name), std::move(vals));
  }
  return out;
}

void restore_into(MeasurementSet& m,
                  const std::map<std::string, std::vector<real_t>>& series) {
  // Only names the prototype registers are restored; extra serialized
  // series (a probe set that shrank between runs) are ignored.
  for (const auto& [name, vals] : series)
    if (m.has(name)) m.restore_series(name, vals);
}

std::string single_line(const char* what) {
  std::string s = what ? what : "unknown error";
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

std::string ckpt_path(const std::string& job_dir, uint64_t step) {
  return job_dir + "/ckpt_" + std::to_string(step) + ".ckpt";
}

// ckpt_<step>.ckpt names in `dir`, step-descending. Anything else — in
// particular torn ".tmp" staging files — never matches, so a checkpoint
// interrupted mid-write can never be SELECTED for resume in the first
// place (and one torn mid-RENAME still fails the checksum and falls
// through to the previous valid file).
std::vector<std::pair<uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const std::string& name : io::list_dir(dir)) {
    if (name.rfind("ckpt_", 0) != 0) continue;
    const size_t dot = name.rfind(".ckpt");
    if (dot == std::string::npos || dot + 5 != name.size()) continue;
    const std::string digits = name.substr(5, dot - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                     dir + "/" + name);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

EnsembleCampaign::EnsembleCampaign(Simulation& sim, RunConfig cfg,
                                   CampaignOptions opt)
    : sim_(&sim), cfg_(std::move(cfg)), opt_(std::move(opt)),
      queue_(opt_.dir) {
  PTIM_CHECK_MSG(cfg_.steps > 0, "EnsembleCampaign: cfg.steps must be > 0");
  PTIM_CHECK_MSG(opt_.nworkers >= 1,
                 "EnsembleCampaign: nworkers must be >= 1");
}

uint64_t EnsembleCampaign::job_hash(const io::JobSpec& spec) const {
  // The Simulation-level hash (physics config + system dims + any
  // Simulation-attached laser) chained with the job's own perturbation:
  // two jobs of one campaign differing only in kick or laser get distinct
  // bindings, and a resume under drifted physics is rejected per job.
  uint64_t h = sim_->config_hash(cfg_);
  const auto mix = [&h](const auto& v) { h = io::fnv1a(&v, sizeof(v), h); };
  mix(spec.t_horizon);
  for (int d = 0; d < 3; ++d) mix(spec.kick[d]);
  mix(spec.has_laser);
  if (spec.has_laser) {
    mix(spec.laser.e0);
    mix(spec.laser.wavelength_nm);
    mix(spec.laser.t_center);
    mix(spec.laser.t_width);
    for (int d = 0; d < 3; ++d) mix(spec.laser.polarization[d]);
  }
  return h;
}

int EnsembleCampaign::submit(const CampaignJob& job) {
  check_laser_or_kick(job.name, job.laser.has_value(), job.kick);
  td::TdState s0 = job.initial ? *job.initial : sim_->initial_state();
  io::JobSpec spec;
  spec.name = job.name;
  spec.steps = cfg_.steps;
  // Resolve the lazy laser horizon NOW and persist it: a resumed segment
  // must place the envelope against the same end time as the original
  // launch, not against its own (later) start time.
  spec.t_horizon = cfg_.horizon(s0.time);
  spec.kick = job.kick;
  spec.has_laser = job.laser.has_value();
  if (job.laser) spec.laser = *job.laser;
  spec.config_hash = job_hash(spec);
  const int id = queue_.submit(spec);
  // ckpt_0 carries the initial state with the kick as its starting vector
  // potential, so resume-from-step-k and start-from-scratch run the SAME
  // code: restore the newest valid checkpoint and step forward.
  io::Checkpoint ck;
  ck.state = std::move(s0);
  ck.step_index = 0;
  ck.config_hash = spec.config_hash;
  ck.avec = job.kick;
  io::save_checkpoint(ckpt_path(queue_.job_dir(id), 0), ck);
  return id;
}

size_t EnsembleCampaign::pending() const {
  size_t n = 0;
  for (const auto& r : queue_.records())
    if (r.status.state == io::JobState::kPending ||
        r.status.state == io::JobState::kRunning)
      ++n;
  return n;
}

bool EnsembleCampaign::load_latest_valid(const std::string& job_dir,
                                         uint64_t hash,
                                         io::Checkpoint* out) const {
  for (const auto& [step, path] : list_checkpoints(job_dir)) {
    try {
      *out = io::load_checkpoint(path, hash);
      return true;
    } catch (const Error&) {
      // Corrupt/truncated/foreign checkpoint: fall back to the next-older
      // candidate. ckpt_0 (written at submit) is the floor.
    }
  }
  return false;
}

void EnsembleCampaign::run_job(ptmpi::Comm& group, int id) {
  const io::JobSpec spec = queue_.record(id).spec;  // copy: status moves
  const std::string job_dir = queue_.job_dir(id);
  const bool leader = group.rank() == 0;
  const int g = group.size();

  // Bind the resume to the CURRENT configuration, not the hash stored in
  // the spec file: job_hash() chains cfg_'s physics with the spec's own
  // perturbation, so a campaign reopened under drifted physics finds no
  // valid checkpoint (refused resume) instead of silently propagating a
  // different trajectory. spec.config_hash is the submit-time record of
  // the same binding; the two agree whenever the config is unchanged.
  const uint64_t bind = job_hash(spec);
  // Every rank of the group resolves the resume point independently: the
  // scan is deterministic, so all ranks restore the same checkpoint.
  io::Checkpoint ck;
  PTIM_CHECK_MSG(load_latest_valid(job_dir, bind, &ck),
                 "job '" << spec.name << "': no valid checkpoint in "
                         << job_dir);
  uint64_t done = ck.step_index;
  const auto total = static_cast<uint64_t>(spec.steps);
  if (done > 0) OBS_MARK("campaign.resume", obs::Cat::kIo);

  if (leader) {
    io::JobStatus st;
    st.state = done >= total ? io::JobState::kDone : io::JobState::kRunning;
    st.steps_done = done;
    queue_.update_status(id, st);
  }
  if (done >= total) return;  // finished before the last status write

  // Job-local machinery: per-group Hamiltonian (carries the restored
  // vector potential — kick or mid-pulse laser phase) and the envelope
  // placed against the horizon persisted at submit.
  std::unique_ptr<ham::Hamiltonian> h =
      opt_.ham_factory ? opt_.ham_factory() : sim_->make_rank_hamiltonian();
  h->set_vector_potential(ck.avec);
  std::unique_ptr<td::LaserPulse> laser;
  if (spec.has_laser)
    laser = std::make_unique<td::LaserPulse>(spec.laser, spec.t_horizon);

  MeasurementSet m = proto_;
  restore_into(m, parse_series(ck.campaign_meta));

  const auto due = [this, total](uint64_t k) {
    // Final step always persisted: collect() reads results from it.
    return k == total ||
           (cfg_.checkpoint_every > 0 &&
            k % static_cast<uint64_t>(cfg_.checkpoint_every) == 0);
  };
  // Per-job metrics: one JSONL file beside the job's checkpoints, written
  // by the group leader in append mode — a killed-and-resumed job keeps
  // appending to the same file (readers dedupe by (job_id, rank, step),
  // keeping the last line, since resume rewinds to the newest checkpoint
  // and re-emits the replayed steps).
  std::unique_ptr<obs::MetricsSink> msink;
  obs::StepSampler msampler;
  if (leader && !cfg_.metrics_path.empty())
    msink = std::make_unique<obs::MetricsSink>(job_dir + "/metrics.jsonl");

  const auto persist = [&](const td::TdState& full) {
    OBS_SPAN("campaign.checkpoint", obs::Cat::kIo);
    io::Checkpoint out;
    out.state = full;
    out.step_index = done;
    out.config_hash = bind;
    out.avec = h->vector_potential();
    out.campaign_meta = serialize_series(m);
    io::save_checkpoint(ckpt_path(job_dir, done), out);
    io::JobStatus st;
    st.state = done >= total ? io::JobState::kDone : io::JobState::kRunning;
    st.steps_done = done;
    queue_.update_status(id, st);
  };

  // One step loop for every group size: the propagator's band space
  // supplies the layout's density and full-state gather. A group of g > 1
  // ranks runs the band/grid path Simulation::run uses, over its
  // subcommunicator. Dimensions come from the CHECKPOINT (jobs may carry
  // states of a different system than the Simulation — the ham_factory
  // seam).
  std::optional<dist::BandDistributedHamiltonian> bdh;
  if (g > 1) bdh.emplace(group, *h, ck.state.phi.cols(), cfg_.band());
  td::PtImPropagator prop =
      bdh ? td::PtImPropagator(*bdh, cfg_.ptim(), laser.get())
          : td::PtImPropagator(*h, cfg_.ptim(), laser.get());
  td::TdState s =
      bdh ? td::scatter_state(ck.state, bdh->bands(),
                              cfg_.process_grid.band_rank_of(group.rank()))
          : std::move(ck.state);
  const bool want_phi = m.needs_phi();
  if (msink) msampler.begin(sample_counters(h->exchange_op(), &group));
  while (done < total) {
    const td::PtImStepStats st = prop.step(s);
    ++done;
    if (msink) {
      // Leader-only rows: the leader's own comm/FFT deltas stand in for
      // the group (band work is balanced by construction).
      obs::StepReport r =
          msampler.end(sample_counters(h->exchange_op(), &group));
      r.job_id = id;
      r.rank = group.rank();
      r.step = static_cast<long>(done);
      fill_step_stats(&r, st);
      msink->write(r);
      msampler.begin(sample_counters(h->exchange_op(), &group));
    }
    const std::vector<real_t> rho = prop.space().density(s);
    // The gather is collective over the band communicator (every grid
    // column gathers redundantly); the leader holds band rank 0's copy.
    td::TdState full;
    if (want_phi || due(done)) full = prop.space().gather(s);
    if (leader) {
      m.record({&rho, want_phi ? &full.phi : nullptr, &s.sigma, s.time,
                static_cast<int>(done) - 1});
      if (due(done)) persist(full);
    }
    // All ranks hit the fault hook at the same collective-free point, so a
    // simulated crash unwinds the WHOLE group (no peer is left blocked in
    // a collective the dead rank will never join).
    if (opt_.fault_hook) opt_.fault_hook(id, done);
  }
}

void EnsembleCampaign::run() {
  std::vector<int> runnable;
  for (const auto& r : queue_.records())
    if (r.status.state == io::JobState::kPending ||
        r.status.state == io::JobState::kRunning)
      runnable.push_back(r.id);
  if (runnable.empty()) return;

  const int g = std::max(cfg_.nranks, 1);
  const int nworkers = std::max(opt_.nworkers, 1);
  // One worker group per "node" so group-internal SHM staging (if enabled)
  // stays group-scoped.
  ptmpi::run_ranks(nworkers * g, g, [&](ptmpi::Comm& world) {
    ptmpi::Comm group = world.split(world.rank() / g, world.rank() % g);
    while (true) {
      // Idle-worker handoff: the group leader claims the next runnable
      // job off the shared cursor, then broadcasts the claim group-wide.
      long idx = 0;
      if (group.rank() == 0) idx = world.fetch_add("campaign.claim", 1);
      group.bcast(&idx, sizeof(idx), 0);
      if (idx >= static_cast<long>(runnable.size())) break;
      const int id = runnable[static_cast<size_t>(idx)];
      OBS_MARK("campaign.claim", obs::Cat::kIo);
      OBS_SPAN("campaign.run_job", obs::Cat::kIo);
      if (g == 1) {
        // Serial groups contain per-job failures: the job is marked
        // kFailed and the campaign moves on. CampaignKill is NOT an
        // Error and always propagates (simulated SIGKILL).
        try {
          run_job(group, id);
        } catch (const Error& e) {
          io::JobStatus st;
          st.state = io::JobState::kFailed;
          st.steps_done = queue_.record(id).status.steps_done;
          st.error = single_line(e.what());
          queue_.update_status(id, st);
        }
      } else {
        // Distributed groups let everything propagate: containing an
        // exception on ONE rank while its peers sit in collectives would
        // deadlock the group.
        run_job(group, id);
      }
    }
  });
}

std::vector<CampaignResult> EnsembleCampaign::collect() {
  std::vector<CampaignResult> out;
  for (const auto& r : queue_.records()) {
    if (r.status.state != io::JobState::kDone) continue;
    io::Checkpoint ck;
    PTIM_CHECK_MSG(
        load_latest_valid(queue_.job_dir(r.id), job_hash(r.spec), &ck),
        "job '" << r.spec.name << "' is done but has no valid checkpoint");
    CampaignResult res;
    res.id = r.id;
    res.name = r.spec.name;
    res.steps_done = ck.step_index;
    res.final_state = std::move(ck.state);
    res.measurements = proto_;
    restore_into(res.measurements, parse_series(ck.campaign_meta));
    out.push_back(std::move(res));
  }
  return out;
}

}  // namespace ptim::core
