// Measurement engine of the ptim benchmark (README.md in this directory).
//
// One process runs one workload through the library's public API —
// core::Simulation, the td::PtImPropagator staged-step protocol,
// td::DistPtImPropagator over ptmpi::run_ranks and core::EnsembleCampaign —
// and prints ONE JSON line of raw samples: set-up times, per-repeat wall
// times, deterministic counts, per-layer sums and final observables. run.py
// turns them into metrics, checks the outputs and compares the counts.
//
//   ptim_perfbench --workload ring_wire --seed 1 --seconds 10 --trace 0
//                  [--work-dir DIR]
//   ptim_perfbench --selftest --work-dir DIR
//
// The engine owns each workload's thread budget (ranks x OpenMP threads,
// stream workers counted, and the CPUs they share): it refuses a budget above
// the CPUs it may run on, re-executes itself with OMP_NUM_THREADS and
// PTIM_BACKEND set, because libgomp reads its thread count once at load
// time, and confines itself to the workload's CPUs. It also sets its timer
// slack to 1 ns, inherited by every thread it starts, so that the ptmpi wire
// model's timed waits end at their deadlines instead of up to the kernel's
// default 50 us later.

#include <dirent.h>
#include <omp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/buffer.hpp"
#include "common/timer.hpp"
#include "core/campaign.hpp"
#include "core/simulation.hpp"
#include "io/job_queue.hpp"
#include "obs/obs.hpp"
#include "obs/step_report.hpp"
#include "obs/trace_export.hpp"
#include "ptmpi/comm.hpp"
#include "td/ptim.hpp"
#include "td/ptim_dist.hpp"

using namespace ptim;

namespace {

// ---------------------------------------------------------------------------
// Workloads and their thread budgets

struct Workload {
  std::string name;
  int ranks;           // ptmpi ranks running at once (campaign: worker groups)
  int omp_threads;     // OpenMP threads per rank
  int stream_workers;  // backend stream worker threads per rank
  int cpus;            // CPUs the process is confined to; 0: all it may use
  int threads() const { return ranks * (omp_threads + stream_workers); }
};

// Every workload runs the inline kHostSerial backend, so no rank owns a
// stream worker thread. ring_wire's four lockstep ranks share one CPU. With
// ranks on several CPUs of a virtual machine, a rank that waits can idle its
// virtual CPU, and its next meeting (there are ~1,100 per step) then waits
// for the host to run that CPU again, so the step time followed the load of
// the shared host. On one CPU a rank that waits hands the CPU to another
// rank (README.md, Workloads).
const std::vector<Workload> kWorkloads = {
    {"ring_wire", 4, 1, 0, 1},
    {"isdf_serial", 1, 1, 0, 0},
    {"campaign_kill", 4, 1, 0, 0},
};

constexpr int kSetups = 3;      // set-ups per run; run.py reports the median
constexpr int kTrajSteps = 12;  // ring_wire / isdf_serial trajectory length
constexpr double kWireBase = 50e-6;     // ring_wire: seconds per message
constexpr double kWirePerByte = 10e-9;  // ring_wire: seconds per byte

// campaign_kill: more jobs than groups, several checkpoints per job, and a
// group killed between two checkpoints of the first job it claims.
struct CampaignShape {
  int jobs = 16;
  int steps = 8;
  int ckpt_every = 2;
  int groups = 4;
  int kill_job = 0;
  uint64_t kill_step = 5;
};

// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

int nproc() { return static_cast<int>(allowed_cpus().size()); }

// Confine the calling thread, and every thread it starts from now on, to
// the first `n` CPUs it may run on.
void confine_to_first(int n) {
  const std::vector<int> cpus = allowed_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < n; ++i) CPU_SET(cpus[static_cast<size_t>(i)], &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("cannot confine the process to its CPUs");
}

// Threads of this process right now (the launching thread included).
int count_threads() {
  int n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d))
      if (e->d_name[0] != '.') ++n;
    closedir(d);
  }
  return n;
}

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// ---------------------------------------------------------------------------
// Spans around the public calls, recorded into the library's tracer. The
// library's own spans stay off (obs::set_enabled is never called), which
// does not stop obs::record_span: only the benchmark's spans are recorded.

bool g_trace = false;  // flipped between repeats, while no rank thread runs

// RAII span around one call into a layer; free when tracing is off. Rank
// threads carry their rank tag from ptmpi::run_ranks.
class Scope {
 public:
  explicit Scope(const char* name, obs::Cat cat = obs::Cat::kStep)
      : name_(name), cat_(cat), on_(g_trace), t0_(on_ ? obs::now_ns() : 0) {}
  ~Scope() {
    if (on_) obs::record_span(obs::intern(name_), cat_, t0_, obs::now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  obs::Cat cat_;
  bool on_;
  uint64_t t0_;
};

// Summed seconds of the spans called `name` that began at or after since_ns.
double span_seconds(const char* name, uint64_t since_ns) {
  const uint32_t id = obs::intern(name);
  double s = 0.0;
  for (const obs::Span& sp : obs::snapshot())
    if (sp.name_id == id && sp.t0_ns >= since_ns)
      s += 1e-9 * static_cast<double>(sp.t1_ns - sp.t0_ns);
  return s;
}

// ---------------------------------------------------------------------------
// JSON output

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

template <typename Map>
std::string json_map(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m)
    out += (out.size() > 1 ? "," : "") + quoted(k) + ":" +
           num(static_cast<double>(v));
  return out + "}";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

std::string json_nums(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(num(x));
  return json_list(items);
}

// ---------------------------------------------------------------------------
// Inputs

const grid::Vec3 kAxis{1.0, 0.0, 0.0};  // field, kick and dipole axis

// The seed decides which kick strength (1..jobs, in units of 1e-3) each
// campaign job id carries, and so which kick the injected kill interrupts.
// The trajectory workloads have one fixed input, the x-polarized pulse: a
// y or z pulse is the same physics by the cubic symmetry of the cell but
// rounds differently, so its SCF counts would differ and exact counts could
// not be compared across seeds.
std::vector<int> kick_order(uint64_t seed, int jobs) {
  std::mt19937_64 rng(seed);
  std::vector<int> order;
  for (int k = 1; k <= jobs; ++k) order.push_back(k);
  for (int i = jobs - 1; i > 0; --i)  // Fisher-Yates on the raw engine
    std::swap(order[static_cast<size_t>(i)],
              order[rng() % static_cast<uint64_t>(i + 1)]);
  return order;
}

core::SystemSpec system_spec() {
  core::SystemSpec spec;  // 8-atom Si cell; 16 occupied + 4 empty bands
  spec.ecut = 2.0;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 1e-6;
  return spec;
}

core::RunConfig base_config() {
  core::RunConfig cfg;  // dt = 50 as
  cfg.variant = td::PtImVariant::kAce;
  cfg.backend = backend::Kind::kHostSerial;
  return cfg;
}

core::RunConfig trajectory_config(const std::string& workload) {
  core::RunConfig cfg = base_config();
  cfg.steps = kTrajSteps;
  if (workload == "isdf_serial")
    cfg.compression = ham::ExchangeCompression::kIsdf;
  if (workload == "ring_wire") {
    cfg.nranks = 4;
    cfg.process_grid = {4, 1};
    cfg.pattern = dist::ExchangePattern::kAsyncRing;
  }
  return cfg;
}

td::LaserParams laser() {
  td::LaserParams lp;  // e0 = 0.005 a.u.
  lp.wavelength_nm = 380.0;
  lp.polarization = kAxis;
  return lp;
}

// ---------------------------------------------------------------------------
// One measured repeat (a trajectory, or a whole campaign)

using Counts = std::map<std::string, long long>;

struct Final {
  std::string name;
  double energy = 0.0;
  double dipole_x = 0.0;
  double sigma_trace = 0.0;
  bool done = true;
};

struct Repeat {
  bool traced = false;
  double seconds = 0.0;  // trajectory: rank-0 step loop; campaign: submit
                         // of the first job to the end of collect()
  double traj_seconds = 0.0;  // trajectory: first call to the final state
                              // gathered; campaign: same as seconds
  std::vector<double> step_seconds;  // campaign: every metrics row
  long unconverged = 0;
  bool killed = false;  // campaign: the injected kill fired
  Counts counts;        // deterministic; compared across repeats and runs
  std::map<std::string, double> layers;  // per-layer sums for the trace
  std::vector<Final> finals;
  int threads_seen = 0;  // peak threads other than the launching thread
};

// Profile-registry sections a repeat reports as per-layer sums.
const std::vector<std::pair<const char*, std::vector<const char*>>>
    kProfileLayers = {
        {"ham.semilocal", {"ham.apply_semilocal"}},
        {"ham.density", {"density.sigma"}},
        {"la.qrcp", {"isdf.select"}},
        {"la.fit_solve", {"isdf.fit.chol", "isdf.fit.solve"}},
        {"la.gemm_apply", {"isdf.apply"}},
};

class ProfileDelta {
 public:
  ProfileDelta() : before_(ProfileRegistry::instance().snapshot()) {}
  void into(std::map<std::string, double>* layers) const {
    const auto after = ProfileRegistry::instance().snapshot();
    for (const auto& [layer, sections] : kProfileLayers) {
      double secs = 0.0, calls = 0.0;
      for (const char* s : sections) {
        const ProfileEntry a = lookup(after, s), b = lookup(before_, s);
        secs += a.seconds - b.seconds;
        calls += static_cast<double>(a.count - b.count);
      }
      (*layers)[std::string(layer) + "_s"] = secs;
      (*layers)[std::string(layer) + "_calls"] = calls;
    }
  }

 private:
  static ProfileEntry lookup(const std::map<std::string, ProfileEntry>& m,
                             const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? ProfileEntry{} : it->second;
  }
  std::map<std::string, ProfileEntry> before_;
};

void add_step_stats(Counts* c, const td::PtImStepStats& st, int max_outer) {
  (*c)["steps"] += 1;
  (*c)["td.scf_iters"] += st.scf_iterations;
  (*c)["td.outer_iters"] += st.outer_iterations;
  (*c)["td.outer_capped"] += st.outer_iterations >= max_outer ? 1 : 0;
  (*c)["td.xc_applies"] += st.exchange_applications;
}

Final final_of(const core::Simulation& sim, const td::TdState& s,
               const std::string& name) {
  Final f;
  f.name = name;
  f.energy = sim.energy(s).total();
  f.dipole_x = sim.dipole(s, kAxis);
  for (size_t i = 0; i < s.sigma.rows(); ++i)
    f.sigma_trace += std::real(s.sigma(i, i));
  return f;
}

const ptmpi::OpStats& op(const ptmpi::CommStats& s, const char* name) {
  static const ptmpi::OpStats none;
  const auto it = s.ops.find(name);
  return it == s.ops.end() ? none : it->second;
}

ptmpi::CommStats comm_delta(const ptmpi::CommStats& after,
                            const ptmpi::CommStats& before) {
  ptmpi::CommStats d;
  for (const auto& [name, a] : after.ops) {
    const ptmpi::OpStats& b = op(before, name.c_str());
    d.ops[name] = {a.calls - b.calls, a.bytes - b.bytes,
                   a.seconds - b.seconds};
  }
  return d;
}

// ring_wire: band-parallel PT-IM-ACE over 4 ptmpi ranks. steps == 0 builds
// the per-rank machinery and returns once every rank could step.
Repeat run_ring(core::Simulation& sim, const core::RunConfig& cfg,
                int steps) {
  Repeat rep;
  const double t_begin = now_s();
  const size_t nb = sim.nbands();
  const dist::BlockLayout bands(nb, cfg.nranks);
  const td::TdState init = sim.initial_state();
  const grid::Vec3 avec0 = sim.hamiltonian().vector_potential();
  std::atomic<long> ffts{0};
  td::TdState final_state;
  const ProfileDelta prof;
  const long allocs0 = backend::buffer_alloc_count();
  ptmpi::run_ranks(cfg.nranks, 1, [&](ptmpi::Comm& c) {
    std::unique_ptr<ham::Hamiltonian> h = sim.make_rank_hamiltonian();
    h->set_vector_potential(avec0);
    dist::BandDistributedHamiltonian bdh(c, *h, nb, cfg.band());
    td::DistTdState s = td::scatter_state(init, bands, c.rank());
    td::DistPtImPropagator prop(bdh, cfg.ptim(), sim.laser());
    c.barrier();
    if (steps == 0) return;
    const long ffts0 = h->exchange_op().fft_count.load();
    const ptmpi::CommStats comm0 = c.stats().snapshot();
    Counts counts;
    long unconverged = 0;
    const double t0 = now_s();
    for (int k = 0; k < steps; ++k) {
      td::PtImStepStats st;
      {
        Scope span("dist.step");
        st = prop.step(s);
      }
      add_step_stats(&counts, st, cfg.max_outer);
      unconverged += st.converged ? 0 : 1;
    }
    const double secs = now_s() - t0;
    const int threads = count_threads() - 1;
    ffts += h->exchange_op().fft_count.load() - ffts0;
    const ptmpi::CommStats d = comm_delta(c.stats().snapshot(), comm0);
    const td::TdState full = td::gather_state(bdh.comm(), s, bands);
    if (c.rank() != 0) return;
    rep.seconds = secs;
    rep.unconverged = unconverged;
    rep.threads_seen = threads;
    final_state = full;
    for (const char* ring : {"Sendrecv", "Wait", "Bcast"}) {
      counts["dist.ring_bytes"] += op(d, ring).bytes;
      counts["dist.ring_msgs"] += op(d, ring).calls;
    }
    counts["ptmpi.allreduce_calls"] = op(d, "Allreduce").calls;
    counts["ptmpi.alltoallv_bytes"] = op(d, "Alltoallv").bytes;
    rep.counts = counts;
    rep.layers["dist.comm_s"] = d.total_seconds();
    rep.layers["ptmpi.wait_s"] = op(d, "Wait").seconds;
    rep.layers["ptmpi.allreduce_s"] = op(d, "Allreduce").seconds;
    rep.layers["ptmpi.alltoallv_s"] = op(d, "Alltoallv").seconds;
  });
  if (steps == 0) return rep;
  rep.traj_seconds = now_s() - t_begin;
  rep.counts["fft.xc_ffts"] = ffts.load();
  rep.counts["backend.allocs"] = backend::buffer_alloc_count() - allocs0;
  prof.into(&rep.layers);
  rep.finals.push_back(final_of(sim, final_state, "trajectory"));
  return rep;
}

// PtImPropagator::step() driven through its staged protocol from outside,
// so exchange applies and fixed-point rounds are timed apart. Traced
// repeats run this copy and untraced ones step() itself; run.py requires
// both to count and end exactly alike, which pins the copy to step().
td::PtImStepStats staged_step(td::PtImPropagator& prop,
                              const ham::ExchangeOperator& xop,
                              td::TdState& s) {
  Scope span("td.step");
  td::PtImPropagator::StepSession sess;
  {
    Scope b("td.step_begin");
    sess = prop.step_begin(s);
  }
  la::MatC w;
  bool more = true;
  while (more) {
    w.resize(sess.ace_phi.rows(), sess.ace_phi.cols());
    {
      Scope x("ham.apply_diag", obs::Cat::kCompute);
      xop.apply_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi, w, false);
    }
    Scope a("td.step_advance");
    more = prop.step_advance(s, sess, w);
  }
  Scope f("td.step_finish");
  return prop.step_finish(s, sess);
}

// isdf_serial: one single-threaded trajectory.
Repeat run_serial(core::Simulation& sim, const core::RunConfig& cfg,
                  int steps) {
  Repeat rep;
  const double t_begin = now_s();
  std::unique_ptr<ham::Hamiltonian> h = sim.make_rank_hamiltonian();
  h->set_vector_potential(sim.hamiltonian().vector_potential());
  td::PtImPropagator prop(*h, cfg.ptim(), sim.laser());
  if (steps == 0) return rep;
  td::TdState s = sim.initial_state();
  const ham::ExchangeOperator& xop = h->exchange_op();
  const long ffts0 = xop.fft_count.load();
  const ProfileDelta prof;
  const long allocs0 = backend::buffer_alloc_count();
  const uint64_t since = obs::now_ns();
  const double t0 = now_s();
  for (int k = 0; k < steps; ++k) {
    const td::PtImStepStats st =
        g_trace ? staged_step(prop, xop, s) : prop.step(s);
    add_step_stats(&rep.counts, st, cfg.max_outer);
    rep.unconverged += st.converged ? 0 : 1;
  }
  rep.seconds = now_s() - t0;
  rep.traj_seconds = now_s() - t_begin;
  rep.threads_seen = count_threads();
  rep.counts["fft.xc_ffts"] = xop.fft_count.load() - ffts0;
  rep.counts["backend.allocs"] = backend::buffer_alloc_count() - allocs0;
  prof.into(&rep.layers);
  rep.layers["td.advance_s"] = span_seconds("td.step_advance", since);
  rep.layers["ham.exchange_s"] = span_seconds("ham.apply_diag", since);
  rep.finals.push_back(final_of(sim, s, "trajectory"));
  return rep;
}

void remove_tree(const std::string& path) {
  for (const std::string& name : io::list_dir(path))
    remove_tree(path + "/" + name);
  ::rmdir(path.c_str());
  std::remove(path.c_str());
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Checkpoint files and bytes, metrics rows and replayed steps of a finished
// campaign directory.
void scan_campaign_dir(const std::string& dir, int max_outer, Repeat* rep) {
  Counts& c = rep->counts;
  c["io.ckpt_files"] = 0;
  c["io.ckpt_bytes"] = 0;
  long rows = 0;
  std::map<std::pair<long, long>, obs::StepReport> last;  // (job, step)
  for (const std::string& job : io::list_dir(dir)) {
    const std::string jdir = dir + "/" + job;
    if (!starts_with(job, "job_")) continue;  // spec/status files list empty
    for (const std::string& f : io::list_dir(jdir)) {
      struct stat st {};
      if (starts_with(f, "ckpt_") && f.size() > 5 &&
          f.compare(f.size() - 5, 5, ".ckpt") == 0 &&
          ::stat((jdir + "/" + f).c_str(), &st) == 0) {
        c["io.ckpt_files"] += 1;
        c["io.ckpt_bytes"] += st.st_size;
      }
    }
    std::ifstream in(jdir + "/metrics.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      obs::StepReport r;
      if (!obs::from_jsonl(line, &r)) continue;
      ++rows;
      rep->step_seconds.push_back(r.seconds);
      last[{r.job_id, r.step}] = r;  // the replayed row supersedes
    }
  }
  c["core.steps_replayed"] = rows - static_cast<long>(last.size());
  for (const auto& [key, r] : last) {
    c["steps"] += 1;
    c["td.scf_iters"] += r.scf_iterations;
    c["td.outer_iters"] += r.outer_iterations;
    c["td.outer_capped"] += r.outer_iterations >= max_outer ? 1 : 0;
    c["td.xc_applies"] += r.exchange_applications;
    c["fft.xc_ffts"] += r.ffts;
    rep->unconverged += r.converged ? 0 : 1;
  }
}

// campaign_kill: submit, run until the injected kill, reopen the directory,
// resume, collect. open_only stops after opening the campaign (set-up).
Repeat run_campaign(core::Simulation& sim, const std::vector<int>& kicks,
                    const CampaignShape& shape, const std::string& dir,
                    bool open_only) {
  Repeat rep;
  remove_tree(dir);
  core::RunConfig cfg = base_config();
  cfg.steps = shape.steps;
  cfg.checkpoint_every = shape.ckpt_every;
  cfg.metrics_path = "on";  // campaigns: per-job <job dir>/metrics.jsonl
  std::atomic<int> threads{0};
  core::CampaignOptions opt;
  opt.dir = dir;
  opt.nworkers = shape.groups;
  // Dipole and sigma-trace probes are pure, as concurrent groups require.
  const auto probes = [&sim] {
    core::MeasurementSet m;
    m.add("dipole_x", sim.dipole_probe(kAxis));
    m.add("sigma_trace", core::probes::sigma_trace());
    return m;
  };
  core::CampaignOptions resume_opt = opt;
  resume_opt.fault_hook = [&threads](int, uint64_t) {
    const int n = count_threads() - 1;
    int seen = threads.load();
    while (n > seen && !threads.compare_exchange_weak(seen, n)) {
    }
  };
  opt.fault_hook = [&shape, hook = resume_opt.fault_hook](int id,
                                                          uint64_t done) {
    hook(id, done);
    if (id == shape.kill_job && done == shape.kill_step)
      throw core::CampaignKill("injected loss of a worker group");
  };

  const ProfileDelta prof;
  const long allocs0 = backend::buffer_alloc_count();
  const uint64_t since = obs::now_ns();
  double t0 = 0.0;
  {
    core::EnsembleCampaign camp(sim, cfg, opt);
    if (open_only) {
      remove_tree(dir);
      return rep;
    }
    camp.set_measurements(probes());
    t0 = now_s();
    {
      Scope s("io.submit", obs::Cat::kIo);
      for (int id = 0; id < shape.jobs; ++id) {
        const int k = kicks[static_cast<size_t>(id)];
        core::CampaignJob job;
        job.name = "kick_" + std::to_string(k);
        job.kick = {1e-3 * k, 0.0, 0.0};
        camp.submit(job);
      }
    }
    Scope s("core.run");
    try {
      camp.run();
    } catch (const core::CampaignKill&) {
      rep.killed = true;
    }
  }
  std::unique_ptr<core::EnsembleCampaign> camp;
  {
    Scope s("core.resume");
    camp = std::make_unique<core::EnsembleCampaign>(sim, cfg, resume_opt);
    camp->set_measurements(probes());
    camp->run();
  }
  std::vector<core::CampaignResult> results;
  {
    Scope s("io.collect", obs::Cat::kIo);
    results = camp->collect();
  }
  rep.seconds = now_s() - t0;
  rep.traj_seconds = rep.seconds;
  rep.counts["backend.allocs"] = backend::buffer_alloc_count() - allocs0;
  rep.counts["core.jobs_done"] = static_cast<long long>(results.size());
  prof.into(&rep.layers);
  for (const char* layer :
       {"core.run", "core.resume", "io.submit", "io.collect"})
    rep.layers[std::string(layer) + "_s"] = span_seconds(layer, since);
  rep.threads_seen = threads.load();
  scan_campaign_dir(dir, cfg.max_outer, &rep);
  for (const io::JobRecord& r : camp->poll()) {
    Final f;
    f.name = r.spec.name;
    f.done = r.status.state == io::JobState::kDone;
    for (const core::CampaignResult& res : results)
      if (res.id == r.id) f = final_of(sim, res.final_state, f.name);
    rep.finals.push_back(f);
  }
  camp.reset();
  remove_tree(dir);
  return rep;
}

std::string final_json(const Final& f) {
  return "{\"name\":" + quoted(f.name) + ",\"energy\":" + num(f.energy) +
         ",\"dipole_x\":" + num(f.dipole_x) +
         ",\"sigma_trace\":" + num(f.sigma_trace) +
         ",\"done\":" + (f.done ? "true" : "false") + "}";
}

std::string repeat_json(const Repeat& r) {
  std::vector<std::string> finals;
  for (const Final& f : r.finals) finals.push_back(final_json(f));
  return std::string("{\"traced\":") + (r.traced ? "true" : "false") +
         ",\"seconds\":" + num(r.seconds) +
         ",\"traj_seconds\":" + num(r.traj_seconds) +
         ",\"step_seconds\":" + json_nums(r.step_seconds) +
         ",\"unconverged\":" + num(static_cast<double>(r.unconverged)) +
         ",\"killed\":" + (r.killed ? "true" : "false") +
         ",\"threads_seen\":" + num(r.threads_seen) +
         ",\"counts\":" + json_map(r.counts) +
         ",\"layers\":" + json_map(r.layers) +
         ",\"finals\":" + json_list(finals) + "}";
}

// ---------------------------------------------------------------------------
// Running a workload

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string work_dir = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--work-dir") a->work_dir = v;
    else return false;
  }
  return a->selftest || !a->workload.empty();
}

// Make this process run `omp` OpenMP threads per rank on the inline
// backend: libgomp and the backend read their environment once, so set it
// and re-execute when it differs. Returns false if re-execution failed.
bool pin_environment(int omp, char** argv) {
  const std::string want = std::to_string(omp);
  const char* have_omp = std::getenv("OMP_NUM_THREADS");
  const char* have_backend = std::getenv("PTIM_BACKEND");
  if (have_omp && want == have_omp && have_backend &&
      std::string(have_backend) == "serial")
    return true;
  ::setenv("OMP_NUM_THREADS", want.c_str(), 1);
  ::setenv("PTIM_BACKEND", "serial", 1);
  ::execv("/proc/self/exe", argv);
  std::perror("perfbench: re-exec with the pinned environment failed");
  return false;
}

struct SetUp {
  std::unique_ptr<core::Simulation> sim;
  Counts gs_counts;
};

// Cold set-up to the point where the first step can run: Simulation, the
// hybrid ground state, and the workload's rank Hamiltonians, propagator or
// campaign.
SetUp set_up(const std::string& workload, const std::vector<int>& kicks,
             const CampaignShape& shape, const std::string& dir) {
  SetUp s;
  s.sim = std::make_unique<core::Simulation>(system_spec());
  const gs::ScfResult* gs = nullptr;
  {
    Scope span("gs.prepare_ground_state");
    gs = &s.sim->prepare_ground_state();
  }
  s.gs_counts["gs.scf_iters"] = gs->scf_iterations;
  s.gs_counts["gs.outer_iters"] = gs->outer_iterations;
  s.gs_counts["gs.converged"] = gs->converged ? 1 : 0;
  if (workload == "campaign_kill") {
    run_campaign(*s.sim, kicks, shape, dir, /*open_only=*/true);
    return s;
  }
  const core::RunConfig cfg = trajectory_config(workload);
  s.sim->set_laser(laser());
  s.sim->resolve_laser(cfg.horizon(0.0));
  if (workload == "ring_wire")
    run_ring(*s.sim, cfg, 0);
  else
    run_serial(*s.sim, cfg, 0);
  return s;
}

Repeat run_repeat(const std::string& workload, core::Simulation& sim,
                  const std::vector<int>& kicks, const CampaignShape& shape,
                  const std::string& dir) {
  if (workload == "campaign_kill")
    return run_campaign(sim, kicks, shape, dir, false);
  const core::RunConfig cfg = trajectory_config(workload);
  if (workload == "ring_wire") return run_ring(sim, cfg, cfg.steps);
  return run_serial(sim, cfg, cfg.steps);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ncpu: the CPUs the process could run on before it confined itself.
int run_workload(const Args& args, const Workload& w, int ncpu) {
  const CampaignShape shape;
  const std::vector<int> kicks = kick_order(args.seed, shape.jobs);
  const std::string dir =
      args.work_dir + "/campaign_seed" + std::to_string(args.seed);
  if (w.name == "ring_wire") ptmpi::set_wire_model(kWireBase, kWirePerByte);
  g_trace = args.trace;

  std::vector<double> setup_s, gs_busy_s;
  std::vector<std::string> gs_counts;
  SetUp ready;
  for (int k = 0; k < kSetups; ++k) {
    ready = SetUp{};  // free the previous set-up before timing the next
    const uint64_t since = obs::now_ns();
    const double t0 = now_s();
    ready = set_up(w.name, kicks, shape, dir);
    setup_s.push_back(now_s() - t0);
    gs_busy_s.push_back(span_seconds("gs.prepare_ground_state", since));
    gs_counts.push_back(json_map(ready.gs_counts));
  }
  // The ground state's own observables, outside the timed set-up: the
  // reference point of the ISDF envelope.
  const Final ground =
      final_of(*ready.sim, ready.sim->initial_state(), "ground_state");

  // Untraced repeats until the time is up; a traced run alternates untraced
  // and traced repeats so trace_overhead compares like with like.
  std::vector<std::string> repeats;
  const double deadline = now_s() + args.seconds;
  const size_t min_repeats = args.trace ? 2 : 1;
  for (size_t i = 0; repeats.size() < min_repeats || now_s() < deadline;
       ++i) {
    const bool traced = args.trace && i % 2 == 1;
    g_trace = traced;
    Repeat r = run_repeat(w.name, *ready.sim, kicks, shape, dir);
    r.traced = traced;
    repeats.push_back(repeat_json(r));
  }
  g_trace = false;
  if (obs::dropped_spans() != 0)
    throw std::runtime_error("span rings overflowed; per-layer sums short");
  if (args.trace)
    obs::write_chrome_trace(args.work_dir + "/trace_" + w.name + "_seed" +
                                std::to_string(args.seed) + ".json",
                            obs::snapshot());

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%s,"
      "\"budget\":{\"ranks\":%d,\"omp_threads\":%d,\"stream_workers\":%d,"
      "\"threads\":%d,\"cpus\":%d,\"nproc\":%d},\"cpus_allowed\":%d,"
      "\"omp_max_threads\":%d,"
      "\"nelec\":%s,\"setup_s\":%s,\"gs_busy_s\":%s,\"gs_counts\":%s,"
      "\"ground\":%s,\"peak_rss_mb\":%s,\"repeats\":%s}\n",
      quoted(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? "true" : "false", w.ranks, w.omp_threads,
      w.stream_workers, w.threads(), w.cpus ? w.cpus : ncpu, ncpu, nproc(),
      omp_get_max_threads(),
      num(ready.sim->nelec()).c_str(), json_nums(setup_s).c_str(),
      json_nums(gs_busy_s).c_str(), json_list(gs_counts).c_str(),
      final_json(ground).c_str(), num(peak_rss_mb()).c_str(),
      json_list(repeats).c_str());
  return 0;
}

// Self-test of the kill/resume sequence on a small campaign: the kill must
// fire, every job must end done, and exactly the steps between the last
// checkpoint and the kill must run twice.
int selftest(const Args& args) {
  CampaignShape shape;
  shape.jobs = 3;
  shape.steps = 3;
  shape.ckpt_every = 2;
  shape.groups = 2;
  shape.kill_job = 1;
  shape.kill_step = 1;
  const std::vector<int> kicks = kick_order(7, shape.jobs);
  core::Simulation sim(system_spec());
  sim.prepare_ground_state();
  const Repeat r =
      run_campaign(sim, kicks, shape, args.work_dir + "/selftest_campaign",
                   false);
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  expect(r.killed, "the injected kill fired");
  expect(r.counts.at("core.jobs_done") == shape.jobs, "every job collected");
  bool all_done = r.finals.size() == static_cast<size_t>(shape.jobs);
  for (const Final& f : r.finals) all_done = all_done && f.done;
  expect(all_done, "every job is done after the resume");
  expect(r.counts.at("core.steps_replayed") == 1,
         "one step between checkpoint and kill ran twice");
  expect(r.counts.at("steps") == shape.jobs * shape.steps,
         "every job committed all of its steps");
  // ckpt_0, ckpt_2 and the final ckpt_3 of each job.
  expect(r.counts.at("io.ckpt_files") == 3 * shape.jobs,
         "three checkpoints per job");
  expect(r.threads_seen <= shape.groups, "no more threads than groups");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ptim_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] | --selftest\n");
    return 2;
  }
  const std::string name = args.selftest ? "campaign_kill" : args.workload;
  const auto w = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                              [&name](const Workload& x) {
                                return x.name == name;
                              });
  if (w == kWorkloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const int ncpu = nproc();
  const int cpus = w->cpus ? w->cpus : ncpu;
  if (w->threads() > ncpu || cpus > ncpu) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: its thread budget %d (%d ranks x "
                 "(%d OpenMP + %d stream workers)) on %d CPUs exceeds the %d "
                 "CPUs\n",
                 w->name.c_str(), w->threads(), w->ranks, w->omp_threads,
                 w->stream_workers, cpus, ncpu);
    return 3;
  }
  if (!pin_environment(w->omp_threads, argv)) return 2;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::fprintf(stderr,
               "perfbench: %s thread budget %d = %d ranks x (%d OpenMP + %d "
               "stream workers) on %d of %d CPUs\n",
               w->name.c_str(), w->threads(), w->ranks, w->omp_threads,
               w->stream_workers, cpus, ncpu);
  try {
    if (w->cpus) confine_to_first(w->cpus);
    return args.selftest ? selftest(args) : run_workload(args, *w, ncpu);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
