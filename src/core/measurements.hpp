#pragma once
// Measurement framework: named scalar observables registered against a run
// and sampled once per step, replacing the ad-hoc `std::vector<real_t>
// dipole` plumbing that each driver used to carry. A MeasurementSet owns
// the probes plus their accumulated series, running statistics and
// (on demand) binned averages; the run drivers (Simulation::run,
// EnsembleDriver) only see `record(ctx)`.
//
//   core::MeasurementSet m;
//   m.add("dipole_x", sim.dipole_probe({1, 0, 0}));
//   m.add("sigma_trace", core::probes::sigma_trace());
//   auto res = sim.run(cfg, m);
//   res.measurements.series("dipole_x");     // one value per step
//   res.measurements.stats("dipole_x").mean;
//
// Probes are plain std::functions of a MeasureContext so custom lambdas
// compose with the built-ins. The density pointer is always valid; `phi`
// is null unless a probe of the set declared needs_phi (then the driver
// gathers the full state before sampling).

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "la/matrix.hpp"

namespace ptim::core {

// Everything a probe may look at for one sample. Pointers, not copies:
// sampling must stay free for probes that ignore the heavy fields.
struct MeasureContext {
  const std::vector<real_t>* rho = nullptr;  // density on the dense grid
  const la::MatC* phi = nullptr;    // full orbitals; null if not gathered
  const la::MatC* sigma = nullptr;  // occupation matrix (always replicated)
  real_t time = 0.0;
  int step = 0;  // trajectory step index of this sample
};

using Probe = std::function<real_t(const MeasureContext&)>;

// Welford running statistics over one observable's samples.
struct RunningStats {
  size_t count = 0;
  real_t mean = 0.0;
  real_t m2 = 0.0;
  real_t min = 0.0;
  real_t max = 0.0;

  void add(real_t x);
  real_t variance() const { return count > 1 ? m2 / real_t(count - 1) : 0.0; }
  real_t stddev() const;
};

class MeasurementSet {
 public:
  // Register a named probe. needs_phi marks probes that read ctx.phi, so
  // distributed drivers know to gather the full state before sampling.
  void add(std::string name, Probe probe, bool needs_phi = false);

  // Sample every probe once and append to its series/statistics.
  void record(const MeasureContext& ctx);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool needs_phi() const;
  std::vector<std::string> names() const;
  bool has(const std::string& name) const;

  // Accumulated per-step samples of one observable, in recording order.
  const std::vector<real_t>& series(const std::string& name) const;
  const RunningStats& stats(const std::string& name) const;

  // Overwrite one probe's accumulated series with previously recorded
  // samples (checkpoint resume): the running statistics are replayed from
  // the values in order, so a restored set is bitwise identical to one
  // that recorded the same samples live. The probe must be registered.
  void restore_series(const std::string& name,
                      const std::vector<real_t>& values);

  // The series rebinned into `nbins` contiguous chunks (mean per chunk);
  // trailing samples that do not fill a chunk go into the last bin.
  std::vector<real_t> binned(const std::string& name, size_t nbins) const;

 private:
  struct Entry {
    std::string name;
    Probe probe;
    bool needs_phi = false;
    std::vector<real_t> series;
    RunningStats stats;
  };
  const Entry& find(const std::string& name) const;
  std::vector<Entry> entries_;
};

// Built-in probes with no Simulation dependence. Simulation adds the
// grid-aware factories (dipole_probe, energy_probe).
namespace probes {

// Re(tr sigma) — the conserved electron count per spin channel.
Probe sigma_trace();

// Total density integral scaled by dvol, i.e. the electron count on the
// dense grid (a cheap conservation diagnostic).
Probe density_sum(real_t dvol);

}  // namespace probes

}  // namespace ptim::core
