#pragma once
// Shared bench scaffolding: a small hybrid finite-temperature silicon-like
// system (scaled down from the paper's cells so every bench finishes in
// seconds on one host) and table-printing helpers.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "dist/band_ham.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/slab_exchange.hpp"
#include "dist/transpose.hpp"
#include "gs/scf.hpp"
#include "ham/density.hpp"
#include "pseudo/atoms.hpp"
#include "td/laser.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "td/rk4.hpp"

namespace ptim::bench {

// Shared machine-readable bench output: every bench binary writes (at
// least) one BENCH_<bench>.json through this writer, rows carrying the
// common schema {name, config, seconds, bytes} so CI can upload all
// BENCH_*.json files as one artifact set and downstream tooling can diff
// any bench the same way. Benches with richer custom dumps keep those too;
// this is the least common denominator every one of them emits.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& name, const std::string& config, double seconds,
           long long bytes = 0) {
    rows_.push_back({name, config, seconds, bytes});
  }

  // Writes BENCH_<bench>.json in the working directory.
  void write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 bench_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"config\": \"%s\", "
                   "\"seconds\": %.6e, \"bytes\": %lld}%s\n",
                   r.name.c_str(), r.config.c_str(), r.seconds, r.bytes,
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(written to %s)\n", path.c_str());
  }

 private:
  struct Row {
    std::string name, config;
    double seconds;
    long long bytes;
  };
  std::string bench_;
  std::vector<Row> rows_;
};

// Self-contained miniature system: 2 Si atoms, reduced cutoff, hybrid
// functional on. The *structure* (mixed state, screened exchange, PT-IM
// fixed point) is identical to the paper's runs; only the scale differs.
struct MiniSystem {
  std::unique_ptr<grid::Lattice> lattice;
  pseudo::AtomList atoms;
  std::unique_ptr<grid::GSphere> sphere;
  std::unique_ptr<grid::FftGrid> wfc_grid;
  std::unique_ptr<grid::FftGrid> den_grid;
  std::unique_ptr<ham::Hamiltonian> ham;
  gs::ScfResult ground;

  static MiniSystem make(real_t temperature_k, real_t ecut = 3.0,
                         size_t nbands = 6) {
    MiniSystem s;
    const real_t box = 8.0;
    s.lattice = std::make_unique<grid::Lattice>(grid::Lattice::cubic(box));
    s.atoms.species = pseudo::Species::silicon_ah();
    s.atoms.positions = {{0.1 * box, 0.15 * box, 0.2 * box},
                         {0.6 * box, 0.55 * box, 0.65 * box}};
    s.sphere = std::make_unique<grid::GSphere>(*s.lattice, ecut);
    s.wfc_grid = std::make_unique<grid::FftGrid>(*s.lattice,
                                                 s.sphere->suggest_dims(1));
    s.den_grid = std::make_unique<grid::FftGrid>(*s.lattice,
                                                 s.sphere->suggest_dims(2));
    ham::HamiltonianOptions opt;
    s.ham = std::make_unique<ham::Hamiltonian>(
        *s.lattice, s.atoms, *s.sphere, *s.wfc_grid, *s.den_grid, opt);

    gs::ScfOptions scf;
    scf.nbands = nbands;
    scf.nelec = 8.0;
    scf.temperature_k = temperature_k;
    scf.tol_rho = 1e-7;
    scf.davidson_tol = 1e-8;
    s.ground = gs::ground_state(*s.ham, scf);
    return s;
  }

  td::TdState initial() const {
    return td::TdState::from_occupations(ground.phi, ground.occ);
  }

  std::vector<real_t> density(const td::TdState& s) const {
    return ham::density_sigma(s.phi, s.sigma, ham->den_map());
  }

  real_t dipole_x(const td::TdState& s) const {
    return td::dipole(density(s), *den_grid, {1.0, 0.0, 0.0});
  }

  real_t energy(const td::TdState& s) const {
    const auto rho = density(s);
    ham->set_density(rho);
    return ham->energy(s.phi, s.sigma, rho).total();
  }
};

// Run `steps` PT-IM steps of the band-parallel production propagator over
// `nranks` in-process thread ranks and return the per-rank measured
// CommStats — the real-solver analogue of the paper's Table I columns.
// step_seconds (optional) receives rank 0's wall clock over the step loop
// only, excluding per-rank Hamiltonian construction and state scatter.
inline std::vector<ptmpi::CommStats> run_distributed_steps(
    const MiniSystem& sys, td::PtImVariant variant,
    dist::ExchangePattern pattern, int nranks, int steps,
    double* step_seconds = nullptr,
    Precision exchange_precision = Precision::kDouble) {
  const size_t nb = sys.ground.phi.cols();
  const dist::BlockLayout bands(nb, nranks);
  const td::TdState init = sys.initial();
  ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
    // Per-rank Hamiltonian over the shared read-only grids.
    ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                       *sys.den_grid, ham::HamiltonianOptions{});
    dist::BandHamOptions bopt;
    bopt.pattern = pattern;
    dist::BandDistributedHamiltonian bdh(c, h, nb, bopt);
    td::TdState s = td::scatter_state(init, bands, c.rank());
    td::PtImOptions opt;
    opt.dt = 1.0;
    opt.tol = 1e-7;
    opt.variant = variant;
    opt.exchange_precision = exchange_precision;
    td::PtImPropagator prop(bdh, opt, nullptr);
    c.barrier();  // setup done on every rank before the clock starts
    Timer t;
    for (int i = 0; i < steps; ++i) prop.step(s);
    if (c.rank() == 0 && step_seconds) *step_seconds = t.seconds();
  });
  return ptmpi::last_run_stats();
}

// Best-of-`reps` wall time of one distributed diag-exchange application
// over `nranks` thread ranks under the given circulation pattern — the
// shared measurement behind the overlap benches
// (bench_overlap and the closing section of bench_table1_comm), so the
// serialized-vs-overlapped protocol cannot drift between them.
// comm_seconds (optional) receives rank 0's Sendrecv + Wait + Bcast
// seconds from the SAME repetition the returned time comes from.
inline double time_exchange_apply(const MiniSystem& sys,
                                  const pw::SphereGridMap& map,
                                  dist::ExchangePattern pat, int nranks,
                                  int reps = 3,
                                  double* comm_seconds = nullptr) {
  ham::ExchangeOperator xop(map, {});
  double best = 1e99;
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
      (void)dist::exchange_apply_distributed(
          c, xop, sys.ground.phi, sys.ground.occ, sys.ground.phi, pat);
    });
    const double secs = t.seconds();
    if (secs < best) {
      best = secs;
      if (comm_seconds) {
        *comm_seconds = 0.0;
        // Quiesced locked copy (CommStats::snapshot) — the one sanctioned
        // way to read op stats, even though run_ranks has already joined.
        const ptmpi::CommStats st = ptmpi::last_run_stats()[0].snapshot();
        for (const char* op : {"Sendrecv", "Wait", "Bcast"}) {
          const auto it = st.ops.find(op);
          if (it != st.ops.end()) *comm_seconds += it->second.seconds;
        }
      }
    }
  }
  return best;
}

// One measured exchange application on a pb x pg process grid (pg == 1
// runs the production 1-D band circulation, pg > 1 the slab pipeline) —
// the shared measurement behind the pb x pg sweeps of bench_table1_comm
// and bench_fig10_strong. Reports rank 0's per-rank traffic split into the
// ring payload (Sendrecv + Wait + Bcast), the pencil-transpose Alltoallv
// and the sphere-gather Allreduce (2-D-only traffic that must be counted
// against the ring-byte savings), plus rank 0's slab-FFT seconds and the
// apply wall time. Setup (GridContext splits, FFT plan tables, scatter
// plans, band slicing) happens OUTSIDE the timed window on every layout,
// so the apply column compares like with like.
struct GridSweepRow {
  int pb = 1, pg = 1;
  double apply_seconds = 0.0;     // rank 0 wall time of the apply only
  double slab_fft_seconds = 0.0;  // 0 when pg == 1 (no distributed FFT)
  long long ring_bytes = 0;
  long long alltoallv_bytes = 0;
  long long allreduce_bytes = 0;
};

inline GridSweepRow run_grid_exchange(const MiniSystem& sys,
                                      const pw::SphereGridMap& map, int pb,
                                      int pg, dist::ExchangePattern pat) {
  ham::ExchangeOperator xop(map, {});
  const la::MatC& src = sys.ground.phi;
  const std::vector<real_t>& d = sys.ground.occ;
  const dist::BlockLayout bands(src.cols(), pb);
  const int nranks = pb * pg;
  GridSweepRow row;
  row.pb = pb;
  row.pg = pg;
  std::vector<double> fft_secs(static_cast<size_t>(nranks), 0.0);
  double apply_secs = 0.0;  // written by world rank 0 only
  ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
    const dist::ProcessGrid pgrid{pb, pg};
    const int br = pgrid.band_rank_of(c.rank());
    const la::MatC src_local = dist::scatter_bands(src, bands, br);
    if (pg <= 1) {
      c.barrier();  // setup done everywhere before the clock starts
      Timer t;
      (void)dist::exchange_apply_distributed_local(c, xop, src_local, d,
                                                   src_local, bands, pat);
      if (c.rank() == 0) apply_secs = t.seconds();
      return;
    }
    dist::GridContext gc(c, pgrid, map);
    c.barrier();
    Timer t;
    (void)dist::exchange_apply_slab_local(gc, xop, src_local, d, src_local,
                                          bands, pat);
    if (c.rank() == 0) apply_secs = t.seconds();
    fft_secs[static_cast<size_t>(c.rank())] =
        gc.fft64().seconds() + gc.fft32().seconds();
  });
  row.apply_seconds = apply_secs;
  row.slab_fft_seconds = fft_secs[0];
  const ptmpi::CommStats st = ptmpi::last_run_stats()[0].snapshot();
  auto bytes_of = [&](const char* op) {
    const auto it = st.ops.find(op);
    return it != st.ops.end() ? it->second.bytes : 0LL;
  };
  row.ring_bytes =
      bytes_of("Sendrecv") + bytes_of("Wait") + bytes_of("Bcast");
  row.alltoallv_bytes = bytes_of("Alltoallv");
  row.allreduce_bytes = bytes_of("Allreduce");
  return row;
}

inline void rule(char c = '-') {
  for (int i = 0; i < 78; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void header(const std::string& title) {
  rule('=');
  std::printf("%s\n", title.c_str());
  rule('=');
}

}  // namespace ptim::bench
