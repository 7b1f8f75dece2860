// Fig. 7 reproduction: accuracy of PT-IM-ACE with a large (50 as class)
// time step against RK4 with a far smaller step, for (a) the laser field,
// (b/c) dipole and total energy in PURE states, (d/e) the same in MIXED
// (finite-temperature) states.
//
// Paper setup: 8-atom Si, 380 nm pulse, 30 fs, dt = 50 as vs RK4 at 0.5 as.
// Here: 2-atom Si-like cell, 380 nm pulse over a short window, PT-IM-ACE
// dt = 1 a.u. vs RK4 dt = 0.04 a.u. (25x smaller) — the paper's claim is
// the *agreement* between the two propagators, which is scale-free.

#include <cmath>
#include <vector>

#include "bench_common.hpp"

using namespace ptim;
using bench::MiniSystem;

namespace {

struct Series {
  std::vector<real_t> t, dipole, energy;
};

Series run_ptim(MiniSystem& sys, const td::LaserPulse& laser, real_t dt,
                int steps) {
  td::TdState s = sys.initial();
  td::PtImOptions opt;
  opt.dt = dt;
  opt.tol = 1e-9;
  opt.variant = td::PtImVariant::kAce;
  opt.tol_fock = 1e-10;
  td::PtImPropagator prop(*sys.ham, opt, &laser);
  Series out;
  for (int i = 0; i < steps; ++i) {
    prop.step(s);
    out.t.push_back(s.time);
    out.dipole.push_back(sys.dipole_x(s));
    out.energy.push_back(sys.energy(s));
  }
  return out;
}

Series run_rk4(MiniSystem& sys, const td::LaserPulse& laser, real_t dt_big,
               int steps, int substeps) {
  td::TdState s = sys.initial();
  td::Rk4Options opt;
  opt.dt = dt_big / substeps;
  td::Rk4Propagator prop(*sys.ham, opt, &laser);
  Series out;
  for (int i = 0; i < steps; ++i) {
    for (int k = 0; k < substeps; ++k) prop.step(s);
    out.t.push_back(s.time);
    out.dipole.push_back(sys.dipole_x(s));
    out.energy.push_back(sys.energy(s));
  }
  return out;
}

void compare(const char* label, MiniSystem& sys) {
  const real_t dt = 1.0;       // PT-IM step (50-as class in a.u. terms)
  const int steps = 8;
  const int substeps = 25;     // RK4 runs 25x finer
  const real_t t_total = dt * steps;

  td::LaserParams lp;
  lp.e0 = 0.02;
  lp.wavelength_nm = 380.0;
  td::LaserPulse laser(lp, t_total);

  std::printf("\n-- %s --\n", label);
  std::printf("%8s %14s %14s %14s %14s %12s\n", "t (au)", "E(t) a.u.",
              "dip PT-IM-ACE", "dip RK4", "E PT-IM-ACE", "E RK4");
  const Series pt = run_ptim(sys, laser, dt, steps);
  const Series rk = run_rk4(sys, laser, dt, steps, substeps);

  real_t max_dip_err = 0.0, max_e_err = 0.0, dip_amp = 0.0;
  for (int i = 0; i < steps; ++i) {
    std::printf("%8.2f %14.6e %14.6e %14.6e %14.8f %12.8f\n", pt.t[i],
                laser.efield(pt.t[i]), pt.dipole[i], rk.dipole[i],
                pt.energy[i], rk.energy[i]);
    max_dip_err = std::max(max_dip_err, std::abs(pt.dipole[i] - rk.dipole[i]));
    max_e_err = std::max(max_e_err, std::abs(pt.energy[i] - rk.energy[i]));
    dip_amp = std::max(dip_amp, std::abs(rk.dipole[i]));
  }
  std::printf("max |dipole diff| = %.3e  (signal amplitude %.3e, rel %.2f%%)\n",
              max_dip_err, dip_amp, 100.0 * max_dip_err / dip_amp);
  std::printf("max |energy diff| = %.3e Ha\n", max_e_err);
  std::printf("paper claim: PT-IM-ACE at 50 as fully matches RK4 at 0.5 as "
              "(pure and mixed states)\n");
}

// Precision sweep: the same 10-step PT-IM-ACE trajectory with the exchange
// pipeline at every Precision mode. Energies and dipoles of every run are
// measured with the FP64 operator so the columns isolate trajectory drift;
// wall time and FFT counts are the in-mode hot-path numbers. Results land
// in BENCH_exchange_precision.json for the perf/accuracy trajectory.
void precision_sweep(MiniSystem& sys) {
  const int steps = 10;
  const real_t dt = 1.0;

  struct Run {
    Precision p;
    double seconds = 0.0;
    long ffts = 0;
    std::vector<real_t> dipole, energy;
  };
  std::vector<Run> runs;
  for (const Precision p : {Precision::kDouble, Precision::kSingle,
                            Precision::kSingleCompensated}) {
    Run run;
    run.p = p;
    sys.ham->set_exchange_precision(p);
    td::TdState s = sys.initial();
    td::PtImOptions opt;
    opt.dt = dt;
    opt.variant = td::PtImVariant::kAce;
    // Production tolerances (paper defaults). Note: tol_fock must sit above
    // the FP32 noise floor (~1e-7 relative) or the ACE outer loop runs to
    // its cap chasing noise — the README's "when to pick each mode" rule.
    opt.tol = 1e-6;
    opt.tol_fock = 1e-6;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    for (int i = 0; i < steps; ++i) {
      // Wall clock and FFT count cover the steps only, not the FP64
      // measurement of the observables.
      const long f0 = sys.ham->exchange_op().fft_count;
      Timer t;
      prop.step(s);
      run.seconds += t.seconds();
      run.ffts += sys.ham->exchange_op().fft_count - f0;
      sys.ham->set_exchange_precision(Precision::kDouble);
      run.dipole.push_back(sys.dipole_x(s));
      run.energy.push_back(sys.energy(s));
      sys.ham->set_exchange_precision(p);
    }
    runs.push_back(std::move(run));
  }
  sys.ham->set_exchange_precision(Precision::kDouble);

  std::printf("\n-- precision sweep: 10-step PT-IM-ACE, exchange pipeline "
              "per mode --\n");
  std::printf("%10s %12s %8s %14s %16s\n", "precision", "seconds", "FFTs",
              "max |dE| Ha", "dipole drift");
  const Run& ref = runs[0];
  struct Row {
    Precision p;
    double seconds;
    long ffts;
    double max_de, dip_drift;
  };
  std::vector<Row> rows;
  for (const Run& r : runs) {
    double max_de = 0.0, drift = 0.0;
    for (size_t i = 0; i < r.energy.size(); ++i)
      max_de = std::max(max_de, std::abs(r.energy[i] - ref.energy[i]));
    for (size_t i = 0; i < r.dipole.size(); ++i)
      drift = std::max(drift, std::abs(r.dipole[i] - ref.dipole[i]));
    rows.push_back({r.p, r.seconds, r.ffts, max_de, drift});
    std::printf("%10s %12.4f %8ld %14.3e %16.3e\n", precision_name(r.p),
                r.seconds, r.ffts, max_de, drift);
  }
  std::printf("(energies/dipoles measured with the FP64 operator; FP32 "
              "affects only the exchange hot path)\n");

  const char* path = "BENCH_exchange_precision.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"exchange_precision\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"precision\": \"%s\", \"seconds\": %.6e, "
                   "\"ffts\": %ld, \"max_abs_denergy\": %.3e, "
                   "\"dipole_drift\": %.3e, \"speedup_vs_fp64\": %.4f}%s\n",
                   precision_name(rows[i].p), rows[i].seconds, rows[i].ffts,
                   rows[i].max_de, rows[i].dip_drift,
                   rows[0].seconds / rows[i].seconds,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(per-mode timings written to %s)\n", path);
  }
}

// ISDF rank sweep: the same 10-step PT-IM-ACE trajectory with the
// low-rank exchange at rank factors c in {4, 6, 8, 12} vs the dense
// operator. As in the precision sweep, observables of every run are
// measured with the DENSE FP64 operator so the columns isolate trajectory
// drift; wall time and FFT counts are the in-mode hot-path numbers.
// Results land in BENCH_isdf_accuracy.json for the accuracy trajectory.
void isdf_rank_sweep(MiniSystem& sys) {
  const int steps = 10;
  const real_t dt = 1.0;

  struct Run {
    real_t c = 0.0;  // 0 = dense reference
    double seconds = 0.0;
    long ffts = 0;
    std::vector<real_t> dipole, energy;
  };
  std::vector<Run> runs;
  for (const real_t c : {0.0, 4.0, 6.0, 8.0, 12.0}) {
    Run run;
    run.c = c;
    if (c > 0.0) {
      sys.ham->set_exchange_compression(ham::ExchangeCompression::kIsdf);
      sys.ham->set_isdf_rank_factor(c);
    } else {
      sys.ham->set_exchange_compression(ham::ExchangeCompression::kDense);
    }
    td::TdState s = sys.initial();
    td::PtImOptions opt;
    opt.dt = dt;
    opt.variant = td::PtImVariant::kAce;
    opt.tol = 1e-6;
    opt.tol_fock = 1e-6;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    for (int i = 0; i < steps; ++i) {
      const long f0 = sys.ham->exchange_op().fft_count;
      Timer t;
      prop.step(s);
      run.seconds += t.seconds();
      run.ffts += sys.ham->exchange_op().fft_count - f0;
      // Observables through the dense operator, so every column is
      // measured with the same ruler.
      sys.ham->set_exchange_compression(ham::ExchangeCompression::kDense);
      run.dipole.push_back(sys.dipole_x(s));
      run.energy.push_back(sys.energy(s));
      if (c > 0.0)
        sys.ham->set_exchange_compression(ham::ExchangeCompression::kIsdf);
    }
    runs.push_back(std::move(run));
  }
  sys.ham->set_exchange_compression(ham::ExchangeCompression::kDense);

  std::printf("\n-- ISDF rank sweep: 10-step PT-IM-ACE, low-rank exchange "
              "per rank factor --\n");
  std::printf("%10s %12s %8s %14s %16s\n", "c (Nmu/nb)", "seconds", "FFTs",
              "max |dE| Ha", "dipole drift");
  const Run& ref = runs[0];
  struct Row {
    real_t c;
    double seconds;
    long ffts;
    double max_de, dip_drift;
  };
  std::vector<Row> rows;
  for (const Run& r : runs) {
    double max_de = 0.0, drift = 0.0;
    for (size_t i = 0; i < r.energy.size(); ++i)
      max_de = std::max(max_de, std::abs(r.energy[i] - ref.energy[i]));
    for (size_t i = 0; i < r.dipole.size(); ++i)
      drift = std::max(drift, std::abs(r.dipole[i] - ref.dipole[i]));
    rows.push_back({r.c, r.seconds, r.ffts, max_de, drift});
    if (r.c > 0.0)
      std::printf("%10.1f %12.4f %8ld %14.3e %16.3e\n", r.c, r.seconds,
                  r.ffts, max_de, drift);
    else
      std::printf("%10s %12.4f %8ld %14s %16s\n", "dense", r.seconds, r.ffts,
                  "-", "-");
  }
  std::printf("(observables measured with the dense FP64 operator; the fit "
              "is rebuilt on every ACE outer iteration, on points held from "
              "each step's first midpoint build)\n");

  const char* path = "BENCH_isdf_accuracy.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"isdf_accuracy\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"rank_factor\": %.1f, \"seconds\": %.6e, "
                   "\"ffts\": %ld, \"max_abs_denergy\": %.3e, "
                   "\"dipole_drift\": %.3e}%s\n",
                   rows[i].c, rows[i].seconds, rows[i].ffts, rows[i].max_de,
                   rows[i].dip_drift, i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(per-rank-factor rows written to %s)\n", path);
  }
}

}  // namespace

int main() {
  bench::header(
      "Fig. 7 — PT-IM-ACE (large step) vs RK4 (25x smaller step):\n"
      "dipole moment along x and total energy, pure and mixed states");

  {
    MiniSystem pure = MiniSystem::make(/*T=*/0.0);
    compare("pure states (T = 0)", pure);
  }
  {
    MiniSystem mixed = MiniSystem::make(/*T=*/8000.0);
    compare("mixed states (T = 8000 K, fractional occupations)", mixed);
    precision_sweep(mixed);
    isdf_rank_sweep(mixed);
  }
  return 0;
}
