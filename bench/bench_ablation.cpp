// Ablation studies for the design choices the README's "Benchmarks"
// section calls out (measured on the real solver):
//   A. Anderson mixing history (paper uses 20) vs plain damped iteration —
//      SCF iterations per PT-IM step.
//   B. ACE outer tolerance vs exact-exchange application count — the knob
//      behind the paper's 25 -> 5 reduction.
//   C. Time-step convergence of PT-IM: the implicit midpoint rule is
//      second order, which is what licenses the 50-as steps.
//   D. Exchange FFT batch size: per-pair (batch_size = 1) vs blocks of B
//      pair densities through the batched FFT engine — the PR's hot-path
//      optimization, measured on the real ground-state orbitals.

#include <chrono>
#include <cmath>

#include "bench_common.hpp"

using namespace ptim;
using bench::MiniSystem;

int main() {
  bench::header("Ablations — Anderson depth, ACE tolerance, dt order");

  MiniSystem sys = MiniSystem::make(8000.0);

  std::printf("\nA. Anderson history vs PT-IM fixed-point iterations "
              "(dt = 2 au, tol 1e-8)\n");
  std::printf("%12s %14s %12s\n", "history", "SCF iters", "converged");
  for (const size_t hist : {size_t(1), size_t(3), size_t(5), size_t(10),
                            size_t(20)}) {
    td::TdState s = sys.initial();
    td::PtImOptions opt;
    opt.dt = 2.0;
    opt.tol = 1e-8;
    opt.variant = td::PtImVariant::kDiag;
    opt.anderson_history = hist;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    const auto stats = prop.step(s);
    std::printf("%12zu %14d %12s\n", hist, stats.scf_iterations,
                stats.converged ? "yes" : "no");
  }
  std::printf("(paper: maximum Anderson dimension 20)\n");

  std::printf("\nB. ACE outer tolerance vs exact-exchange applications\n");
  std::printf("%12s %10s %10s %14s\n", "tol_fock", "outer", "Vx count",
              "SCF iters");
  for (const real_t tol : {1e-4, 1e-6, 1e-8, 1e-10}) {
    td::TdState s = sys.initial();
    td::PtImOptions opt;
    opt.dt = 2.0;
    opt.tol = 1e-8;
    opt.variant = td::PtImVariant::kAce;
    opt.tol_fock = tol;
    opt.max_outer = 12;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    const auto stats = prop.step(s);
    std::printf("%12.0e %10d %10d %14d\n", tol, stats.outer_iterations,
                stats.exchange_applications, stats.scf_iterations);
  }
  std::printf("(paper: tol 1e-6 -> ~5 Vx per step vs 25 without ACE)\n");

  std::printf("\nC. PT-IM time-step convergence (field-free, vs dt/4 "
              "reference)\n");
  std::printf("%8s %16s %10s\n", "dt (au)", "|rho - ref|_2", "order");
  const real_t t_final = 4.0;
  auto run_to = [&](real_t dt) {
    td::TdState s = sys.initial();
    td::PtImOptions opt;
    opt.dt = dt;
    opt.tol = 1e-11;
    opt.variant = td::PtImVariant::kDiag;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    const int n = static_cast<int>(std::lround(t_final / dt));
    for (int i = 0; i < n; ++i) prop.step(s);
    return sys.density(s);
  };
  const auto ref = run_to(0.25);
  real_t prev_err = 0.0;
  for (const real_t dt : {2.0, 1.0, 0.5}) {
    const auto rho = run_to(dt);
    real_t err = 0.0;
    for (size_t i = 0; i < rho.size(); ++i)
      err += (rho[i] - ref[i]) * (rho[i] - ref[i]);
    err = std::sqrt(err);
    std::printf("%8.2f %16.4e %10s\n", dt, err,
                prev_err > 0.0
                    ? std::to_string(std::log2(prev_err / err)).c_str()
                    : "-");
    prev_err = err;
  }
  std::printf("(implicit midpoint is order 2: halving dt should shrink the "
              "error ~4x)\n");

  std::printf("\nD. Exchange FFT batch size (one Vx apply on the converged "
              "ground state)\n");
  std::printf("%10s %12s %10s %10s %16s\n", "batch", "seconds", "FFTs",
              "speedup", "max|d| vs B=1");
  bench::BenchJson json("ablation");
  {
    pw::SphereGridMap map(*sys.sphere, *sys.wfc_grid);
    const la::MatC& phi = sys.ground.phi;
    const std::vector<real_t>& occ = sys.ground.occ;
    la::MatC ref;
    double t_ref = 0.0;
    for (const size_t bs : {size_t(1), size_t(2), size_t(4), size_t(8),
                            size_t(16)}) {
      ham::ExchangeOptions opt;
      opt.batch_size = bs;
      ham::ExchangeOperator xop(map, opt);
      la::MatC out(phi.rows(), phi.cols());
      xop.apply_diag(phi, occ, phi, out);  // warm-up
      xop.fft_count = 0;
      const auto t0 = std::chrono::steady_clock::now();
      xop.apply_diag(phi, occ, phi, out);
      const auto t1 = std::chrono::steady_clock::now();
      const double sec = std::chrono::duration<double>(t1 - t0).count();
      real_t max_abs = 0.0;
      if (bs == 1) {
        ref = out;
        t_ref = sec;
      } else {
        for (size_t i = 0; i < out.size(); ++i)
          max_abs = std::max(max_abs,
                             std::abs(out.data()[i] - ref.data()[i]));
      }
      std::printf("%10zu %12.5f %10ld %9.2fx %16.2e\n", bs, sec,
                  static_cast<long>(xop.fft_count), t_ref / sec, max_abs);
      char cfg[64];
      std::snprintf(cfg, sizeof(cfg), "batch_size=%zu ffts=%ld", bs,
                    static_cast<long>(xop.fft_count));
      json.add("exchange_apply", cfg, sec);
    }
  }
  json.write();
  std::printf("(batch_size is ExchangeOptions::batch_size; 1 is the "
              "paper-baseline per-pair path)\n");
  return 0;
}
