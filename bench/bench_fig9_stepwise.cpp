// Fig. 9 reproduction: step-by-step performance improvement
// BL -> Diag -> ACE -> Ring -> Async.
//
// Two complementary reproductions:
//  1. MEASURED on this host: wall-clock per PT-IM step of the real solver
//     in each algorithmic variant on a miniature system (plus measured
//     FFT-count reduction — the root cause of the Diag speedup), and the
//     Bcast/Ring/Async patterns timed over in-process thread ranks.
//  2. MODELED at paper scale: netsim projection for the 384-atom system on
//     240 ARM / 24 GPU nodes, printed against the published factors.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/simulation.hpp"
#include "dist/exchange_dist.hpp"
#include "netsim/experiments.hpp"

using namespace ptim;
using bench::MiniSystem;

int main() {
  bench::header("Fig. 9 — step-by-step improvement (BL/Diag/ACE/Ring/Async)");

  // ---------------------------------------------------- measured part ----
  std::printf("\n[measured] one PT-IM step per variant (2-atom mini system,"
              " this host)\n");
  MiniSystem sys = MiniSystem::make(8000.0);
  std::printf("%-10s %12s %12s %14s %12s\n", "variant", "seconds",
              "vs BL", "Vx FFT count", "SCF iters");

  struct MeasuredRow {
    const char* name;
    double seconds;
    long ffts;
    int scf_iters;
  };
  std::vector<MeasuredRow> measured;
  double t_bl = 0.0;
  for (const auto variant :
       {td::PtImVariant::kBaseline, td::PtImVariant::kDiag,
        td::PtImVariant::kAce}) {
    td::TdState s = sys.initial();
    td::PtImOptions opt;
    opt.dt = 1.0;
    opt.tol = 1e-7;
    opt.variant = variant;
    td::PtImPropagator prop(*sys.ham, opt, nullptr);
    sys.ham->exchange_op().fft_count = 0;
    Timer timer;
    const auto stats = prop.step(s);
    const double secs = timer.seconds();
    if (variant == td::PtImVariant::kBaseline) t_bl = secs;
    const char* name = variant == td::PtImVariant::kBaseline ? "BL"
                       : variant == td::PtImVariant::kDiag   ? "Diag"
                                                             : "ACE";
    std::printf("%-10s %12.3f %12.2fx %14ld %12d\n", name, secs, t_bl / secs,
                sys.ham->exchange_op().fft_count.load(),
                stats.scf_iterations);
    measured.push_back({name, secs, sys.ham->exchange_op().fft_count.load(),
                        stats.scf_iterations});
  }

  // Communication patterns over 4 in-process ranks.
  std::printf("\n[measured] exchange circulation patterns, 4 thread ranks\n");
  {
    pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
    ham::ExchangeOperator xop{map, {}};
    const la::MatC& src = sys.ground.phi;
    const std::vector<real_t>& d = sys.ground.occ;
    std::printf("%-10s %12s %16s\n", "pattern", "seconds", "bytes moved/rank");
    for (const auto pat :
         {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
          dist::ExchangePattern::kAsyncRing}) {
      Timer timer;
      ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
        (void)dist::exchange_apply_distributed(c, xop, src, d, src, pat);
      });
      long long bytes = 0;
      for (const auto& [op, st] : ptmpi::last_run_stats()[0].snapshot().ops)
        bytes += st.bytes;
      std::printf("%-10s %12.3f %16lld\n", dist::pattern_name(pat),
                  timer.seconds(), bytes);
    }
  }

  // Band-parallel production path: a full distributed PT-IM-ACE step per
  // circulation pattern, wall-clock next to the measured per-rank comm time
  // (the step-level analogue of the Ring -> Async rows of Fig. 9).
  std::printf("\n[measured] distributed PT-IM-ACE step, 4 thread ranks\n");
  std::printf("%-10s %12s %14s %16s\n", "pattern", "seconds", "comm s (r0)",
              "bytes moved/rank");
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    double step_seconds = 0.0;
    const auto stats = bench::run_distributed_steps(
        sys, td::PtImVariant::kAce, pat, 4, /*steps=*/1, &step_seconds);
    long long bytes = 0;
    for (const auto& [op, st] : stats[0].snapshot().ops) bytes += st.bytes;
    std::printf("%-10s %12.3f %14.4f %16lld\n", dist::pattern_name(pat),
                step_seconds, stats[0].total_seconds(), bytes);
  }

  // ------------------------------------------------------ traced part ----
  // The same 4-rank async-ring step again, but through Simulation::run with
  // tracing and metrics on, and the wire model giving every transfer a
  // measurable cost. Produces the artifacts the CI observability gate
  // checks: TRACE_fig9_stepwise.json (one merged Chrome trace with
  // per-rank compute/comm lanes — scripts/trace_validate.py verifies
  // nesting and a nonzero comm/compute overlap fraction) and
  // METRICS_fig9_stepwise.jsonl (per-rank StepReport rows whose
  // deterministic columns bench_compare.py gates against the baseline).
  std::printf("\n[traced] distributed PT-IM-ACE steps, 4 thread ranks,"
              " async ring + wire model\n");
  {
    core::SystemSpec spec;
    spec.ecut = 2.0;
    spec.temperature_k = 8000.0;
    spec.scf.tol_rho = 1e-6;
    core::Simulation sim(spec);
    sim.prepare_ground_state();

    core::RunConfig cfg;
    cfg.steps = 2;
    cfg.dt = 1.0;
    cfg.tol = 1e-7;
    cfg.variant = td::PtImVariant::kAce;
    cfg.nranks = 4;
    cfg.ranks_per_node = 2;
    cfg.pattern = dist::ExchangePattern::kAsyncRing;
    cfg.trace_path = "TRACE_fig9_stepwise.json";
    cfg.metrics_path = "METRICS_fig9_stepwise.jsonl";
    std::remove(cfg.metrics_path.c_str());  // the sink appends

    ptmpi::set_wire_model(2e-5, 1e-9);  // 20 us latency, ~1 GB/s
    Timer timer;
    (void)sim.run(cfg);
    const double secs = timer.seconds();
    ptmpi::set_wire_model(0.0, 0.0);
    std::printf("%d traced steps in %.3f s -> %s, %s\n", cfg.steps, secs,
                cfg.trace_path.c_str(), cfg.metrics_path.c_str());
  }

  // ----------------------------------------------------- modeled part ----
  struct PaperRow {
    const char* name;
    double vs_prev;
  };
  const PaperRow paper_arm[] = {
      {"BL", 1.0}, {"Diag", 12.86}, {"ACE", 3.3}, {"Ring", 1.13},
      {"Async", 1.14}};
  const PaperRow paper_gpu[] = {
      {"BL", 1.0}, {"Diag", 7.57}, {"ACE", 3.6}, {"Ring", 1.23},
      {"Async", 1.23}};

  auto print_model = [](const netsim::Platform& plat, size_t nodes,
                        const PaperRow* paper, double paper_total) {
    std::printf("\n[model] 384-atom Si on %zu nodes — %s\n", nodes,
                plat.name.c_str());
    std::printf("%-8s %14s %12s %12s %14s\n", "variant", "step (s)",
                "vs prev", "paper", "vs BL (model)");
    const auto rows = netsim::fig9_stepwise(plat, 384, nodes);
    for (size_t i = 0; i < rows.size(); ++i)
      std::printf("%-8s %14.2f %11.2fx %11.2fx %13.2fx\n",
                  netsim::variant_name(rows[i].variant),
                  rows[i].step_seconds, rows[i].speedup_vs_prev,
                  paper[i].vs_prev, rows[i].speedup_vs_baseline);
    std::printf("overall: model %.1fx vs paper %.1fx\n",
                rows.back().speedup_vs_baseline, paper_total);
  };
  print_model(netsim::Platform::fugaku_arm(), 240, paper_arm, 55.15);
  print_model(netsim::Platform::gpu_a100(), 24, paper_gpu, 41.44);

  // Machine-readable dump for the perf trajectory: measured per-variant
  // step costs on this host plus the modeled paper-scale ladder.
  const char* path = "BENCH_fig9_stepwise.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"measured_step\": [\n");
    for (size_t i = 0; i < measured.size(); ++i)
      std::fprintf(f,
                   "    {\"variant\": \"%s\", \"seconds\": %.6e, "
                   "\"speedup_vs_bl\": %.4f, \"vx_fft_count\": %ld, "
                   "\"scf_iterations\": %d}%s\n",
                   measured[i].name, measured[i].seconds,
                   measured[0].seconds / measured[i].seconds,
                   measured[i].ffts, measured[i].scf_iters,
                   i + 1 < measured.size() ? "," : "");
    std::fprintf(f, "  ],\n  \"model\": [\n");
    struct Plat {
      netsim::Platform plat;
      size_t nodes;
    };
    const Plat plats[] = {{netsim::Platform::fugaku_arm(), 240},
                          {netsim::Platform::gpu_a100(), 24}};
    for (size_t pi = 0; pi < 2; ++pi) {
      const auto rows = netsim::fig9_stepwise(plats[pi].plat, 384,
                                              plats[pi].nodes);
      for (size_t i = 0; i < rows.size(); ++i)
        std::fprintf(f,
                     "    {\"platform\": \"%s\", \"nodes\": %zu, "
                     "\"variant\": \"%s\", \"step_seconds\": %.4f, "
                     "\"speedup_vs_prev\": %.4f, "
                     "\"speedup_vs_baseline\": %.4f}%s\n",
                     plats[pi].plat.name.c_str(), plats[pi].nodes,
                     netsim::variant_name(rows[i].variant),
                     rows[i].step_seconds, rows[i].speedup_vs_prev,
                     rows[i].speedup_vs_baseline,
                     (pi == 1 && i + 1 == rows.size()) ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(written to %s)\n", path);
  }
  return 0;
}
