// Table I reproduction: MPI communication time per 50-as step for the
// 1536-atom system, ACE (bcast) vs Ring vs Async variants, on both
// platforms (960 ARM nodes / 96 GPU nodes), printed next to the published
// values. A second, measured section verifies the *pattern* byte counts on
// in-process thread ranks (Bcast traffic disappears under the ring), first
// on the standalone exchange kernel and then on the real band-parallel
// PT-IM propagator (per-op CommStats per 4-rank step). A final section
// measures the posted (Isend/Irecv) ring against the serialized Sendrecv
// ring under a synthetic wire model. Everything is also written
// machine-readable to BENCH_table1_comm.json.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "dist/exchange_dist.hpp"
#include "netsim/experiments.hpp"
#include "pw/wavefunction.hpp"

using namespace ptim;

namespace {

struct PaperRow {
  double a2a, sendrecv, wait, allgatherv, allreduce, bcast, total, ratio;
};

void run(const netsim::Platform& plat, size_t nodes, const PaperRow* paper) {
  std::printf("\n%s — 1536 atoms on %zu nodes\n", plat.name.c_str(), nodes);
  std::printf("%-7s %9s %9s %9s %11s %10s %8s %8s %7s\n", "variant",
              "Alltoallv", "Sendrecv", "Wait", "Allgatherv", "Allreduce",
              "Bcast", "total", "ratio");
  const auto rows = netsim::table1_comm(plat, 1536, nodes);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf("%-7s %9.2f %9.2f %9.2f %11.2f %10.2f %8.2f %8.2f %6.1f%%\n",
                netsim::variant_name(r.variant), r.comm.alltoallv,
                r.comm.sendrecv, r.comm.wait, r.comm.allgatherv,
                r.comm.allreduce, r.comm.bcast, r.comm.total(),
                100.0 * r.comm_ratio);
    std::printf("  paper %9.2f %9.2f %9.2f %11.2f %10.2f %8.2f %8.2f %6.1f%%\n",
                paper[i].a2a, paper[i].sendrecv, paper[i].wait,
                paper[i].allgatherv, paper[i].allreduce, paper[i].bcast,
                paper[i].total, paper[i].ratio);
  }
}

}  // namespace

int main() {
  bench::header("Table I — MPI communication time, 1536-atom silicon");

  const PaperRow arm[] = {
      {9.04, 0.0, 0.0, 0.17, 14.19, 67.22, 90.62, 18.92},
      {9.03, 30.1, 0.0, 0.17, 14.21, 0.03, 53.54, 12.73},
      {9.18, 0.0, 20.13, 0.17, 14.18, 0.03, 43.69, 10.65}};
  const PaperRow gpu[] = {
      {7.95, 0.0, 0.0, 0.47, 4.99, 64.85, 78.26, 25.72},
      {7.35, 20.54, 0.0, 0.47, 4.46, 0.89, 33.71, 21.13},
      {7.64, 0.0, 10.1, 0.47, 4.28, 0.82, 23.31, 16.38}};
  run(netsim::Platform::fugaku_arm(), 960, arm);
  run(netsim::Platform::gpu_a100(), 96, gpu);

  // Measured pattern check on thread ranks: the ring eliminates Bcast
  // bytes, and the FP32 exchange policy halves whatever pattern bytes
  // remain (cplxf slabs circulate instead of cplx).
  std::printf("\n[measured] per-rank bytes by MPI op, 4 thread ranks, one "
              "exchange application, FP64 vs FP32 slabs\n");
  bench::MiniSystem sys = bench::MiniSystem::make(8000.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  std::printf("%-10s %-6s", "pattern", "prec");
  for (const char* op : {"Bcast", "Sendrecv", "Wait", "Send", "Recv"})
    std::printf(" %12s", op);
  std::printf("\n");
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    for (const Precision prec : {Precision::kDouble, Precision::kSingle}) {
      ham::ExchangeOptions xopt;
      xopt.precision = prec;
      ham::ExchangeOperator xop{map, xopt};
      ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
        (void)dist::exchange_apply_distributed(c, xop, sys.ground.phi,
                                               sys.ground.occ, sys.ground.phi,
                                               pat);
      });
      const ptmpi::CommStats st = ptmpi::last_run_stats()[0].snapshot();
      std::printf("%-10s %-6s", prec == Precision::kDouble
                                    ? dist::pattern_name(pat) : "",
                  precision_name(prec));
      for (const char* op : {"Bcast", "Sendrecv", "Wait", "Send", "Recv"}) {
        const auto it = st.ops.find(op);
        std::printf(" %12lld", it == st.ops.end() ? 0LL : it->second.bytes);
      }
      std::printf("\n");
    }
  }

  // Measured Table I analogue from the REAL propagator: one full PT-IM-ACE
  // band-parallel step through td::PtImPropagator on 4 thread ranks, per-op
  // stats of rank 0 (calls / bytes / seconds) for each circulation pattern.
  static const char* kOps[] = {"Alltoallv", "Sendrecv", "Wait",
                               "Allgatherv", "Allreduce", "Bcast"};
  std::printf("\n[measured] per-op CommStats of one distributed PT-IM-ACE "
              "step (4 thread ranks, rank 0)\n");
  std::printf("%-10s %-6s", "pattern", "");
  for (const char* op : kOps) std::printf(" %12s", op);
  std::printf("\n");
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    const auto stats = bench::run_distributed_steps(
        sys, td::PtImVariant::kAce, pat, 4, /*steps=*/1);
    const ptmpi::CommStats st = stats[0].snapshot();
    bool first = true;
    auto row = [&](const char* what,
                   const std::function<void(const ptmpi::OpStats&)>& get) {
      std::printf("%-10s %-6s", first ? dist::pattern_name(pat) : "", what);
      first = false;
      for (const char* op : kOps) {
        const auto it = st.ops.find(op);
        if (it == st.ops.end())
          std::printf(" %12s", "-");
        else
          get(it->second);
      }
      std::printf("\n");
    };
    row("calls",
        [](const ptmpi::OpStats& o) { std::printf(" %12ld", o.calls); });
    row("bytes",
        [](const ptmpi::OpStats& o) { std::printf(" %12lld", o.bytes); });
    row("ms", [](const ptmpi::OpStats& o) {
      std::printf(" %12.3f", o.seconds * 1e3);
    });
  }

  // The same real-propagator step with the FP32 exchange policy: the
  // exchange slab bytes (Sendrecv/Wait under rings, Bcast otherwise) drop
  // to ~half while the FP64 Allreduce/Alltoallv columns are untouched —
  // the policy narrows only the exchange payloads.
  std::printf("\n[measured] same step, FP32 exchange pipeline "
              "(opt.exchange_precision = kSingle)\n");
  std::printf("%-10s %-6s", "pattern", "");
  for (const char* op : kOps) std::printf(" %12s", op);
  std::printf("\n");
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    const auto stats = bench::run_distributed_steps(
        sys, td::PtImVariant::kAce, pat, 4, /*steps=*/1, nullptr,
        Precision::kSingle);
    const ptmpi::CommStats st = stats[0].snapshot();
    std::printf("%-10s %-6s", dist::pattern_name(pat), "bytes");
    for (const char* op : kOps) {
      const auto it = st.ops.find(op);
      if (it == st.ops.end())
        std::printf(" %12s", "-");
      else
        std::printf(" %12lld", it->second.bytes);
    }
    std::printf("\n");
  }

  // Γ-point gamma_real circulation: with genuinely REAL orbitals the dist
  // layer votes the whole apply onto real payloads, so the circulating
  // slab bytes (Bcast under kBcast, Sendrecv/Wait under the rings) halve
  // versus the complex pipeline — and compose with the FP32 policy for a
  // 4x total cut. Recorded machine-readable as the "gamma_ring" array.
  struct GammaRow {
    const char* pattern;
    const char* mode;
    long long bcast, sendrecv, wait;
  };
  std::vector<GammaRow> gamma_rows;
  {
    const size_t nb = 6;
    const size_t ng = sys.wfc_grid->size();
    Rng grng(23);
    la::MatC rphi(sys.sphere->npw(), nb);
    std::vector<cplx> field(ng);
    for (size_t b = 0; b < nb; ++b) {
      for (auto& v : field) v = cplx(grng.uniform() - 0.5, 0.0);
      map.to_sphere(field.data(), rphi.col(b));
    }
    pw::orthonormalize_lowdin(rphi);
    const std::vector<real_t> rd(nb, 0.5);
    std::printf("\n[measured] Γ-point real orbitals: complex vs gamma_real "
                "circulation bytes (4 thread ranks, one exchange apply)\n");
    std::printf("%-10s %-12s %12s %12s %12s\n", "pattern", "mode", "Bcast",
                "Sendrecv", "Wait");
    for (const auto pat :
         {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
          dist::ExchangePattern::kAsyncRing}) {
      struct Mode {
        const char* name;
        bool gamma;
        Precision prec;
      };
      for (const Mode& m :
           {Mode{"complex", false, Precision::kDouble},
            Mode{"gamma", true, Precision::kDouble},
            Mode{"gamma+fp32", true, Precision::kSingle}}) {
        ham::ExchangeOptions xopt;
        xopt.gamma_real = m.gamma;
        xopt.precision = m.prec;
        ham::ExchangeOperator xop{map, xopt};
        ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
          (void)dist::exchange_apply_distributed(c, xop, rphi, rd, rphi, pat);
        });
        const ptmpi::CommStats st = ptmpi::last_run_stats()[0].snapshot();
        auto bytes_of = [&](const char* op) -> long long {
          const auto it = st.ops.find(op);
          return it == st.ops.end() ? 0LL : it->second.bytes;
        };
        const GammaRow row{dist::pattern_name(pat), m.name, bytes_of("Bcast"),
                           bytes_of("Sendrecv"), bytes_of("Wait")};
        std::printf("%-10s %-12s %12lld %12lld %12lld\n",
                    m.gamma == false ? row.pattern : "", row.mode, row.bcast,
                    row.sendrecv, row.wait);
        gamma_rows.push_back(row);
      }
    }
  }

  // 2-D pb x pg sweep at equal total ranks: the grid dimension shrinks the
  // circulating ring payload (z-slab portions instead of whole-grid slabs,
  // a pg-fold cut) and moves the pair FFTs onto the distributed slab
  // engine, whose pencil transposes appear as Alltoallv bytes and whose
  // cost is the slab-FFT column. Written machine-readable through the
  // shared bench schema (BENCH_table1_grid_sweep.json).
  bench::BenchJson sweep_json("table1_grid_sweep");
  std::printf("\n[measured] pb x pg sweep, one exchange application, "
              "4 total ranks (per-rank bytes, rank 0)\n");
  std::printf("%-8s %-10s %12s %12s %12s %12s %12s\n", "pb x pg", "pattern",
              "ring B", "a2a B", "allred B", "slabFFT ms", "apply ms");
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    for (const auto& [pb, pg] :
         {std::pair{4, 1}, std::pair{2, 2}, std::pair{1, 4}}) {
      const bench::GridSweepRow r =
          bench::run_grid_exchange(sys, map, pb, pg, pat);
      std::printf("%dx%-6d %-10s %12lld %12lld %12lld %12.3f %12.3f\n", r.pb,
                  r.pg, dist::pattern_name(pat), r.ring_bytes,
                  r.alltoallv_bytes, r.allreduce_bytes,
                  r.slab_fft_seconds * 1e3, r.apply_seconds * 1e3);
      char cfg[96];
      std::snprintf(cfg, sizeof(cfg), "pb=%d pg=%d pattern=%s", r.pb, r.pg,
                    dist::pattern_name(pat));
      sweep_json.add("ring_bytes", cfg,
                     static_cast<double>(r.apply_seconds), r.ring_bytes);
      sweep_json.add("alltoallv_bytes", cfg, r.slab_fft_seconds,
                     r.alltoallv_bytes);
      sweep_json.add("allreduce_bytes", cfg, 0.0, r.allreduce_bytes);
    }
  }
  sweep_json.write();

  // Serialized vs posted ring (Isend/Irecv of the next slab in flight while
  // the current one is applied) under a synthetic wire model, so the
  // transfer has real cost to hide — the measured wait-time overlap the
  // paper's Async rows report. Shared protocol: bench::time_exchange_apply
  // (bench_overlap reports the same pair with per-op comm seconds).
  std::printf("\n[measured] serialized vs posted ring exchange "
              "(4 ranks, synthetic wire)\n");
  struct Overlap {
    const char* engine;
    const char* pattern;
    double serialized_s, step_s;
  };
  std::vector<Overlap> overlaps;
  {
    const int p = 4;
    const double compute_only =
        bench::time_exchange_apply(sys, map, dist::ExchangePattern::kRing, p);
    ptmpi::set_wire_model(1.2 * compute_only / (p - 1), 0.0);
    // Baseline: the serialized Sendrecv ring; the posted ring hides the
    // wire wait behind the slab's compute.
    const double serialized =
        bench::time_exchange_apply(sys, map, dist::ExchangePattern::kRing, p);
    std::printf("%-20s %-8s %12s %10s\n", "engine", "pattern", "step",
                "vs serial");
    std::printf("%-20s %-8s %10.2fms %9.2fx\n", "serialized", "ring",
                serialized * 1e3, 1.0);
    overlaps.push_back({"serialized", "ring", serialized, serialized});
    const double t = bench::time_exchange_apply(
        sys, map, dist::ExchangePattern::kAsyncRing, p);
    std::printf("%-20s %-8s %10.2fms %9.2fx\n", "host-overlapped", "async",
                t * 1e3, serialized / t);
    overlaps.push_back({"host-overlapped", "async", serialized, t});
    ptmpi::set_wire_model(0.0, 0.0);
  }

  // Machine-readable dump: modeled Table I rows + measured overlap timing.
  const char* path = "BENCH_table1_comm.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"model\": [\n");
    struct Plat {
      netsim::Platform plat;
      size_t nodes;
    };
    const Plat plats[] = {{netsim::Platform::fugaku_arm(), 960},
                          {netsim::Platform::gpu_a100(), 96}};
    for (size_t pi = 0; pi < 2; ++pi) {
      const auto rows = netsim::table1_comm(plats[pi].plat, 1536,
                                            plats[pi].nodes);
      for (size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::fprintf(
            f,
            "    {\"platform\": \"%s\", \"nodes\": %zu, \"variant\": "
            "\"%s\", \"alltoallv\": %.3f, \"sendrecv\": %.3f, \"wait\": "
            "%.3f, \"allgatherv\": %.3f, \"allreduce\": %.3f, \"bcast\": "
            "%.3f, \"total\": %.3f, \"comm_ratio\": %.4f}%s\n",
            plats[pi].plat.name.c_str(), plats[pi].nodes,
            netsim::variant_name(r.variant), r.comm.alltoallv,
            r.comm.sendrecv, r.comm.wait, r.comm.allgatherv, r.comm.allreduce,
            r.comm.bcast, r.comm.total(), r.comm_ratio,
            (pi == 1 && i + 1 == rows.size()) ? "" : ",");
      }
    }
    std::fprintf(f, "  ],\n  \"overlap\": [\n");
    for (size_t i = 0; i < overlaps.size(); ++i) {
      const auto& o = overlaps[i];
      std::fprintf(f,
                   "    {\"engine\": \"%s\", \"pattern\": \"%s\", "
                   "\"step_seconds\": %.6e, "
                   "\"serialized_baseline_seconds\": %.6e, "
                   "\"speedup_vs_serialized\": %.4f, "
                   "\"wait_hidden_seconds\": %.6e}%s\n",
                   o.engine, o.pattern, o.step_s, o.serialized_s,
                   o.serialized_s / o.step_s,
                   std::max(0.0, o.serialized_s - o.step_s),
                   i + 1 < overlaps.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gamma_ring\": [\n");
    for (size_t i = 0; i < gamma_rows.size(); ++i) {
      const auto& g = gamma_rows[i];
      std::fprintf(f,
                   "    {\"pattern\": \"%s\", \"mode\": \"%s\", "
                   "\"bcast_bytes\": %lld, \"sendrecv_bytes\": %lld, "
                   "\"wait_bytes\": %lld}%s\n",
                   g.pattern, g.mode, g.bcast, g.sendrecv, g.wait,
                   i + 1 < gamma_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(written to %s)\n", path);
  }
  return 0;
}
