// Overlap benchmark: the serialized Sendrecv ring vs the posted Isend/Irecv
// ring (the transfer of slab k+1 in flight while slab k is applied),
// measured on in-process thread ranks with a synthetic wire model so the
// transfer time is non-trivial — the one-machine analogue of the paper's
// Async rows.
//
// Per circulation round the serialized ring pays compute + wire while the
// posted ring pays ~max(compute, wire); the difference is the measured
// wait-time reduction. Results (and the per-op CommStats wait seconds)
// are written to BENCH_overlap.json for the perf trajectory. The shared
// measurement protocol lives in bench::time_exchange_apply.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dist/exchange_dist.hpp"

using namespace ptim;

int main() {
  bench::header("Overlap — serialized vs posted (Isend/Irecv) ring exchange");

  bench::MiniSystem sys = bench::MiniSystem::make(8000.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const int p = 4;

  // Compute-only reference (no wire): what a circulation costs with free
  // comm.
  const double compute_only =
      bench::time_exchange_apply(sys, map, dist::ExchangePattern::kRing, p);
  // Wire time per slab chosen relative to the compute so the overlap has
  // something real to hide: roughly one circulation's worth of compute in
  // pure transfer (the comm-bound regime of the paper's large runs, where
  // the Async rows earn their keep).
  const double wire_per_msg = 1.2 * compute_only / (p - 1);
  ptmpi::set_wire_model(wire_per_msg, 0.0);
  std::printf("\n%d thread ranks; wire model: %.2f ms per message "
              "(compute-only circulation: %.2f ms)\n",
              p, wire_per_msg * 1e3, compute_only * 1e3);

  // Baseline: the fully serialized Sendrecv ring (transfer stalls the hot
  // path every round). The host-overlapped kAsyncRing (Isend/Irecv posted
  // before the apply, waits after) is measured against it.
  struct Config {
    const char* engine;
    const char* pattern;
    dist::ExchangePattern pat;
  };
  const Config configs[] = {
      {"serialized", "ring", dist::ExchangePattern::kRing},
      {"host-overlapped", "async", dist::ExchangePattern::kAsyncRing},
  };
  struct Row {
    const Config* cfg;
    double step_s, comm_s;
  };
  std::printf("\n%-20s %-8s %12s %10s %12s\n", "engine", "pattern", "step",
              "vs serial", "comm s (r0)");
  std::vector<Row> rows;
  double base_s = 0.0;
  for (const Config& cfg : configs) {
    Row r{&cfg, 0.0, 0.0};
    r.step_s = bench::time_exchange_apply(sys, map, cfg.pat, p, /*reps=*/3,
                                          &r.comm_s);
    if (base_s == 0.0) base_s = r.step_s;
    std::printf("%-20s %-8s %10.2fms %9.2fx %10.2fms\n", cfg.engine,
                cfg.pattern, r.step_s * 1e3, base_s / r.step_s,
                r.comm_s * 1e3);
    rows.push_back(r);
  }
  ptmpi::set_wire_model(0.0, 0.0);
  std::printf(
      "(comm s = rank 0 Sendrecv + Wait + Bcast seconds. Under the "
      "posted ring the wire wait runs concurrently with the slab's "
      "compute — off the critical path — which is what the vs-serial "
      "column measures; on a single-core host only the wait, not the "
      "compute, can be hidden.)\n");

  const char* path = "BENCH_overlap.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f,
                 "{\n  \"ranks\": %d,\n  \"wire_seconds_per_message\": %.6e,"
                 "\n  \"compute_only_circulation_seconds\": %.6e,\n"
                 "  \"overlap\": [\n",
                 p, wire_per_msg, compute_only);
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(
          f,
          "    {\"engine\": \"%s\", \"pattern\": \"%s\", "
          "\"step_seconds\": %.6e, \"serialized_baseline_seconds\": %.6e, "
          "\"speedup_vs_serialized\": %.4f, "
          "\"wait_hidden_seconds\": %.6e, \"comm_seconds\": %.6e}%s\n",
          r.cfg->engine, r.cfg->pattern, r.step_s, base_s, base_s / r.step_s,
          std::max(0.0, base_s - r.step_s), r.comm_s,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(written to %s)\n", path);
  }
  return 0;
}
