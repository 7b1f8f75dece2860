// Kernel microbenchmarks: the primitives whose sustained rates feed the
// netsim platform calibration — 3-D FFTs (single and batched), zgemm,
// exchange pair evaluation at every batch size, ACE application and the
// density builders. The google-benchmark section is optional
// (PTIM_HAVE_BENCHMARK; CI images lack the library): the plain-chrono
// comparisons below always build — per-pair vs batched exchange, FP64 vs
// FP32, dense vs ISDF, the per-SIMD-ISA c2c vs Γ-point r2c engine
// head-to-head, the engine at the production grids (14^3, 7^3) with its
// FP32 error, the sphere <-> grid transforms, the complex vs gamma_real
// exchange pipeline, the Rayleigh–Ritz eigensolver at the Davidson
// subspace sizes, and the la lanes per SIMD ISA at the solver's shapes —
// and the latter six record gated rows (FFT counts, the FP32 error, line
// transforms per column, the eigensolver residual, the la lanes' bitwise
// agreement with the scalar table) to BENCH_kernels.json.

#ifdef PTIM_HAVE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/simd.hpp"
#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "ham/ace.hpp"
#include "ham/density.hpp"
#include "ham/exchange.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "la/util.hpp"
#include "pseudo/atoms.hpp"
#include "pw/transforms.hpp"
#include "pw/wavefunction.hpp"

using namespace ptim;

namespace {

la::MatC random_mat(size_t r, size_t c, unsigned seed) {
  Rng rng(seed);
  la::MatC m(r, c);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_cplx();
  return m;
}

struct XBench {
  grid::Lattice lattice = grid::Lattice::cubic(8.0);
  grid::GSphere sphere{lattice, 3.0};
  grid::FftGrid wfc{lattice, sphere.suggest_dims(1)};
  grid::FftGrid den{lattice, sphere.suggest_dims(2)};
  pw::SphereGridMap map{sphere, wfc};
  pw::SphereGridMap dmap{sphere, den};
  ham::ExchangeOperator xop{map, {}};
};

XBench& xbench() {
  static XBench* x = new XBench();
  return *x;
}

}  // namespace

#ifdef PTIM_HAVE_BENCHMARK

static void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  fft::Fft3 f(n, n, n);
  std::vector<cplx> data(f.size());
  Rng rng(1);
  for (auto& v : data) v = rng.uniform_cplx();
  for (auto _ : state) {
    f.forward(data.data());
    f.inverse(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  const double ng = static_cast<double>(f.size());
  state.counters["MFLOP/s"] = benchmark::Counter(
      2.0 * 5.0 * ng * std::log2(ng) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(24)->Arg(32);

static void BM_Fft3DBatch(benchmark::State& state) {
  const size_t n = 20;
  const auto nbatch = static_cast<size_t>(state.range(0));
  fft::Fft3 f(n, n, n);
  std::vector<cplx> data(f.size() * nbatch);
  Rng rng(1);
  for (auto& v : data) v = rng.uniform_cplx();
  for (auto _ : state) {
    f.forward_batch(data.data(), nbatch);
    f.inverse_batch(data.data(), nbatch);
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["transforms/s"] = benchmark::Counter(
      2.0 * static_cast<double>(nbatch), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3DBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// FP32 twin of the batched 3-D transform: same boxes, half the bytes per
// element — the expected win on this bandwidth-bound kernel.
static void BM_Fft3DBatchF32(benchmark::State& state) {
  const size_t n = 20;
  const auto nbatch = static_cast<size_t>(state.range(0));
  fft::Fft3f f(n, n, n);
  std::vector<cplxf> data(f.size() * nbatch);
  Rng rng(1);
  for (auto& v : data) v = static_cast<cplxf>(rng.uniform_cplx());
  for (auto _ : state) {
    f.forward_batch(data.data(), nbatch);
    f.inverse_batch(data.data(), nbatch);
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["transforms/s"] = benchmark::Counter(
      2.0 * static_cast<double>(nbatch), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3DBatchF32)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

static void BM_GemmCN(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const la::MatC a = random_mat(4096, n, 2);
  const la::MatC b = random_mat(4096, n, 3);
  la::MatC c(n, n);
  for (auto _ : state) {
    la::gemm_cn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      8.0 * 4096.0 * static_cast<double>(n * n) * 1e-6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmCN)->Arg(8)->Arg(16)->Arg(32);

static void BM_ExchangePair(benchmark::State& state) {
  auto& x = xbench();
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, 1, 4);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, 1);
  const std::vector<real_t> d{1.0};
  for (auto _ : state) {
    x.xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["pairs/s"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangePair);

static void BM_ExchangeApplyN(benchmark::State& state) {
  auto& x = xbench();
  const auto nb = static_cast<size_t>(state.range(0));
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 5);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, nb);
  const std::vector<real_t> d(nb, 0.5);
  for (auto _ : state) {
    x.xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["pairFFTs/s"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangeApplyN)->Arg(2)->Arg(4)->Arg(8);

// Same problem (8 sources x 8 targets), swept over the exchange batch
// size. Arg(1) is the per-pair ablation baseline; the per-batch-size FFT
// counts and wall times land in the google-benchmark JSON via counters.
static void BM_ExchangeBatchSize(benchmark::State& state) {
  auto& x = xbench();
  const auto bs = static_cast<size_t>(state.range(0));
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 8);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, nb);
  const std::vector<real_t> d(nb, 0.5);
  ham::ExchangeOptions opt;
  opt.batch_size = bs;
  ham::ExchangeOperator xop(x.map, opt);
  xop.fft_count = 0;
  for (auto _ : state) {
    xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["ffts_per_apply"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb));
  state.counters["pairFFTs/s"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangeBatchSize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Batched exchange apply swept over the precision policy on one fixed 8x8
// problem: arg 0/1/2 = kDouble/kSingle/kSingleCompensated.
static void BM_ExchangePrecision(benchmark::State& state) {
  auto& x = xbench();
  const auto p = static_cast<Precision>(state.range(0));
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 10);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, nb);
  const std::vector<real_t> d(nb, 0.5);
  ham::ExchangeOptions opt;
  opt.precision = p;
  ham::ExchangeOperator xop(x.map, opt);
  for (auto _ : state) {
    xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(precision_name(p));
  state.counters["pairFFTs/s"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangePrecision)->Arg(0)->Arg(1)->Arg(2);

static void BM_AceApply(benchmark::State& state) {
  auto& x = xbench();
  const auto nb = static_cast<size_t>(state.range(0));
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 6);
  pw::orthonormalize_lowdin(src);
  la::MatC w(npw, nb);
  x.xop.apply_diag(src, std::vector<real_t>(nb, 0.5), src, w);
  const auto ace = ham::AceOperator::build(src, w);
  la::MatC out(npw, nb);
  for (auto _ : state) {
    ace.apply(src, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AceApply)->Arg(4)->Arg(8);

static void BM_DensitySigma(benchmark::State& state) {
  auto& x = xbench();
  const auto nb = static_cast<size_t>(state.range(0));
  const size_t npw = x.sphere.npw();
  la::MatC phi = random_mat(npw, nb, 7);
  pw::orthonormalize_lowdin(phi);
  la::MatC sigma(nb, nb);
  for (size_t i = 0; i < nb; ++i) sigma(i, i) = 0.5;
  for (auto _ : state) {
    auto rho = ham::density_sigma(phi, sigma, x.dmap);
    benchmark::DoNotOptimize(rho.data());
  }
}
BENCHMARK(BM_DensitySigma)->Arg(4)->Arg(8);

#endif  // PTIM_HAVE_BENCHMARK

namespace {

// Head-to-head acceptance check: per-pair (batch_size = 1) vs batched
// exchange on the same 8x8 problem — printed, and recorded per batch size
// to bench_exchange_batch.json for the perf trajectory.
void exchange_batch_comparison() {
  auto& x = xbench();
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 9);
  pw::orthonormalize_lowdin(src);
  const std::vector<real_t> d(nb, 0.5);

  struct Row {
    size_t batch;
    double seconds;
    long ffts;
    double max_abs_diff;
  };
  std::vector<Row> rows;
  la::MatC ref;
  const int reps = 3;
  for (const size_t bs : {size_t(1), size_t(2), size_t(4), size_t(8),
                          size_t(16)}) {
    ham::ExchangeOptions opt;
    opt.batch_size = bs;
    ham::ExchangeOperator xop(x.map, opt);
    la::MatC out(npw, nb);
    xop.apply_diag(src, d, src, out);  // warm-up
    xop.fft_count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) xop.apply_diag(src, d, src, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count() / reps;
    double max_abs = 0.0;
    if (bs == 1) {
      ref = out;
    } else {
      for (size_t i = 0; i < out.size(); ++i)
        max_abs =
            std::max(max_abs, std::abs(out.data()[i] - ref.data()[i]));
    }
    rows.push_back({bs, sec, xop.fft_count / reps, max_abs});
  }

  std::printf("\nExchange apply: per-pair vs batched FFT (8 sources x 8 "
              "targets, %zu^3-ish grid)\n", x.wfc.dims()[0]);
  std::printf("%10s %12s %10s %10s %16s\n", "batch", "seconds", "FFTs",
              "speedup", "max|d| vs B=1");
  for (const auto& r : rows)
    std::printf("%10zu %12.5f %10ld %9.2fx %16.2e\n", r.batch, r.seconds,
                r.ffts, rows[0].seconds / r.seconds, r.max_abs_diff);

  const char* path = "bench_exchange_batch.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"exchange_batch\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"batch_size\": %zu, \"seconds\": %.6e, "
                   "\"ffts\": %ld, \"speedup_vs_per_pair\": %.4f, "
                   "\"max_abs_diff\": %.3e}%s\n",
                   rows[i].batch, rows[i].seconds, rows[i].ffts,
                   rows[0].seconds / rows[i].seconds, rows[i].max_abs_diff,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(per-batch-size timings written to %s)\n", path);
  }
}

// Precision head-to-head: the FP64 batched exchange apply vs the FP32
// pipeline (plain and Kahan-compensated) on the same 8x8 problem. The
// acceptance bar is FP32 beating FP64 wall-clock while staying within 1e-6
// relative of the FP64 result.
void exchange_precision_comparison() {
  auto& x = xbench();
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 11);
  pw::orthonormalize_lowdin(src);
  const std::vector<real_t> d(nb, 0.5);

  struct Row {
    Precision p;
    double seconds;
    long ffts;
    double max_abs_diff;
  };
  std::vector<Row> rows;
  la::MatC ref;
  const int reps = 20;  // ~2 ms per apply; enough reps to drown scheduler noise
  for (const Precision p : {Precision::kDouble, Precision::kSingle,
                            Precision::kSingleCompensated}) {
    ham::ExchangeOptions opt;
    opt.precision = p;
    ham::ExchangeOperator xop(x.map, opt);
    la::MatC out(npw, nb);
    xop.apply_diag(src, d, src, out);  // warm-up
    xop.fft_count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) xop.apply_diag(src, d, src, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count() / reps;
    double max_abs = 0.0;
    if (p == Precision::kDouble) {
      ref = out;
    } else {
      for (size_t i = 0; i < out.size(); ++i)
        max_abs = std::max(max_abs, std::abs(out.data()[i] - ref.data()[i]));
    }
    rows.push_back({p, sec, xop.fft_count / reps, max_abs});
  }

  std::printf("\nExchange apply: FP64 vs FP32 pipeline (8 sources x 8 "
              "targets, batch 8)\n");
  std::printf("%10s %12s %10s %10s %16s\n", "precision", "seconds", "FFTs",
              "speedup", "max|d| vs fp64");
  for (const auto& r : rows)
    std::printf("%10s %12.5f %10ld %9.2fx %16.2e\n", precision_name(r.p),
                r.seconds, r.ffts, rows[0].seconds / r.seconds,
                r.max_abs_diff);
}

// Low-rank head-to-head: dense O(nb^2) pair-FFT exchange vs the ISDF
// compressed apply (fit rebuilt per apply, as in production) on the PT-IM
// shape (targets = the full band block). The acceptance bar is >= 2x fewer
// FFTs and a wall-clock win at nb >= 16; per-config rows are recorded to
// bench_exchange_isdf.json for the perf trajectory.
void exchange_isdf_comparison() {
  // Production-like grid (2744 points, radix-7 dims): large enough that
  // the dense path's 2 na nb pair FFTs dominate, the regime ISDF targets.
  grid::Lattice lattice = grid::Lattice::cubic(8.0);
  grid::GSphere sphere(lattice, 14.0);
  grid::FftGrid wfc(lattice, sphere.suggest_dims(1));
  pw::SphereGridMap map{sphere, wfc};
  const size_t npw = sphere.npw();

  struct Row {
    size_t nb;
    const char* mode;
    double rank_factor;
    double seconds;
    long ffts;
    double rel_err;
  };
  std::vector<Row> rows;
  const int reps = 25;
  for (const size_t nb : {size_t(16), size_t(32)}) {
    la::MatC src = random_mat(npw, nb, 13 + static_cast<unsigned>(nb));
    pw::orthonormalize_lowdin(src);
    const std::vector<real_t> d(nb, 0.5);
    la::MatC ref;
    double ref_norm = 1.0;
    struct Cfg {
      const char* mode;
      ham::ExchangeCompression comp;
      double c;
    };
    const std::vector<Cfg> cfgs = {
        Cfg{"dense", ham::ExchangeCompression::kDense, 0.0},
        Cfg{"isdf", ham::ExchangeCompression::kIsdf, 4.0},
        Cfg{"isdf", ham::ExchangeCompression::kIsdf, 8.0}};
    std::vector<std::unique_ptr<ham::ExchangeOperator>> xops;
    std::vector<double> secs(cfgs.size(), 1e300);
    la::MatC out(npw, nb);
    for (const Cfg& cfg : cfgs) {
      ham::ExchangeOptions opt;
      opt.compression = cfg.comp;
      if (cfg.c > 0.0) opt.isdf_rank_factor = cfg.c;
      xops.push_back(std::make_unique<ham::ExchangeOperator>(map, opt));
      xops.back()->apply_diag(src, d, src, out);  // warm-up
    }
    // Min over reps, interleaved round-robin across configs: shared-machine
    // timing drift is slower than one rep, so a contiguous per-config block
    // would bias whichever config lands on a slow phase. Interleaving gives
    // every config the same shot at the quiet windows the min picks out.
    for (int r = 0; r < reps; ++r)
      for (size_t ci = 0; ci < cfgs.size(); ++ci) {
        const auto t0 = std::chrono::steady_clock::now();
        xops[ci]->apply_diag(src, d, src, out);
        const auto t1 = std::chrono::steady_clock::now();
        secs[ci] =
            std::min(secs[ci], std::chrono::duration<double>(t1 - t0).count());
      }
    for (size_t ci = 0; ci < cfgs.size(); ++ci) {
      ham::ExchangeOperator& xop = *xops[ci];
      xop.fft_count = 0;
      xop.apply_diag(src, d, src, out);
      double rel = 0.0;
      if (cfgs[ci].comp == ham::ExchangeCompression::kDense) {
        ref = out;
        ref_norm = std::max(la::frob_norm(ref), 1.0);
      } else {
        rel = la::frob_diff(out, ref) / ref_norm;
      }
      rows.push_back(
          {nb, cfgs[ci].mode, cfgs[ci].c, secs[ci], xop.fft_count.load(), rel});
    }
  }

  std::printf("\nExchange apply: dense pair FFTs vs ISDF low-rank "
              "(targets = band block, fit per apply,\n ng=%zu grid; rel err "
              "is the incompressible-random-orbital regime, see README)\n",
              wfc.size());
  std::printf("%6s %8s %6s %12s %10s %10s %14s\n", "bands", "mode", "c",
              "seconds", "FFTs", "speedup", "rel|d| vs dense");
  double dense_sec = 0.0;
  for (const auto& r : rows) {
    if (r.rank_factor == 0.0) dense_sec = r.seconds;
    std::printf("%6zu %8s %6.1f %12.5f %10ld %9.2fx %14.2e\n", r.nb, r.mode,
                r.rank_factor, r.seconds, r.ffts, dense_sec / r.seconds,
                r.rel_err);
  }

  const char* path = "bench_exchange_isdf.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"exchange_isdf\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"bands\": %zu, \"mode\": \"%s\", "
                   "\"rank_factor\": %.1f, \"seconds\": %.6e, "
                   "\"ffts\": %ld, \"rel_err\": %.3e}%s\n",
                   rows[i].nb, rows[i].mode, rows[i].rank_factor,
                   rows[i].seconds, rows[i].ffts, rows[i].rel_err,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(per-config timings written to %s)\n", path);
  }
}

// --- Γ-point / SIMD engine comparisons ------------------------------------
// Both write FFT-count-gated rows to BENCH_kernels.json (wall-clock columns
// ride along for the local trajectory but are never gated).

struct KernelRow {
  std::string name, isa, variant;
  size_t fields;
  double seconds;
  long ffts;
  std::string box;  // grid of the production-grid rows; "" = none
  double rel_rms;   // FP32-vs-FP64 error rows only; < 0 = none
  long lines = -1;  // line transforms per column (sphere rows); < 0 = none
};
std::vector<KernelRow> kernel_rows;

// Batched 3-D engine head-to-head per available SIMD ISA: the complex c2c
// batch vs the Γ-point packed path (two reals per lane, the transform the
// exchange pair engine runs on real fields). Acceptance: packed r2c at the
// best ISA >= 2x the scalar c2c batch on the same fields.
void fft_engine_comparison() {
  const size_t n = 20, nfields = 16;
  fft::Fft3 f(n, n, n);
  const size_t ng = f.size();
  const size_t nlanes = (nfields + 1) / 2;
  Rng rng(17);
  std::vector<real_t> rdata(nfields * ng);
  for (auto& v : rdata) v = rng.uniform() - 0.5;
  std::vector<cplx> cdata(nfields * ng), packed(nlanes * ng);
  for (size_t i = 0; i < cdata.size(); ++i) cdata[i] = cplx(rdata[i], 0.0);
  for (size_t q = 0; q < nlanes; ++q)
    for (size_t i = 0; i < ng; ++i)
      packed[q * ng + i] =
          cplx(rdata[2 * q * ng + i], rdata[(2 * q + 1) * ng + i]);

  std::printf("\nBatched 3-D FFT engine: c2c vs Γ-point r2c per SIMD ISA "
              "(%zu^3 box, %zu real fields)\n",
              n, nfields);
  std::printf("%8s %12s %8s %12s %6s %10s\n", "isa", "variant", "fields",
              "seconds", "FFTs", "speedup");
  const int reps = 6;
  double scalar_c2c = 0.0;
  using isa::Isa;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (!isa::available(isa)) continue;
    isa::force(isa);
    struct Variant {
      const char* name;
      std::function<void()> run;
      long ffts;  // 3-D transforms per run (forward + inverse)
    };
    const std::vector<Variant> variants = {
        {"c2c",
         [&] {
           f.forward_batch(cdata.data(), nfields);
           f.inverse_batch(cdata.data(), nfields);
         },
         2L * static_cast<long>(nfields)},
        {"r2c_packed",
         [&] {
           f.forward_batch(packed.data(), nlanes);
           f.inverse_batch(packed.data(), nlanes);
         },
         2L * static_cast<long>(nlanes)}};
    for (const Variant& v : variants) {
      v.run();  // warm-up
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        v.run();
        const auto t1 = std::chrono::steady_clock::now();
        best =
            std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
      if (isa == Isa::kScalar && std::string(v.name) == "c2c")
        scalar_c2c = best;
      std::printf("%8s %12s %8zu %12.5f %6ld %9.2fx\n", isa::name(isa), v.name,
                  nfields, best, v.ffts, scalar_c2c / best);
      kernel_rows.push_back({"fft_engine", isa::name(isa), v.name, nfields,
                             best, v.ffts, "", -1.0});
    }
    isa::clear_forced();
  }
}

// The batched engine at the grids the code runs: the 14^3 density grid
// (semilocal apply, density, Hartree) and the 7^3 exchange grid (pair and
// ISDF filter transforms), FP64 c2c per SIMD ISA, plus each grid's FP32
// transform error against FP64. The error row is bitwise the same on every
// ISA, so it is gated (lower is better) alongside the FFT counts.
void fft_production_grids() {
  const size_t nfields = 20;
  const int reps = 40;
  std::printf("\nBatched 3-D FFT engine at the production grids: FP64 c2c, "
              "%zu fields (forward + inverse, min of %d)\n",
              nfields, reps);
  std::printf("%8s %6s %12s %6s %10s\n", "isa", "box", "seconds", "FFTs",
              "us/FFT");
  using isa::Isa;
  for (const size_t n : {size_t{14}, size_t{7}}) {
    const std::string box = std::to_string(n) + "^3";
    fft::Fft3 f(n, n, n);
    fft::Fft3f f32(n, n, n);
    const size_t ng = f.size();
    Rng rng(23);
    std::vector<cplx> input(nfields * ng);
    for (auto& v : input) v = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    const long ffts = 2L * static_cast<long>(nfields);
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
      if (!isa::available(isa)) continue;
      isa::force(isa);
      std::vector<cplx> data = input;
      f.forward_batch(data.data(), nfields);  // warm-up
      f.inverse_batch(data.data(), nfields);
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        f.forward_batch(data.data(), nfields);
        f.inverse_batch(data.data(), nfields);
        const auto t1 = std::chrono::steady_clock::now();
        best =
            std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
      std::printf("%8s %6s %12.6f %6ld %10.2f\n", isa::name(isa), box.c_str(),
                  best, ffts, best / static_cast<double>(ffts) * 1e6);
      kernel_rows.push_back({"fft_engine", isa::name(isa), "c2c", nfields,
                             best, ffts, box, -1.0});
      isa::clear_forced();
    }
    // FP32 forward transform vs the FP64 one of the same (rounded) input.
    std::vector<cplx> ref = input;
    std::vector<cplxf> got(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      got[i] = static_cast<cplxf>(input[i]);
      ref[i] = static_cast<cplx>(got[i]);
    }
    f.forward_batch(ref.data(), nfields);
    f32.forward_batch(got.data(), nfields);
    double err2 = 0.0, ref2 = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
      err2 += std::norm(static_cast<cplx>(got[i]) - ref[i]);
      ref2 += std::norm(ref[i]);
    }
    const double rel_rms = std::sqrt(err2 / ref2);
    std::printf("%8s %6s FP32 forward vs FP64: relative rms error %.3e\n",
                "-", box.c_str(), rel_rms);
    kernel_rows.push_back({"fft_fp32_error", "-", "c2c", nfields, 0.0,
                           static_cast<long>(nfields), box, rel_rms});
  }
}

// Sphere <-> grid transforms at the perfbench system's grids (the ecut 2
// Si cell: 147 coefficients, 14^3 density and 7^3 wavefunction grids), 20
// columns on one thread: the single-column to_real of the density, and
// the batched to_real_batch / to_sphere_batch_inplace of the semilocal
// apply. Every transform runs only the FFT lines its sphere reaches; the
// line count per column is gated, the time is not.
void sphere_transforms() {
  grid::Lattice lat = grid::Lattice::cubic(1.0);
  pseudo::silicon_supercell(1, 1, 1, &lat);
  const grid::GSphere sphere(lat, 2.0);
  const size_t ncols = 20;
  const int reps = 40;
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  std::printf("\nSphere <-> grid transforms: %zu coefficients, %zu columns, "
              "one thread (min of %d)\n",
              sphere.npw(), ncols, reps);
  std::printf("%6s %24s %12s %10s %14s\n", "box", "variant", "seconds",
              "us/column", "lines/column");
  for (const int factor : {2, 1}) {
    const grid::FftGrid g(lat, sphere.suggest_dims(factor));
    const pw::SphereGridMap map(sphere, g);
    const auto& d = g.dims();
    const std::string box = std::to_string(d[0]) + "^3";
    const size_t full = d[1] * d[2] + d[0] * d[2] + d[0] * d[1];
    const la::MatC coeffs = random_mat(sphere.npw(), ncols, 31);
    la::MatC real, back;
    map.to_real_batch(coeffs, real);
    std::vector<cplx> column(g.size());
    struct Variant {
      const char* name;
      std::function<void()> run;  // transforms all ncols columns
    };
    la::MatC work;
    const std::vector<Variant> variants = {
        {"to_real",
         [&] {
           for (size_t b = 0; b < ncols; ++b)
             map.to_real(coeffs.col(b), column.data());
         }},
        {"to_real_batch", [&] { map.to_real_batch(coeffs, work); }},
        {"to_sphere_batch_inplace",
         [&] { map.to_sphere_batch_inplace(work, back); }}};
    for (const Variant& v : variants) {
      double best = 1e300;
      for (int r = 0; r <= reps; ++r) {  // r = 0 warms up
        work = real;
        const auto t0 = std::chrono::steady_clock::now();
        v.run();
        const auto t1 = std::chrono::steady_clock::now();
        if (r > 0)
          best =
              std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
      std::printf("%6s %24s %12.6f %10.2f %8zu of %zu\n", box.c_str(), v.name,
                  best, best / static_cast<double>(ncols) * 1e6,
                  map.lines_per_column(), full);
      kernel_rows.push_back({"sphere_grid", "-", v.name, ncols, best,
                             static_cast<long>(ncols), box, -1.0,
                             static_cast<long>(map.lines_per_column())});
    }
  }
  omp_set_num_threads(saved_threads);
}

// Γ-point gamma_real exchange: real orbitals through the packed pair-FFT
// path vs the complex pipeline on the same 8x8 problem — the FFT count
// halves (gated) and wall-clock follows.
void exchange_gamma_comparison() {
  auto& x = xbench();
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  Rng rng(19);
  la::MatC src(npw, nb);
  std::vector<cplx> field(x.wfc.size());
  for (size_t b = 0; b < nb; ++b) {
    for (auto& v : field) v = cplx(rng.uniform() - 0.5, 0.0);
    x.map.to_sphere(field.data(), src.col(b));
  }
  pw::orthonormalize_lowdin(src);
  const std::vector<real_t> d(nb, 0.5);

  std::printf("\nExchange apply: complex vs Γ-point gamma_real pipeline "
              "(real orbitals, 8 sources x 8 targets)\n");
  std::printf("%12s %12s %10s %10s\n", "mode", "seconds", "FFTs", "speedup");
  const int reps = 20;
  double base = 0.0;
  for (const bool gamma : {false, true}) {
    ham::ExchangeOptions opt;
    opt.gamma_real = gamma;
    ham::ExchangeOperator xop(x.map, opt);
    la::MatC out(npw, nb);
    xop.apply_diag(src, d, src, out);  // warm-up
    xop.fft_count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) xop.apply_diag(src, d, src, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count() / reps;
    if (!gamma) base = sec;
    const long ffts = xop.fft_count / reps;
    std::printf("%12s %12.5f %10ld %9.2fx\n",
                gamma ? "gamma_real" : "complex", sec, ffts, base / sec);
    kernel_rows.push_back({"exchange_gamma", "-",
                           gamma ? "gamma_real" : "complex", nb, sec, ffts, "",
                           -1.0});
  }
}

// The Rayleigh–Ritz eigensolver at the Davidson subspace sizes of the
// perfbench ground state (nb = 20 bands): n = 60, the 3*nb basis cap, and
// n = 120, a 6*nb basis; the nb wanted eigenvectors vs all of them.
// eig_herm is serial, so this is one thread. The relative residual
// max_j |A v_j - w_j v_j| / |A|_F is gated; the time is not.
struct EigRow {
  size_t n, nvec;
  double seconds, max_rel_residual;
};
std::vector<EigRow> eig_rows;

void eig_rayleigh_ritz() {
  const size_t nb = 20;
  const int reps = 20;
  std::printf(
      "\nRayleigh–Ritz eig_herm(A, nvec): n x n Hermitian, min of %d\n",
      reps);
  std::printf("%6s %6s %12s %14s\n", "n", "nvec", "seconds", "max rel resid");
  for (const size_t n : {3 * nb, 6 * nb}) {
    la::MatC a = random_mat(n, n, 29);
    la::hermitize(a);
    for (const size_t nvec : {nb, n}) {
      la::EigResult r = la::eig_herm(a, nvec);  // warm-up
      double best = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        r = la::eig_herm(a, nvec);
        const auto t1 = std::chrono::steady_clock::now();
        best =
            std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
      la::MatC av(n, nvec);
      la::gemm_nn(a, r.V, av);
      double resid = 0.0;
      for (size_t j = 0; j < nvec; ++j) {
        la::axpy(n, -r.w[j], r.V.col(j), av.col(j));
        resid = std::max(resid, la::nrm2(n, av.col(j)));
      }
      resid /= la::frob_norm(a);
      std::printf("%6zu %6zu %12.6f %14.3e\n", n, nvec, best, resid);
      eig_rows.push_back({n, nvec, best, resid});
    }
  }
}

// The la lanes (la/simd.hpp) per SIMD ISA at the solver's shapes, one
// thread: the ISDF fit's 160 x 160 Cholesky and 160 x 343 solve and its
// 343 x 20 by (160 x 20)^H samples, Davidson's and the band overlap's
// gemm_cn, the ISDF point selection's 169 x 640 -> 160 QR, the PT-IM fixed
// point's 20 x 20 solve and ring_wire's 147 x 5 by 5 x 5 rotation. Each
// output is compared by memcmp with the scalar table's: bitwise_vs_scalar
// (1 = equal) is gated, the time (min over repeats of `batch` calls, per
// call) is not.
struct LaRow {
  std::string isa, variant, size;
  double seconds;
  int bitwise_vs_scalar;
};
std::vector<LaRow> la_rows;

void la_lanes() {
  struct Case {
    const char* variant;
    std::string size;
    int batch;
    std::function<void()> reset;  // restores an in-place operand (untimed)
    std::function<void()> run;    // the timed call
    std::function<std::vector<double>()> output;
  };
  auto bytes = [](const la::MatC& m) {
    const double* p = la::as_doubles(m.data());
    return std::vector<double>(p, p + 2 * m.size());
  };
  auto spd = [](size_t n, unsigned seed) {
    la::MatC a = random_mat(n, n, seed);
    la::hermitize(a);
    for (size_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
    return a;
  };
  const la::MatC a160 = spd(160, 41), l160 = la::cholesky(a160);
  const la::MatC l20 = la::cholesky(spd(20, 42));
  const la::MatC b343 = random_mat(160, 343, 43), b20 = random_mat(20, 20, 44);
  const la::MatC phi = random_mat(343, 20, 45), p1 = random_mat(160, 20, 46);
  const la::MatC v60 = random_mat(147, 60, 47), t20 = random_mat(147, 20, 48);
  const la::MatC s37 = random_mat(37, 20, 49), u37 = random_mat(37, 20, 50);
  const la::MatC cand = random_mat(169, 640, 51);
  const la::MatC x147 = random_mat(147, 5, 52), r5 = random_mat(5, 5, 53);
  la::MatC l, b, c;
  la::PivotedQr qr;
  const std::vector<Case> cases = {
      {"cholesky", "n=160", 1, [] {}, [&] { l = la::cholesky(a160); },
       [&] { return bytes(l); }},
      {"cholesky_solve", "160x343", 1, [&] { b = b343; },
       [&] { la::cholesky_solve(l160, b); }, [&] { return bytes(b); }},
      {"gemm_nc", "343x20*(160x20)^H", 1, [&] { c.resize(343, 160); },
       [&] { la::gemm_nc(phi, p1, c); }, [&] { return bytes(c); }},
      {"gemm_cn", "(147x60)^H*147x20", 10, [&] { c.resize(60, 20); },
       [&] { la::gemm_cn(v60, t20, c); }, [&] { return bytes(c); }},
      {"gemm_cn", "(37x20)^H*37x20", 100, [&] { c.resize(20, 20); },
       [&] { la::gemm_cn(s37, u37, c); }, [&] { return bytes(c); }},
      {"qr_column_pivot", "169x640->160", 1, [] {},
       [&] { qr = la::qr_column_pivot(cand, 160); },
       [&] {
         std::vector<double> out(qr.rdiag);
         for (const size_t p : qr.pivots) out.push_back(static_cast<double>(p));
         return out;
       }},
      {"cholesky_solve", "20x20", 100, [&] { b = b20; },
       [&] { la::cholesky_solve(l20, b); }, [&] { return bytes(b); }},
      {"gemm_nn", "147x5*5x5", 100, [&] { c.resize(147, 5); },
       [&] { la::gemm_nn(x147, r5, c); }, [&] { return bytes(c); }}};

  const int reps = 20;
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  std::printf("\nla lanes per SIMD ISA at the solver's shapes, one thread "
              "(min of %d; per call)\n",
              reps);
  std::printf("%8s %16s %20s %12s %8s\n", "isa", "kernel", "size", "seconds",
              "bitwise");
  using isa::Isa;
  for (const Case& k : cases) {
    std::vector<double> scalar;
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
      if (!isa::available(isa)) continue;
      isa::force(isa);
      double best = 1e300;
      for (int r = 0; r <= reps; ++r) {  // r = 0 warms up
        double t = 0.0;
        for (int i = 0; i < k.batch; ++i) {
          k.reset();
          const auto t0 = std::chrono::steady_clock::now();
          k.run();
          const auto t1 = std::chrono::steady_clock::now();
          t += std::chrono::duration<double>(t1 - t0).count();
        }
        if (r > 0) best = std::min(best, t / k.batch);
      }
      const std::vector<double> out = k.output();
      if (isa == Isa::kScalar) scalar = out;
      const int same =
          out.size() == scalar.size() &&
          std::memcmp(out.data(), scalar.data(),
                      out.size() * sizeof(double)) == 0;
      std::printf("%8s %16s %20s %12.3e %8d\n", isa::name(isa), k.variant,
                  k.size.c_str(), best, same);
      la_rows.push_back({isa::name(isa), k.variant, k.size, best, same});
      isa::clear_forced();
    }
  }
  omp_set_num_threads(saved_threads);
}

void write_kernels_json() {
  const char* path = "BENCH_kernels.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"kernels\": [\n");
    const size_t nrows = kernel_rows.size() + eig_rows.size() + la_rows.size();
    for (size_t i = 0; i < kernel_rows.size(); ++i) {
      const KernelRow& r = kernel_rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"isa\": \"%s\", \"variant\": "
                   "\"%s\", ",
                   r.name.c_str(), r.isa.c_str(), r.variant.c_str());
      if (!r.box.empty()) std::fprintf(f, "\"box\": \"%s\", ", r.box.c_str());
      std::fprintf(f, "\"fields\": %zu, \"seconds\": %.6e, \"ffts\": %ld",
                   r.fields, r.seconds, r.ffts);
      if (r.rel_rms >= 0.0)
        std::fprintf(f, ", \"rel_rms_error\": %.6e", r.rel_rms);
      if (r.lines >= 0)
        std::fprintf(f, ", \"lines_per_column\": %ld", r.lines);
      std::fprintf(f, "}%s\n", i + 1 < nrows ? "," : "");
    }
    for (size_t i = 0; i < eig_rows.size(); ++i) {
      const EigRow& r = eig_rows[i];
      const std::string variant =
          r.nvec == r.n ? std::string("all") : "nvec=" + std::to_string(r.nvec);
      std::fprintf(f,
                   "    {\"name\": \"eig_herm\", \"isa\": \"-\", "
                   "\"variant\": \"%s\", \"size\": \"n=%zu\", "
                   "\"seconds\": %.6e, \"max_rel_residual\": %.6e}%s\n",
                   variant.c_str(), r.n, r.seconds, r.max_rel_residual,
                   kernel_rows.size() + i + 1 < nrows ? "," : "");
    }
    for (size_t i = 0; i < la_rows.size(); ++i) {
      const LaRow& r = la_rows[i];
      std::fprintf(f,
                   "    {\"name\": \"la_kernel\", \"isa\": \"%s\", "
                   "\"variant\": \"%s\", \"size\": \"%s\", "
                   "\"seconds\": %.6e, \"bitwise_vs_scalar\": %d}%s\n",
                   r.isa.c_str(), r.variant.c_str(), r.size.c_str(), r.seconds,
                   r.bitwise_vs_scalar,
                   kernel_rows.size() + eig_rows.size() + i + 1 < nrows ? ","
                                                                        : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(engine/sphere/gamma/eig/la rows written to %s)\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PTIM_HAVE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  (void)argc;
  (void)argv;
#endif
  exchange_batch_comparison();
  exchange_precision_comparison();
  exchange_isdf_comparison();
  fft_engine_comparison();
  fft_production_grids();
  sphere_transforms();
  exchange_gamma_comparison();
  eig_rayleigh_ritz();
  la_lanes();
  write_kernels_json();
  return 0;
}
