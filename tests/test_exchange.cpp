// The Fock exchange operator and ACE: the paper's central numerical claims.
//  * the sigma-diagonalization path is exactly equivalent to the naive
//    Alg. 2 triple loop (Sec. IV-A1),
//  * the operator is Hermitian and negative semidefinite,
//  * FFT counts drop from O(N^3) to O(N^2) under diagonalization,
//  * ACE reproduces Vx on the constructing orbitals (Lin 2016).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ham/ace.hpp"
#include "ham/exchange.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {
struct Env {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOperator xop{map, {}};
};
}  // namespace

TEST(ExchangeKernel, ScreenedLimits) {
  Env e;
  const auto& k = e.xop.kernel();
  const real_t mu = e.xop.options().mu;
  // G=0 is the finite HSE value pi/mu^2.
  // Find the G=0 grid point (linear index 0 is (0,0,0)).
  EXPECT_NEAR(k[0], kPi / (mu * mu), 1e-10);
  for (const real_t v : k) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, kPi / (mu * mu) * (1.0 + 1e-12));
  }
}

TEST(ExchangeKernel, BareCoulombMode) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions opt;
  opt.screened = false;
  ham::ExchangeOperator xop(map, opt);
  // Away from G=0 the kernel is 4 pi/G^2.
  const auto& g2 = sys.wfc_grid->g2();
  for (size_t i = 1; i < g2.size(); i += 37) {
    if (g2[i] > 1e-8) {
      EXPECT_NEAR(xop.kernel()[i], kFourPi / g2[i], 1e-10);
    }
  }
}

TEST(Exchange, MixedNaiveEqualsMixedDiag) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 71);
  const la::MatC sigma = test::random_occupation_matrix(nb, 72);
  const la::MatC tgt = test::random_orbitals(npw, 3, 73);

  la::MatC out_naive(npw, 3), out_diag(npw, 3);
  e.xop.apply_mixed_naive(phi, sigma, tgt, out_naive);
  e.xop.apply_mixed_diag(phi, sigma, tgt, out_diag);
  EXPECT_LT(la::frob_diff(out_naive, out_diag),
            1e-11 * std::max(la::frob_norm(out_naive), 1.0));
}

TEST(Exchange, DiagonalSigmaReducesToPureStates) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 74);
  const std::vector<real_t> d{1.0, 0.8, 0.3, 0.05};
  la::MatC sigma(nb, nb);
  for (size_t i = 0; i < nb; ++i) sigma(i, i) = d[i];

  la::MatC out_a(npw, nb), out_b(npw, nb);
  e.xop.apply_diag(phi, d, phi, out_a);
  e.xop.apply_mixed_naive(phi, sigma, phi, out_b);
  EXPECT_LT(la::frob_diff(out_a, out_b), 1e-11);
}

TEST(Exchange, OperatorIsHermitian) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 3, 75);
  const std::vector<real_t> d{1.0, 0.6, 0.2};
  const la::MatC probes = test::random_orbitals(npw, 4, 76);
  la::MatC vp(npw, 4);
  e.xop.apply_diag(src, d, probes, vp);
  const la::MatC m = pw::overlap(probes, vp);
  EXPECT_LT(la::hermiticity_defect(m), 1e-11);
}

TEST(Exchange, NegativeSemidefinite) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 3, 77);
  const std::vector<real_t> d{1.0, 0.5, 0.25};
  const la::MatC probes = test::random_orbitals(npw, 5, 78);
  la::MatC vp(npw, 5);
  e.xop.apply_diag(src, d, probes, vp);
  for (size_t j = 0; j < 5; ++j) {
    const cplx q = la::dotc(npw, probes.col(j), vp.col(j));
    EXPECT_LE(std::real(q), 1e-12);
    EXPECT_NEAR(std::imag(q), 0.0, 1e-12);
  }
}

TEST(Exchange, AccumulateFlag) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 2, 79);
  const std::vector<real_t> d{1.0, 1.0};
  const la::MatC tgt = test::random_orbitals(npw, 2, 80);
  la::MatC base = test::random_matrix(npw, 2, 81);
  la::MatC acc = base;
  e.xop.apply_diag(src, d, tgt, acc, /*accumulate=*/true);
  la::MatC fresh(npw, 2);
  e.xop.apply_diag(src, d, tgt, fresh, false);
  for (size_t i = 0; i < acc.size(); ++i)
    EXPECT_NEAR(std::abs(acc.data()[i] - (base.data()[i] + fresh.data()[i])),
                0.0, 1e-12);
}

TEST(Exchange, FftCountComplexity) {
  // Diag path: 2*N_src*N_tgt transforms; naive mixed path: 2*N^2*N_tgt
  // (the paper's N^3 with N_tgt = N). This is the measured complexity claim.
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 82);
  const la::MatC sigma = test::random_occupation_matrix(nb, 83);

  la::MatC out(npw, nb);
  e.xop.fft_count = 0;
  e.xop.apply_diag(phi, std::vector<real_t>(nb, 0.5), phi, out);
  EXPECT_EQ(e.xop.fft_count, static_cast<long>(2 * nb * nb));

  e.xop.fft_count = 0;
  e.xop.apply_mixed_naive(phi, sigma, phi, out);
  EXPECT_EQ(e.xop.fft_count, static_cast<long>(2 * nb * nb * nb));
}

TEST(Exchange, EnergyNegativeAndConsistent) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 3;
  const la::MatC phi = test::random_orbitals(npw, nb, 84);
  const std::vector<real_t> d{1.0, 0.7, 0.4};
  const real_t ex = e.xop.energy_diag(phi, d);
  EXPECT_LT(ex, 0.0);

  // energy_mixed with the equivalent diagonal sigma agrees.
  la::MatC sigma(nb, nb);
  for (size_t i = 0; i < nb; ++i) sigma(i, i) = d[i];
  EXPECT_NEAR(e.xop.energy_mixed(phi, sigma), ex, 1e-10 * std::abs(ex));
}

TEST(Exchange, ZeroOccupationsShortCircuit) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 3, 85);
  la::MatC out(npw, 3);
  e.xop.fft_count = 0;
  e.xop.apply_diag(phi, {0.0, 0.0, 0.0}, phi, out);
  EXPECT_EQ(e.xop.fft_count, 0);
  EXPECT_LT(la::frob_norm(out), 1e-14);
}

// ----------------------------------------------------- batched exchange ---

TEST(ExchangeBatch, BatchedDiagMatchesPerPair) {
  // Blocks of >= 8 sources through the batched FFT reproduce width-1
  // blocks (one pair FFT at a time) bit for bit: batching regroups the
  // same per-lane transforms and the same in-order FP64 accumulation.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions single_opt, batched_opt;
  single_opt.batch_size = 1;
  batched_opt.batch_size = 8;
  ham::ExchangeOperator xop_single(map, single_opt);
  ham::ExchangeOperator xop_batched(map, batched_opt);

  const size_t npw = sys.sphere->npw();
  const size_t nb = 10;  // forces a full block of 8 plus a partial block
  const la::MatC phi = test::random_orbitals(npw, nb, 611);
  std::vector<real_t> d(nb);
  for (size_t i = 0; i < nb; ++i) d[i] = 1.0 - 0.08 * static_cast<real_t>(i);
  const la::MatC tgt = test::random_orbitals(npw, 5, 612);

  la::MatC out_single(npw, 5), out_batched(npw, 5);
  xop_single.apply_diag(phi, d, tgt, out_single);
  xop_batched.apply_diag(phi, d, tgt, out_batched);

  EXPECT_EQ(la::frob_diff(out_single, out_batched), 0.0);
  // Identical transform counts: batching changes grouping, not complexity.
  EXPECT_EQ(xop_single.fft_count, xop_batched.fft_count);
}

TEST(ExchangeBatch, BatchedNaiveMatchesPerPair) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions single_opt, batched_opt;
  single_opt.batch_size = 1;
  batched_opt.batch_size = 8;
  ham::ExchangeOperator xop_single(map, single_opt);
  ham::ExchangeOperator xop_batched(map, batched_opt);

  const size_t npw = sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC phi = test::random_orbitals(npw, nb, 621);
  const la::MatC sigma = test::random_occupation_matrix(nb, 622);
  const la::MatC tgt = test::random_orbitals(npw, 3, 623);

  la::MatC out_single(npw, 3), out_batched(npw, 3);
  xop_single.apply_mixed_naive(phi, sigma, tgt, out_single);
  xop_batched.apply_mixed_naive(phi, sigma, tgt, out_batched);

  EXPECT_EQ(la::frob_diff(out_single, out_batched), 0.0);
  EXPECT_EQ(xop_single.fft_count, xop_batched.fft_count);
}

TEST(ExchangeBatch, OddBatchSizesAgree) {
  // Partial trailing blocks for every block width, in every precision
  // mode: bitwise equal to width 1 with the same transform count.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 7;
  const la::MatC phi = test::random_orbitals(npw, nb, 631);
  std::vector<real_t> d(nb, 0.5);
  d[2] = 0.0;  // exercise occupation compression inside a block
  const la::MatC tgt = test::random_orbitals(npw, 2, 632);

  for (const Precision prec :
       {Precision::kDouble, Precision::kSingle,
        Precision::kSingleCompensated}) {
    ham::ExchangeOptions ref_opt;
    ref_opt.batch_size = 1;
    ref_opt.precision = prec;
    ham::ExchangeOperator ref_op(map, ref_opt);
    la::MatC ref(npw, 2);
    ref_op.apply_diag(phi, d, tgt, ref);

    for (const size_t bs : {size_t(2), size_t(3), size_t(8), size_t(16)}) {
      ham::ExchangeOptions opt = ref_opt;
      opt.batch_size = bs;
      ham::ExchangeOperator xop(map, opt);
      la::MatC out(npw, 2);
      xop.apply_diag(phi, d, tgt, out);
      EXPECT_EQ(la::frob_diff(out, ref), 0.0)
          << "batch_size=" << bs << " prec=" << precision_name(prec);
      EXPECT_EQ(xop.fft_count, static_cast<long>(2 * (nb - 1) * 2))
          << "batch_size=" << bs << " prec=" << precision_name(prec);
    }
  }
}

// ------------------------------------------------------ packed applies ---

TEST(ExchangePacked, JobsMatchStandaloneBitwise) {
  // apply_diag_packed shares one batched pair FFT per round across jobs;
  // per job the result must equal a standalone apply_diag bit for bit and
  // the pack must spend exactly the standalone transforms. The pack mixes
  // source and target counts, an all-zero-occupation job and a job with no
  // targets; under gamma_real two real-orbital jobs (one with an odd
  // source count) join it and must share the rounds of the pack of real
  // jobs, each bitwise as its standalone apply.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();

  struct Problem {
    size_t nsrc, ntgt;
    std::vector<real_t> d;
    la::MatC src, tgt;
  };
  // The fourth job has all-zero occupations, the fifth no targets.
  std::vector<Problem> probs = {
      {5, 3, {1.0, 0.8, 0.0, 0.4, 0.1}, {}, {}},
      {11, 2, std::vector<real_t>(11, 0.3), {}, {}},
      {2, 4, {0.9, 0.05}, {}, {}},
      {3, 2, {0.0, 0.0, 0.0}, {}, {}},
      {4, 0, {1.0, 0.7, 0.5, 0.2}, {}, {}},
  };
  unsigned seed = 651;
  for (Problem& p : probs) {
    p.src = test::random_orbitals(npw, p.nsrc, seed++);
    p.tgt = test::random_orbitals(npw, p.ntgt, seed++);
  }

  for (const bool gamma : {false, true}) {
    if (gamma) {
      Problem p{5, 3, {1.0, 0.6, 0.3, 0.2, 0.1}, {}, {}};
      p.src = test::random_real_orbitals(map, p.nsrc, 660);
      p.tgt = test::random_real_orbitals(map, p.ntgt, 661);
      probs.push_back(std::move(p));
      Problem q{9, 2, {1.0, 0.9, 0.0, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2}, {}, {}};
      q.src = test::random_real_orbitals(map, q.nsrc, 662);
      q.tgt = test::random_real_orbitals(map, q.ntgt, 663);
      probs.push_back(std::move(q));
    }
    for (const Precision prec :
         {Precision::kDouble, Precision::kSingle,
          Precision::kSingleCompensated}) {
      ham::ExchangeOptions opt;
      opt.precision = prec;
      opt.batch_size = 3;
      opt.gamma_real = gamma;
      ham::ExchangeOperator xop(map, opt);

      long standalone_ffts = 0;
      std::vector<la::MatC> ref;
      for (const Problem& p : probs) {
        ref.emplace_back(npw, p.tgt.cols());
        xop.fft_count = 0;
        xop.apply_diag(p.src, p.d, p.tgt, ref.back());
        standalone_ffts += xop.fft_count;
      }

      std::vector<la::MatC> out;
      for (const Problem& p : probs) out.emplace_back(npw, p.tgt.cols());
      std::vector<ham::ExchangeOperator::DiagApplyJob> jobs;
      for (size_t k = 0; k < probs.size(); ++k)
        jobs.push_back({&probs[k].src, &probs[k].d, &probs[k].tgt, &out[k]});
      xop.fft_count = 0;
      xop.apply_diag_packed(jobs);

      EXPECT_EQ(xop.fft_count, standalone_ffts)
          << "gamma=" << gamma << " prec=" << precision_name(prec);
      for (size_t k = 0; k < probs.size(); ++k)
        EXPECT_EQ(la::frob_diff(out[k], ref[k]), 0.0)
            << "job " << k << " gamma=" << gamma
            << " prec=" << precision_name(prec);
    }
  }
}

// --------------------------------------------------- stage primitives ----

namespace {

// ExchangeOperator::apply_diag rebuilt from its public stage primitives on
// the host (full-grid nloc default). The stages ARE the apply's building
// blocks, so the composition must agree with the fused apply bit for bit.
template <typename CS>
la::MatC staged_apply_diag(const ham::ExchangeOperator& xop,
                           const pw::SphereGridMap& map, const la::MatC& src,
                           const std::vector<real_t>& d, const la::MatC& tgt) {
  const size_t ng = map.grid().size();
  const size_t npw = map.sphere().npw();
  const size_t bs = xop.options().batch_size;

  la::Matrix<CS> src_real;
  map.to_real_batch(src, src_real);
  std::vector<size_t> active;
  for (size_t i = 0; i < src.cols(); ++i)
    if (d[i] != 0.0) active.push_back(i);

  la::MatC out(npw, tgt.cols(), cplx(0.0));
  std::vector<CS> tgt_real(ng), block(bs * ng);
  std::vector<cplx> acc(ng), gathered(npw);
  for (size_t j = 0; j < tgt.cols(); ++j) {
    map.to_real(tgt.col(j), tgt_real.data());
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    for (size_t i0 = 0; i0 < active.size(); i0 += bs) {
      const size_t nb = std::min(bs, active.size() - i0);
      xop.pair_form_block(src_real.data(), active.data() + i0, nb,
                          tgt_real.data(), block.data());
      xop.kernel_filter_block(block.data(), nb);
      xop.accumulate_block(src_real.data(), active.data() + i0, d.data(), nb,
                           block.data(), acc.data(), /*comp=*/nullptr);
    }
    xop.gather_accumulate(acc.data(), gathered.data(), out.col(j));
  }
  return out;
}

}  // namespace

TEST(StageKernels, ComposeToFusedApplyFp64) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 5, 910);
  const la::MatC tgt = test::random_orbitals(npw, 3, 911);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.0, 0.1};

  la::MatC ref(npw, tgt.cols());
  e.xop.apply_diag(src, d, tgt, ref);
  const la::MatC out = staged_apply_diag<cplx>(e.xop, e.map, src, d, tgt);
  EXPECT_EQ(la::frob_diff(out, ref), 0.0);
}

TEST(StageKernels, ComposeToFusedApplyFp32) {
  Env e;
  ham::ExchangeOptions opt;
  opt.precision = Precision::kSingle;
  ham::ExchangeOperator xop(e.map, opt);
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 4, 920);
  const la::MatC tgt = test::random_orbitals(npw, 3, 921);
  const std::vector<real_t> d{1.0, 0.7, 0.3, 0.05};

  la::MatC ref(npw, tgt.cols());
  xop.apply_diag(src, d, tgt, ref);
  const la::MatC out = staged_apply_diag<cplxf>(xop, e.map, src, d, tgt);
  EXPECT_EQ(la::frob_diff(out, ref), 0.0);
}

// --------------------------------------------------- Γ-point fast path ----

TEST(ExchangeGamma, MatchesComplexWithHalvedFftCount) {
  // Real orbitals: the packed real-pair pipeline agrees with the complex
  // one to rounding and performs HALF the pair transforms per target —
  // 2*ceil(nb/2) instead of 2*nb (odd nb exercises the zero-padded lane).
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 5;  // odd
  const la::MatC phi = test::random_real_orbitals(map, nb, 801);
  const la::MatC tgt = test::random_real_orbitals(map, 3, 802);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.3, 0.1};

  ham::ExchangeOperator xc(map, {});
  la::MatC out_c(npw, 3);
  xc.fft_count = 0;
  xc.apply_diag(phi, d, tgt, out_c);
  EXPECT_EQ(xc.fft_count, static_cast<long>(2 * nb * 3));

  ham::ExchangeOptions go;
  go.gamma_real = true;
  ham::ExchangeOperator xg(map, go);
  la::MatC out_g(npw, 3);
  xg.fft_count = 0;
  xg.apply_diag(phi, d, tgt, out_g);
  EXPECT_EQ(xg.fft_count, static_cast<long>(2 * ((nb + 1) / 2) * 3));

  EXPECT_LT(la::frob_diff(out_c, out_g), 1e-12 * la::frob_norm(out_c));
}

TEST(ExchangeGamma, BitwiseInvariantAcrossBatchSizes) {
  // Block boundaries sit at even density offsets, so lane pairing and the
  // in-order FP64 accumulation never depend on the block width.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 7;
  const la::MatC phi = test::random_real_orbitals(map, nb, 803);
  const la::MatC tgt = test::random_real_orbitals(map, 2, 804);
  std::vector<real_t> d(nb, 0.5);
  d[2] = 0.0;  // occupation compression inside a block

  la::MatC ref;
  for (const size_t bs : {size_t(1), size_t(2), size_t(3), size_t(8),
                          size_t(16)}) {
    ham::ExchangeOptions opt;
    opt.gamma_real = true;
    opt.batch_size = bs;
    ham::ExchangeOperator xop(map, opt);
    la::MatC out(npw, 2);
    xop.fft_count = 0;
    xop.apply_diag(phi, d, tgt, out);
    // 6 active densities -> 3 packed lanes per target at every width.
    EXPECT_EQ(xop.fft_count, static_cast<long>(2 * 3 * 2))
        << "batch_size=" << bs;
    if (ref.size() == 0) {
      ref = out;
    } else {
      EXPECT_EQ(la::frob_diff(out, ref), 0.0) << "batch_size=" << bs;
    }
  }
}

TEST(ExchangeGamma, ComplexOrbitalsFallBackBitwise) {
  // The gate transforms/inspects but must not change a single bit when the
  // fields are genuinely complex.
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 805);
  const la::MatC tgt = test::random_orbitals(npw, 2, 806);
  const std::vector<real_t> d{1.0, 0.7, 0.4, 0.1};

  la::MatC out_off(npw, 2), out_on(npw, 2);
  e.xop.apply_diag(phi, d, tgt, out_off);
  ham::ExchangeOptions go;
  go.gamma_real = true;
  ham::ExchangeOperator xg(e.map, go);
  xg.apply_diag(phi, d, tgt, out_on);
  EXPECT_EQ(la::frob_diff(out_off, out_on), 0.0);

  // Real sources but complex targets must also fall back bitwise.
  const la::MatC rphi = test::random_real_orbitals(e.map, nb, 807);
  la::MatC a(npw, 2), b(npw, 2);
  e.xop.apply_diag(rphi, d, tgt, a);
  xg.apply_diag(rphi, d, tgt, b);
  EXPECT_EQ(la::frob_diff(a, b), 0.0);
}

TEST(ExchangeGamma, ComposesWithFp32Precision) {
  // The FP32 pipeline takes the same packed real path: halved transform
  // count, FP32-level agreement with the FP64 gamma apply, and the
  // compensated policy stays within the plain-single envelope.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_real_orbitals(map, nb, 808);
  const la::MatC tgt = test::random_real_orbitals(map, 2, 809);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};

  ham::ExchangeOptions go;
  go.gamma_real = true;
  ham::ExchangeOperator xg(map, go);
  la::MatC ref(npw, 2);
  xg.apply_diag(phi, d, tgt, ref);

  for (const auto prec :
       {Precision::kSingle, Precision::kSingleCompensated}) {
    ham::ExchangeOptions opt = go;
    opt.precision = prec;
    ham::ExchangeOperator xf(map, opt);
    la::MatC out(npw, 2);
    xf.fft_count = 0;
    xf.apply_diag(phi, d, tgt, out);
    EXPECT_EQ(xf.fft_count, static_cast<long>(2 * ((nb + 1) / 2) * 2));
    EXPECT_LT(la::frob_diff(out, ref), 1e-5 * la::frob_norm(ref));
  }
}

TEST(ExchangeGamma, IsdfCompressionUnaffectedByFlag) {
  // ISDF short-circuits before the gamma gate: enabling the flag must not
  // change a compressed apply by a single bit.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_real_orbitals(map, nb, 810);
  const la::MatC tgt = test::random_real_orbitals(map, 2, 811);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};

  ham::ExchangeOptions base;
  base.compression = ham::ExchangeCompression::kIsdf;
  ham::ExchangeOperator xi(map, base);
  la::MatC out_i(npw, 2);
  xi.apply_diag(phi, d, tgt, out_i);

  ham::ExchangeOptions gopt = base;
  gopt.gamma_real = true;
  ham::ExchangeOperator xgi(map, gopt);
  la::MatC out_gi(npw, 2);
  xgi.apply_diag(phi, d, tgt, out_gi);
  EXPECT_EQ(la::frob_diff(out_i, out_gi), 0.0);
}

TEST(ExchangeGamma, MixedDiagInheritsGate) {
  // apply_mixed_diag rotates sources with complex eigenvector weights, so
  // even real orbitals generally leave the rotation complex — the gate
  // must keep the result identical to gamma off. (A real sigma with real
  // orbitals CAN stay real; either way the numbers must match.)
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_real_orbitals(e.map, nb, 812);
  const la::MatC sigma = test::random_occupation_matrix(nb, 813);
  const la::MatC tgt = test::random_real_orbitals(e.map, 2, 814);

  la::MatC out_off(npw, 2), out_on(npw, 2);
  e.xop.apply_mixed_diag(phi, sigma, tgt, out_off);
  ham::ExchangeOptions go;
  go.gamma_real = true;
  ham::ExchangeOperator xg(e.map, go);
  xg.apply_mixed_diag(phi, sigma, tgt, out_on);
  EXPECT_LT(la::frob_diff(out_off, out_on),
            1e-11 * std::max(la::frob_norm(out_off), 1.0));
}

// ---------------------------------------------------------------- ACE ----

TEST(Ace, ExactOnConstructingOrbitals) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 91);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};
  la::MatC w(npw, nb);
  e.xop.apply_diag(phi, d, phi, w);

  const auto ace = ham::AceOperator::build(phi, w);
  EXPECT_EQ(ace.rank(), nb);
  la::MatC out(npw, nb);
  ace.apply(phi, out);
  EXPECT_LT(la::frob_diff(out, w), 1e-8 * std::max(la::frob_norm(w), 1.0));
}

TEST(Ace, HermitianNegativeSemidefinite) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 3, 92);
  const std::vector<real_t> d{1.0, 0.6, 0.3};
  la::MatC w(npw, 3);
  e.xop.apply_diag(phi, d, phi, w);
  const auto ace = ham::AceOperator::build(phi, w);

  const la::MatC probes = test::random_orbitals(npw, 5, 93);
  la::MatC vp(npw, 5);
  ace.apply(probes, vp);
  const la::MatC m = pw::overlap(probes, vp);
  EXPECT_LT(la::hermiticity_defect(m), 1e-11);
  for (size_t j = 0; j < 5; ++j) EXPECT_LE(std::real(m(j, j)), 1e-12);
}

TEST(Ace, EnergyMatchesExactOnSource) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 3;
  const la::MatC phi = test::random_orbitals(npw, nb, 94);
  const std::vector<real_t> d{0.9, 0.5, 0.1};
  la::MatC w(npw, nb);
  e.xop.apply_diag(phi, d, phi, w);
  const auto ace = ham::AceOperator::build(phi, w);

  const real_t e_exact = e.xop.energy_diag(phi, d);
  const real_t e_ace = ace.energy(phi, d);
  EXPECT_NEAR(e_ace, e_exact, 1e-8 * std::abs(e_exact));
}

TEST(Ace, GoodApproximationNearSourceSpace) {
  // A slightly perturbed orbital should still see nearly the exact Vx —
  // the property the PT-IM-ACE inner loop relies on.
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 95);
  const std::vector<real_t> d{1.0, 0.8, 0.4, 0.2};
  la::MatC w(npw, nb);
  e.xop.apply_diag(phi, d, phi, w);
  const auto ace = ham::AceOperator::build(phi, w);

  la::MatC tgt = phi;
  const la::MatC noise = test::random_matrix(npw, nb, 96);
  for (size_t i = 0; i < tgt.size(); ++i)
    tgt.data()[i] += 0.01 * noise.data()[i];

  la::MatC exact(npw, nb), approx(npw, nb);
  e.xop.apply_diag(phi, d, tgt, exact);
  ace.apply(tgt, approx);
  EXPECT_LT(la::frob_diff(exact, approx), 0.05 * la::frob_norm(exact));
}
