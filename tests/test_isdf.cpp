// ISDF low-rank exchange (ham/isdf + la/qr + dist/isdf_dist):
//  * the pivoted-QR primitive — pivot quality on a matrix with known
//    dominant columns, non-increasing |R| diagonal, bitwise determinism;
//  * ExchangeOptions validation (batch_size, isdf_rank_factor);
//  * ISDF-vs-dense apply accuracy at the default rank factor, with the
//    fit residual decreasing as the rank factor grows;
//  * FP32 / FP32+Kahan policy parity on the compressed path;
//  * bitwise-deterministic point selection (repeat fits, and across the
//    ranks of a band-parallel fit);
//  * band-parallel ISDF vs the serial operator, packed-vs-single routing,
//    and the pg > 1 rejection;
//  * a 10-step golden-trajectory replay under kIsdf within 1e-7;
//  * the per-step held point set: the staged protocol driven from outside
//    equals step() bitwise with two selections per step, an abandoned
//    session releases its set, and the band-parallel trajectory tracks the
//    serial one with rank-identical held sets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/timer.hpp"
#include "dist/band_ham.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/isdf_dist.hpp"
#include "dist/transpose.hpp"
#include "ham/density.hpp"
#include "ham/exchange.hpp"
#include "ham/isdf.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

ham::ExchangeOperator make_xop(const pw::SphereGridMap& map,
                               ham::ExchangeCompression comp,
                               real_t rank_factor = 8.0,
                               Precision p = Precision::kDouble) {
  ham::ExchangeOptions opt;
  opt.precision = p;
  opt.compression = comp;
  opt.isdf_rank_factor = rank_factor;
  return ham::ExchangeOperator(map, opt);
}

// Relative Frobenius distance of the compressed apply to the dense one on
// a shared problem (nb sources, a few zero occupations, 4 targets).
struct ApplyProblem {
  la::MatC phi, tgt;
  std::vector<real_t> d;

  static ApplyProblem make(size_t npw, size_t nb, unsigned seed) {
    ApplyProblem p;
    p.phi = test::random_orbitals(npw, nb, seed);
    p.tgt = test::random_orbitals(npw, 4, seed + 1);
    p.d.resize(nb);
    for (size_t i = 0; i < nb; ++i)
      p.d[i] = i + 2 < nb ? 1.0 - 0.1 * static_cast<real_t>(i) : 0.0;
    return p;
  }
};

real_t isdf_rel_error(const pw::SphereGridMap& map, const ApplyProblem& p,
                      real_t rank_factor,
                      Precision prec = Precision::kDouble) {
  const size_t npw = p.phi.rows();
  const auto dense = make_xop(map, ham::ExchangeCompression::kDense);
  la::MatC ref(npw, p.tgt.cols());
  dense.apply_diag(p.phi, p.d, p.tgt, ref);

  const auto xisdf =
      make_xop(map, ham::ExchangeCompression::kIsdf, rank_factor, prec);
  la::MatC out(npw, p.tgt.cols());
  xisdf.apply_diag(p.phi, p.d, p.tgt, out);
  return la::frob_diff(out, ref) / std::max(la::frob_norm(ref), real_t(1e-30));
}

}  // namespace

// ------------------------------------------------------ pivoted QR ------

TEST(PivotedQr, PicksDominantColumnsFirst) {
  // Columns with well-separated scales: the pivot order must visit them by
  // magnitude, and the |R| diagonal must be non-increasing.
  const size_t m = 24, n = 8;
  la::MatC a = test::random_matrix(m, n, 311);
  const real_t scales[n] = {1e-6, 1.0, 1e-4, 1e3, 1e-2, 10.0, 1e-5, 1e2};
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < m; ++i) a(i, j) *= scales[j];

  const la::PivotedQr qr = la::qr_column_pivot(a, n);
  ASSERT_EQ(qr.pivots.size(), n);
  ASSERT_EQ(qr.rdiag.size(), n);
  // The four large columns (3, 7, 5, 1) must be picked before any of the
  // small ones.
  EXPECT_EQ(qr.pivots[0], 3u);
  EXPECT_EQ(qr.pivots[1], 7u);
  EXPECT_EQ(qr.pivots[2], 5u);
  EXPECT_EQ(qr.pivots[3], 1u);
  for (size_t k = 1; k < n; ++k)
    EXPECT_LE(qr.rdiag[k], qr.rdiag[k - 1] + 1e-12);
  // Pivots form a permutation.
  std::vector<bool> seen(n, false);
  for (size_t k = 0; k < n; ++k) {
    ASSERT_LT(qr.pivots[k], n);
    EXPECT_FALSE(seen[qr.pivots[k]]);
    seen[qr.pivots[k]] = true;
  }
}

TEST(PivotedQr, TruncatedRankAndDeterminism) {
  const size_t m = 40, n = 17, r = 5;
  const la::MatC a = test::random_matrix(m, n, 313);
  const la::PivotedQr q1 = la::qr_column_pivot(a, r);
  const la::PivotedQr q2 = la::qr_column_pivot(a, r);
  ASSERT_EQ(q1.pivots.size(), r);
  EXPECT_EQ(q1.pivots, q2.pivots);
  ASSERT_EQ(q1.rdiag.size(), r);
  for (size_t k = 0; k < r; ++k) {
    // Bitwise: the factorization is deterministic, not just stable.
    EXPECT_EQ(q1.rdiag[k], q2.rdiag[k]);
  }
}

// ------------------------------------------------------ validation ------

TEST(IsdfValidation, RejectsBadOptionsAtConstruction) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};

  ham::ExchangeOptions bad_batch;
  bad_batch.batch_size = 0;
  EXPECT_THROW(ham::ExchangeOperator(map, bad_batch), Error);

  ham::ExchangeOptions bad_rank;
  bad_rank.isdf_rank_factor = 0.0;
  EXPECT_THROW(ham::ExchangeOperator(map, bad_rank), Error);
  bad_rank.isdf_rank_factor = -2.5;
  EXPECT_THROW(ham::ExchangeOperator(map, bad_rank), Error);

  auto xop = make_xop(map, ham::ExchangeCompression::kDense);
  EXPECT_THROW(xop.set_isdf_rank_factor(-1.0), Error);
  EXPECT_THROW(xop.set_isdf_rank_factor(0.0), Error);
  xop.set_isdf_rank_factor(4.0);  // valid values still go through
  EXPECT_EQ(xop.isdf_rank_factor(), 4.0);
}

// -------------------------------------------------------- accuracy ------

TEST(Isdf, MatchesDenseAtDefaultRank) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const auto p = ApplyProblem::make(sys.sphere->npw(), 8, 411);
  EXPECT_LE(isdf_rel_error(map, p, 8.0), 1e-6);
}

TEST(Isdf, ErrorDecreasesWithRankFactor) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const auto p = ApplyProblem::make(sys.sphere->npw(), 8, 413);
  const real_t e2 = isdf_rel_error(map, p, 2.0);
  const real_t e4 = isdf_rel_error(map, p, 4.0);
  const real_t e8 = isdf_rel_error(map, p, 8.0);
  // Monotone within a small slack (the point sets are not nested), and
  // substantially so across the full sweep.
  EXPECT_LE(e4, e2 * 1.05);
  EXPECT_LE(e8, e4 * 1.05);
  EXPECT_LE(e8, 0.5 * e2);
}

TEST(Isdf, SinglePrecisionPolicyParity) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const auto p = ApplyProblem::make(npw, 8, 415);

  const auto x64 = make_xop(map, ham::ExchangeCompression::kIsdf, 8.0);
  la::MatC ref(npw, p.tgt.cols());
  x64.apply_diag(p.phi, p.d, p.tgt, ref);
  const real_t scale = std::max(la::frob_norm(ref), real_t(1.0));

  real_t err_single = 0.0, err_comp = 0.0;
  for (const Precision prec :
       {Precision::kSingle, Precision::kSingleCompensated}) {
    const auto x32 = make_xop(map, ham::ExchangeCompression::kIsdf, 8.0, prec);
    la::MatC out(npw, p.tgt.cols());
    x32.apply_diag(p.phi, p.d, p.tgt, out);
    const real_t err = la::frob_diff(out, ref) / scale;
    EXPECT_LE(err, 1e-5) << precision_name(prec);
    (prec == Precision::kSingle ? err_single : err_comp) = err;
  }
  // Kahan compensation never hurts.
  EXPECT_LE(err_comp, err_single * 1.5);
}

// --------------------------------------------------- determinism --------

TEST(Isdf, PointSelectionIsBitwiseDeterministic) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t ng = sys.wfc_grid->size();
  const auto p = ApplyProblem::make(sys.sphere->npw(), 8, 417);
  const auto xop = make_xop(map, ham::ExchangeCompression::kIsdf, 6.0);

  la::MatC src_real, tgt_real;
  map.to_real_batch(p.phi, src_real);
  map.to_real_batch(p.tgt, tgt_real);
  ASSERT_EQ(src_real.rows(), ng);

  auto select_and_fit = [&] {
    return ham::isdf::fit_diag(
        xop, src_real, p.d, tgt_real,
        ham::isdf::select_diag(xop, src_real, p.d, tgt_real));
  };
  const ham::isdf::Fit f1 = select_and_fit();
  const ham::isdf::Fit f2 = select_and_fit();
  ASSERT_FALSE(f1.points.empty());
  EXPECT_EQ(f1.points, f2.points);
  ASSERT_EQ(f1.apply_mat.size(), f2.apply_mat.size());
  for (size_t i = 0; i < f1.apply_mat.size(); ++i)
    EXPECT_EQ(f1.apply_mat.data()[i], f2.apply_mat.data()[i]);
}

// ------------------------------------------------------ distributed -----

TEST(IsdfDist, FitIsBitwiseIdenticalAcrossRanks) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 7;  // non-divisible over 3 ranks
  const auto p = ApplyProblem::make(npw, nb, 421);
  const int nranks = 3;
  const dist::BlockLayout bands(nb, nranks);
  // The 4 targets are sliced by their own layout (the fit takes target
  // widths independent of the source bands).
  const dist::BlockLayout tgt_bands(p.tgt.cols(), nranks);

  std::vector<ham::isdf::Fit> fits(nranks);
  ptmpi::run_ranks(nranks, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    const auto xop = make_xop(map, ham::ExchangeCompression::kIsdf, 6.0);
    const la::MatC src_local = dist::scatter_bands(p.phi, bands, me);
    const la::MatC tgt_local = dist::scatter_bands(p.tgt, tgt_bands, me);
    fits[static_cast<size_t>(me)] =
        dist::isdf_fit_distributed(c, xop, src_local, p.d, tgt_local, bands);
  });

  ASSERT_FALSE(fits[0].points.empty());
  for (int r = 1; r < nranks; ++r) {
    EXPECT_EQ(fits[static_cast<size_t>(r)].points, fits[0].points);
    ASSERT_EQ(fits[static_cast<size_t>(r)].apply_mat.size(),
              fits[0].apply_mat.size());
    for (size_t i = 0; i < fits[0].apply_mat.size(); ++i)
      EXPECT_EQ(fits[static_cast<size_t>(r)].apply_mat.data()[i],
                fits[0].apply_mat.data()[i]);
  }
}

TEST(IsdfDist, MatchesSerialOperator) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 7;
  const auto p = ApplyProblem::make(npw, nb, 423);

  const auto xser = make_xop(map, ham::ExchangeCompression::kIsdf, 6.0);
  la::MatC ref(npw, nb);
  // Serial reference applies onto the FULL band block; the distributed run
  // slices the same targets.
  xser.apply_diag(p.phi, p.d, p.phi, ref);
  const real_t scale = std::max(la::frob_norm(ref), real_t(1.0));

  for (const int nranks : {2, 3}) {
    const dist::BlockLayout bands(nb, nranks);
    std::vector<la::MatC> outs(static_cast<size_t>(nranks));
    ptmpi::run_ranks(nranks, 1, [&](ptmpi::Comm& c) {
      const int me = c.rank();
      const auto xop = make_xop(map, ham::ExchangeCompression::kIsdf, 6.0);
      const la::MatC src_local = dist::scatter_bands(p.phi, bands, me);
      outs[static_cast<size_t>(me)] = dist::exchange_apply_distributed_local(
          c, xop, src_local, p.d, src_local, bands,
          dist::ExchangePattern::kAsyncRing);
    });
    for (int r = 0; r < nranks; ++r) {
      const auto& o = outs[static_cast<size_t>(r)];
      ASSERT_EQ(o.cols(), bands.count(r));
      for (size_t b = 0; b < o.cols(); ++b)
        for (size_t i = 0; i < npw; ++i)
          EXPECT_LE(std::abs(o(i, b) - ref(i, bands.offset(r) + b)),
                    1e-8 * scale)
              << "p=" << nranks << " rank " << r;
    }
  }
}

TEST(IsdfDist, SlabGridLayoutIsRejected) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 6;
  std::vector<int> threw(4, 0);
  ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
    ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                       *sys.den_grid, ham::HamiltonianOptions{});
    h.set_exchange_compression(ham::ExchangeCompression::kIsdf);
    dist::BandHamOptions bopt;
    bopt.grid = dist::ProcessGrid{2, 2};
    dist::BandDistributedHamiltonian bdh(c, h, nb, bopt);
    const dist::BlockLayout bands(nb, 2);
    const int br = bopt.grid.band_rank_of(c.rank());
    const la::MatC phi = test::random_orbitals(sys.sphere->npw(), nb, 425);
    const la::MatC src_local = dist::scatter_bands(phi, bands, br);
    const std::vector<real_t> occ(nb, 0.5);
    la::MatC w;
    try {
      // The band space's ACE W apply routes through the diag exchange.
      bdh.exchange_diag(src_local, occ, w);
    } catch (const Error&) {
      threw[static_cast<size_t>(c.rank())] = 1;
    }
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(threw[static_cast<size_t>(r)], 1);
}

// ------------------------------------------------------- routing --------

TEST(Isdf, PackedMatchesSingleJobsBitwise) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const auto xop = make_xop(map, ham::ExchangeCompression::kIsdf, 6.0);

  const auto p1 = ApplyProblem::make(npw, 6, 431);
  const auto p2 = ApplyProblem::make(npw, 5, 433);
  la::MatC ref1(npw, p1.tgt.cols()), ref2(npw, p2.tgt.cols());
  xop.apply_diag(p1.phi, p1.d, p1.tgt, ref1);
  xop.apply_diag(p2.phi, p2.d, p2.tgt, ref2);

  la::MatC out1(npw, p1.tgt.cols()), out2(npw, p2.tgt.cols());
  std::vector<ham::ExchangeOperator::DiagApplyJob> jobs(2);
  jobs[0] = {&p1.phi, &p1.d, &p1.tgt, &out1};
  jobs[1] = {&p2.phi, &p2.d, &p2.tgt, &out2};
  xop.apply_diag_packed(jobs);

  for (size_t i = 0; i < ref1.size(); ++i)
    EXPECT_EQ(out1.data()[i], ref1.data()[i]);
  for (size_t i = 0; i < ref2.size(); ++i)
    EXPECT_EQ(out2.data()[i], ref2.data()[i]);
}

TEST(Isdf, FftCountIsRankBound) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const auto p = ApplyProblem::make(npw, 16, 435);

  // The PT-IM shape: exchange applied onto the full band block, so the
  // dense path pays 2 FFTs per (active source, target) pair while ISDF
  // pays 2 per interpolation vector — independent of the target count.
  const auto dense = make_xop(map, ham::ExchangeCompression::kDense);
  la::MatC out(npw, p.phi.cols());
  dense.fft_count = 0;
  dense.apply_diag(p.phi, p.d, p.phi, out);
  const long dense_ffts = dense.fft_count.load();

  const auto xisdf = make_xop(map, ham::ExchangeCompression::kIsdf, 4.0);
  xisdf.fft_count = 0;
  xisdf.apply_diag(p.phi, p.d, p.phi, out);
  const long isdf_ffts = xisdf.fft_count.load();

  EXPECT_GT(dense_ffts, 0);
  EXPECT_GT(isdf_ffts, 0);
  EXPECT_LE(isdf_ffts * 2, dense_ffts);
}

// ---------------------------------------------------- golden replay -----

TEST(Isdf, GoldenTrajectoryWithinContinuationBound) {
  // Same trajectory as test_golden (PT-IM-ACE, dt=0.5, 10 steps, seeds
  // 641/642) but propagated with ISDF exchange at the default rank factor;
  // the observables must track the dense fixture to 1e-7 — the bound that
  // makes kIsdf a safe hash-neutral continuation of a dense checkpoint.
  constexpr int kSteps = 10;
  constexpr size_t kBands = 6;
  test::TinySystem sys = test::TinySystem::make(3.0);

  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-8;
  opt.variant = td::PtImVariant::kAce;
  opt.exchange_compression = ham::ExchangeCompression::kIsdf;

  td::TdState s;
  s.phi = test::random_orbitals(sys.sphere->npw(), kBands, 641);
  s.sigma = test::random_occupation_matrix(kBands, 642);

  ham::Hamiltonian obs_h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                         *sys.den_grid, ham::HamiltonianOptions{});
  obs_h.set_exchange_mode(ham::ExchangeMode::kExactDiag);

  td::PtImPropagator prop(*sys.ham, opt, nullptr);
  const test::GoldenTrajectory ref = test::golden_load("ptim_ace_10step.txt");
  ASSERT_EQ(ref.steps.size(), static_cast<size_t>(kSteps));
  for (int k = 0; k < kSteps; ++k) {
    prop.step(s);
    const auto rho = ham::density_sigma(s.phi, s.sigma, obs_h.den_map());
    obs_h.set_density(rho);
    const real_t energy = obs_h.energy(s.phi, s.sigma, rho).total();
    const real_t dipole = td::dipole(rho, *sys.den_grid, {1.0, 0.0, 0.0});
    EXPECT_NEAR(energy, ref.steps[static_cast<size_t>(k)].energy, 1e-7)
        << "step " << k;
    EXPECT_NEAR(dipole, ref.steps[static_cast<size_t>(k)].dipole, 1e-7)
        << "step " << k;
  }
}

// ---------------------------------------------- held points per step ----

namespace {

constexpr size_t kHeldBands = 6;

// The golden trajectory's setup under kIsdf at the default rank factor:
// Nmu = 48 of Ng = 343 grid points, so fresh selections can differ.
td::PtImOptions held_options() {
  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-8;
  opt.variant = td::PtImVariant::kAce;
  opt.exchange_compression = ham::ExchangeCompression::kIsdf;
  return opt;
}

td::TdState held_initial(size_t npw, size_t nb = kHeldBands) {
  td::TdState s;
  s.phi = test::random_orbitals(npw, nb, 641);
  s.sigma = test::random_occupation_matrix(nb, 642);
  return s;
}

bool bitwise_equal(const la::MatC& a, const la::MatC& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

long select_calls() {
  return ProfileRegistry::instance().get("isdf.select").count;
}

}  // namespace

TEST(IsdfHeld, StagedProtocolMatchesStepWithTwoSelectionsPerStep) {
  constexpr int kSteps = 5;
  test::TinySystem ref_sys = test::TinySystem::make(3.0);
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t npw = sys.sphere->npw();
  const size_t ng = sys.wfc_grid->size();
  const size_t nmu = ham::isdf::rank(8.0, kHeldBands, kHeldBands, ng);
  ASSERT_LT(nmu, ng);

  const td::PtImOptions opt = held_options();
  td::PtImPropagator ref_prop(*ref_sys.ham, opt, nullptr);
  td::PtImPropagator prop(*sys.ham, opt, nullptr);
  const ham::ExchangeOperator& xop = sys.ham->exchange_op();
  td::TdState ref = held_initial(npw);
  td::TdState s = ref;
  for (int k = 0; k < kSteps; ++k) {
    long calls = select_calls();
    const td::PtImStepStats want = ref_prop.step(ref);
    EXPECT_EQ(select_calls() - calls, 2) << "step() " << k;
    EXPECT_TRUE(want.outer_converged) << "step " << k;
    EXPECT_LT(want.outer_iterations, opt.max_outer) << "step " << k;

    // The same step driven from outside, as perfbench and the ensemble
    // driver do: the t_n build selects its own points, every later build
    // fits on the set step_advance installed.
    calls = select_calls();
    auto sess = prop.step_begin(s);
    la::MatC w;
    int applies = 0;
    do {
      EXPECT_EQ(xop.isdf_points().empty(), applies == 0)
          << "step " << k << " apply " << applies;
      if (applies > 0) {
        EXPECT_EQ(xop.isdf_points().size(), nmu);
      }
      w.resize(sess.ace_phi.rows(), sess.ace_phi.cols());
      xop.apply_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi, w, false);
      ++applies;
    } while (prop.step_advance(s, sess, w));
    const td::PtImStepStats got = prop.step_finish(s, sess);
    EXPECT_TRUE(xop.isdf_points().empty()) << "released at step_finish";
    EXPECT_EQ(select_calls() - calls, 2) << "staged " << k;

    EXPECT_EQ(applies, want.exchange_applications);
    EXPECT_EQ(got.scf_iterations, want.scf_iterations);
    EXPECT_EQ(got.outer_iterations, want.outer_iterations);
    EXPECT_EQ(got.outer_converged, want.outer_converged);
    EXPECT_TRUE(bitwise_equal(s.phi, ref.phi)) << "step " << k;
    EXPECT_TRUE(bitwise_equal(s.sigma, ref.sigma)) << "step " << k;
  }
}

TEST(IsdfHeld, AbandonedSessionReleasesItsPoints) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t npw = sys.sphere->npw();
  const size_t ng = sys.wfc_grid->size();
  ASSERT_LT(ham::isdf::rank(8.0, kHeldBands, 4, ng), ng);
  td::PtImPropagator prop(*sys.ham, held_options(), nullptr);
  const ham::ExchangeOperator& xop = sys.ham->exchange_op();
  const td::TdState s = held_initial(npw);
  {
    auto sess = prop.step_begin(s);
    la::MatC w(npw, kHeldBands);
    xop.apply_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi, w, false);
    ASSERT_TRUE(prop.step_advance(s, sess, w));
    ASSERT_FALSE(xop.isdf_points().empty());
  }  // abandoned: no step_finish
  EXPECT_TRUE(xop.isdf_points().empty());

  // The next plain apply selects fresh points: bitwise a fresh operator's.
  const auto p = ApplyProblem::make(npw, kHeldBands, 437);
  la::MatC got(npw, p.tgt.cols()), want(npw, p.tgt.cols());
  xop.apply_diag(p.phi, p.d, p.tgt, got);
  const ham::ExchangeOperator fresh(xop.map(), xop.options());
  fresh.apply_diag(p.phi, p.d, p.tgt, want);
  EXPECT_TRUE(bitwise_equal(got, want));

  // And the next step starts clean: bitwise a fresh propagator's.
  test::TinySystem ref_sys = test::TinySystem::make(3.0);
  td::PtImPropagator ref_prop(*ref_sys.ham, held_options(), nullptr);
  td::TdState a = s, b = s;
  prop.step(a);
  ref_prop.step(b);
  EXPECT_TRUE(bitwise_equal(a.phi, b.phi));
  EXPECT_TRUE(bitwise_equal(a.sigma, b.sigma));
}

TEST(IsdfDist, TrajectoryMatchesSerialWithRankIdenticalHeldSets) {
  // Serial vs band-parallel kIsdf PT-IM-ACE: every rank holds the same
  // collectively selected point set, and the observables track the serial
  // trajectory to the per-apply tolerance of MatchesSerialOperator.
  constexpr int kSteps = 5;
  constexpr real_t kRel = 1e-8;
  const size_t nb = 7;  // non-divisible over 2 and 3 ranks
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t npw = sys.sphere->npw();
  const size_t ng = sys.wfc_grid->size();
  ASSERT_LT(ham::isdf::rank(8.0, nb, nb, ng), ng);
  const td::TdState init = held_initial(npw, nb);

  std::vector<real_t> ser_dipole;
  td::TdState ser = init;
  {
    td::PtImPropagator prop(*sys.ham, held_options(), nullptr);
    for (int k = 0; k < kSteps; ++k) {
      EXPECT_TRUE(prop.step(ser).outer_converged) << "serial step " << k;
      const auto rho = ham::density_sigma(ser.phi, ser.sigma,
                                          sys.ham->den_map());
      ser_dipole.push_back(td::dipole(rho, *sys.den_grid, {1.0, 0.0, 0.0}));
    }
  }

  for (const int nranks : {2, 3}) {
    const dist::BlockLayout bands(nb, nranks);
    std::vector<real_t> dipole(kSteps, 0.0);
    // held[k][rank]: the set a midpoint-style build installs on the
    // committed state of step k.
    std::vector<std::vector<std::vector<size_t>>> held(
        kSteps, std::vector<std::vector<size_t>>(nranks));
    std::vector<int> outer_ok(nranks, 1);
    td::TdState dst;
    ptmpi::run_ranks(nranks, 1, [&](ptmpi::Comm& c) {
      const int me = c.rank();
      ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                         *sys.den_grid, ham::HamiltonianOptions{});
      dist::BandDistributedHamiltonian bdh(c, h, nb);
      td::TdState s = td::scatter_state(init, bands, me);
      td::PtImPropagator prop(bdh, held_options(), nullptr);
      for (int k = 0; k < kSteps; ++k) {
        if (!prop.step(s).outer_converged) outer_ok[me] = 0;
        EXPECT_TRUE(h.exchange_op().isdf_points().empty());
        const auto rho = bdh.density(s);
        if (me == 0)
          dipole[k] = td::dipole(rho, *sys.den_grid, {1.0, 0.0, 0.0});
        la::MatC rotated;
        std::vector<real_t> occ;
        prop.space().diagonalize(s.phi, s.sigma, &rotated, &occ);
        const ham::IsdfPointHold hold =
            prop.space().hold_isdf_points(rotated, occ);
        held[k][me] = h.exchange_op().isdf_points();
      }
      const td::TdState full = td::gather_state(c, s, bands);
      if (me == 0) dst = full;
    });

    for (int r = 0; r < nranks; ++r)
      EXPECT_EQ(outer_ok[r], 1) << "p=" << nranks << " rank " << r;
    for (int k = 0; k < kSteps; ++k) {
      EXPECT_NEAR(dipole[k], ser_dipole[k], kRel * std::abs(ser_dipole[k]))
          << "p=" << nranks << " step " << k;
      ASSERT_FALSE(held[k][0].empty());
      EXPECT_LT(held[k][0].size(), ng);
      for (int r = 1; r < nranks; ++r)
        EXPECT_EQ(held[k][r], held[k][0])
            << "p=" << nranks << " step " << k << " rank " << r;
    }
    EXPECT_LE(la::frob_diff(dst.sigma, ser.sigma),
              kRel * la::frob_norm(ser.sigma))
        << "p=" << nranks;
    EXPECT_LE(la::frob_diff(dst.phi, ser.phi), kRel * la::frob_norm(ser.phi))
        << "p=" << nranks;
  }
}
