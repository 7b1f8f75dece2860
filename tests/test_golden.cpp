// Golden-trajectory regression harness: a serialized 10-step PT-IM-ACE
// trajectory (energy, total-energy, dipole and sigma-trace observables per
// step) pinned in tests/golden/, replayed here by the serial propagator,
// the band-parallel propagator and the 2-D band x grid configuration — all
// three must land within 1e-10 of the SAME fixture. This is the
// cross-layer safety net: any drift in the FFT engine, exchange pipeline,
// circulation patterns, communicator splits or propagator algebra shows up
// as a fixture mismatch, not just as a serial-vs-distributed disagreement.
//
// Regenerate (after an INTENDED numerical change) with
//   PTIM_GOLDEN_REGEN=1 ./test_golden
// which rewrites the fixture in the source tree from the serial run; the
// diff then documents the drift.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "dist/band_ham.hpp"
#include "ham/density.hpp"
#include "la/util.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

constexpr int kSteps = 10;
constexpr real_t kTol = 1e-10;
constexpr size_t kBands = 6;  // non-divisible over the 4-rank 2-D layouts
const char* kFixture = "ptim_ace_10step.txt";

td::PtImOptions ptim_options() {
  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-8;  // converge the fixed point well below the pin tolerance
  opt.variant = td::PtImVariant::kAce;
  return opt;
}

td::TdState initial_state(size_t npw) {
  td::TdState s;
  s.phi = test::random_orbitals(npw, kBands, 641);
  s.sigma = test::random_occupation_matrix(kBands, 642);
  return s;
}

// Observables of one state, always computed through the same serial code
// path so every configuration is measured with the same ruler. Uses a
// DEDICATED observation Hamiltonian (the propagators mutate the exchange
// configuration of theirs, which would leak into the Fock energy term).
struct Observer {
  explicit Observer(test::TinySystem& sys, bool gamma = false)
      : sys_(&sys),
        h_(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid, *sys.den_grid,
           ham::HamiltonianOptions{}) {
    // Any non-kNone mode includes the Fock term; energy() evaluates it from
    // the passed (phi, sigma), not from stored sources.
    h_.set_exchange_mode(ham::ExchangeMode::kExactDiag);
    h_.set_exchange_gamma_real(gamma);
  }

  test::GoldenStep operator()(const td::TdState& s) {
    const auto rho = ham::density_sigma(s.phi, s.sigma, h_.den_map());
    test::GoldenStep g;
    h_.set_density(rho);
    g.energy = h_.energy(s.phi, s.sigma, rho).total();
    g.dipole = td::dipole(rho, *sys_->den_grid, {1.0, 0.0, 0.0});
    g.sigma_trace = 0.0;
    for (size_t i = 0; i < s.sigma.rows(); ++i)
      g.sigma_trace += std::real(s.sigma(i, i));
    return g;
  }

  test::TinySystem* sys_;
  ham::Hamiltonian h_;
};

// Serial reference trajectory.
std::vector<test::GoldenStep> run_serial(test::TinySystem& sys,
                                         bool gamma = false) {
  Observer observe(sys, gamma);
  sys.ham->set_exchange_gamma_real(gamma);
  td::TdState s = initial_state(sys.sphere->npw());
  td::PtImPropagator prop(*sys.ham, ptim_options(), nullptr);
  std::vector<test::GoldenStep> out;
  for (int i = 0; i < kSteps; ++i) {
    prop.step(s);
    out.push_back(observe(s));
  }
  return out;
}

// Distributed trajectory on a pb x pg layout (pg == 1 is band-parallel).
// Full states are gathered per step and observed with the serial ruler.
std::vector<test::GoldenStep> run_distributed(test::TinySystem& sys,
                                              dist::ProcessGrid pgrid,
                                              dist::ExchangePattern pattern,
                                              bool gamma = false) {
  const int nranks = pgrid.resolve_pb(pgrid.pb * pgrid.pg) * pgrid.pg;
  const dist::BlockLayout bands(kBands, pgrid.pb);
  const td::TdState init = initial_state(sys.sphere->npw());
  std::vector<td::TdState> traj(static_cast<size_t>(kSteps));
  ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
    auto h = std::make_unique<ham::Hamiltonian>(
        *sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid, *sys.den_grid,
        ham::HamiltonianOptions{});
    h->set_exchange_gamma_real(gamma);
    dist::BandHamOptions bopt;
    bopt.pattern = pattern;
    if (pgrid.pg > 1) bopt.grid = pgrid;
    dist::BandDistributedHamiltonian bdh(c, *h, kBands, bopt);
    const int br = pgrid.pg > 1 ? pgrid.band_rank_of(c.rank()) : c.rank();
    td::TdState s = td::scatter_state(init, bands, br);
    td::PtImPropagator prop(bdh, ptim_options(), nullptr);
    for (int i = 0; i < kSteps; ++i) {
      prop.step(s);
      const td::TdState full = td::gather_state(bdh.comm(), s, bands);
      if (c.rank() == 0) traj[static_cast<size_t>(i)] = full;
    }
  });
  Observer observe(sys, gamma);
  std::vector<test::GoldenStep> out;
  for (const auto& s : traj) out.push_back(observe(s));
  return out;
}

void expect_matches_fixture(const std::vector<test::GoldenStep>& got,
                            const char* what) {
  const test::GoldenTrajectory ref = test::golden_load(kFixture);
  ASSERT_EQ(got.size(), ref.steps.size()) << what;
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_NEAR(got[k].energy, ref.steps[k].energy, kTol)
        << what << " step " << k;
    EXPECT_NEAR(got[k].dipole, ref.steps[k].dipole, kTol)
        << what << " step " << k;
    EXPECT_NEAR(got[k].sigma_trace, ref.steps[k].sigma_trace, kTol)
        << what << " step " << k;
  }
}

}  // namespace

TEST(Golden, SerialMatchesFixture) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  const auto got = run_serial(sys);

  if (std::getenv("PTIM_GOLDEN_REGEN")) {
    test::GoldenTrajectory t;
    t.description =
        " PT-IM-ACE, TinySystem(ecut=3, box=8), nb=6, dt=0.5, tol=1e-8, "
        "10 steps, seeds 641/642 (see tests/test_golden.cpp)";
    t.steps = got;
    test::golden_save(kFixture, t);
    GTEST_SKIP() << "fixture regenerated at " << test::golden_path(kFixture);
  }
  expect_matches_fixture(got, "serial");
}

TEST(Golden, BandParallelMatchesFixture) {
  if (std::getenv("PTIM_GOLDEN_REGEN")) GTEST_SKIP();
  test::TinySystem sys = test::TinySystem::make(3.0);
  // Non-divisible band count (6 bands on 4 ranks), async ring.
  expect_matches_fixture(
      run_distributed(sys, dist::ProcessGrid{4, 1},
                      dist::ExchangePattern::kAsyncRing),
      "band-parallel p=4");
  expect_matches_fixture(
      run_distributed(sys, dist::ProcessGrid{3, 1},
                      dist::ExchangePattern::kRing),
      "band-parallel p=3 ring");
}

TEST(Golden, TwoDGridMatchesFixture) {
  if (std::getenv("PTIM_GOLDEN_REGEN")) GTEST_SKIP();
  test::TinySystem sys = test::TinySystem::make(3.0);
  // 2 x 2: bands AND the grid z/y dimensions are non-divisible (7-point
  // axes over 2 columns).
  expect_matches_fixture(
      run_distributed(sys, dist::ProcessGrid{2, 2},
                      dist::ExchangePattern::kAsyncRing),
      "2-D 2x2 async");
  // pb = 1, pg = 3: the pure grid-parallel column, bit-identical to the
  // serial operator by construction.
  expect_matches_fixture(
      run_distributed(sys, dist::ProcessGrid{1, 3},
                      dist::ExchangePattern::kBcast),
      "2-D 1x3 bcast");
}

// The Γ-point gamma_real flag on a genuinely COMPLEX propagated trajectory:
// the realness gate must detect the complex orbitals every step and fall
// back to the complex pipeline bitwise, so all three configurations still
// land on the same fixture. Any false-positive in the gate (filtering a
// complex field through the packed real path) would show up here as a
// fixture mismatch.
TEST(Golden, GammaRealFlagMatchesFixture) {
  if (std::getenv("PTIM_GOLDEN_REGEN")) GTEST_SKIP();
  test::TinySystem sys = test::TinySystem::make(3.0);
  expect_matches_fixture(run_serial(sys, /*gamma=*/true), "serial gamma");
  expect_matches_fixture(
      run_distributed(sys, dist::ProcessGrid{4, 1},
                      dist::ExchangePattern::kAsyncRing, /*gamma=*/true),
      "band-parallel p=4 gamma");
  expect_matches_fixture(
      run_distributed(sys, dist::ProcessGrid{2, 2},
                      dist::ExchangePattern::kRing, /*gamma=*/true),
      "2-D 2x2 ring gamma");
}
