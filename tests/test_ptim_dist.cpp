// Band-parallel PT-IM propagation: td::PtImPropagator over a
// band-distributed Hamiltonian must reproduce the serial trajectory to
// 1e-10 over 10 steps for every variant (Baseline / Diag / ACE) and every
// circulation pattern (Bcast / Ring / Async-Ring), including non-divisible
// band counts (7 bands on 2/3/4 ranks) and more ranks than bands. Also
// checks that the measured CommStats of the real propagator show the
// Table I pattern shift (no Bcast traffic under the rings), that band runs
// honour HamiltonianOptions::hybrid, and that the staged ACE protocol
// drives a band run bitwise like step(). The band space's nb x nb algebra
// runs on the row layout: its rotations and orthonormalization compute the
// serial rows, and the exchange is the step's only circulation.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/simulation.hpp"
#include "dist/band_ham.hpp"
#include "dist/transpose.hpp"
#include "ham/density.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "pw/wavefunction.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

constexpr int kSteps = 10;
constexpr real_t kTol = 1e-10;

td::PtImOptions ptim_options(td::PtImVariant variant) {
  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-7;
  opt.variant = variant;
  return opt;
}

td::TdState initial_state(size_t npw, size_t nb) {
  td::TdState s;
  s.phi = test::random_orbitals(npw, nb, 901);
  s.sigma = test::random_occupation_matrix(nb, 902);
  return s;
}

struct Trajectory {
  std::vector<real_t> dipole;  // after each step
  td::TdState final_state;
};

Trajectory serial_trajectory(test::TinySystem& sys, size_t nb,
                             td::PtImVariant variant) {
  Trajectory t;
  td::TdState s = initial_state(sys.sphere->npw(), nb);
  td::PtImPropagator prop(*sys.ham, ptim_options(variant), nullptr);
  for (int i = 0; i < kSteps; ++i) {
    prop.step(s);
    const auto rho = ham::density_sigma(s.phi, s.sigma, sys.ham->den_map());
    t.dipole.push_back(td::dipole(rho, *sys.den_grid, {1.0, 0.0, 0.0}));
  }
  t.final_state = std::move(s);
  return t;
}

Trajectory distributed_trajectory(test::TinySystem& sys, size_t nb,
                                  td::PtImVariant variant,
                                  dist::ExchangePattern pattern, int p,
                                  int steps = kSteps) {
  Trajectory t;
  t.dipole.assign(static_cast<size_t>(steps), 0.0);
  const td::TdState init = initial_state(sys.sphere->npw(), nb);
  const dist::BlockLayout bands(nb, p);
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    auto h = std::make_unique<ham::Hamiltonian>(*sys.lattice, sys.atoms,
                                                *sys.sphere, *sys.wfc_grid,
                                                *sys.den_grid,
                                                ham::HamiltonianOptions{});
    dist::BandHamOptions bopt;
    bopt.pattern = pattern;
    bopt.overlap_shm = (pattern != dist::ExchangePattern::kBcast);
    dist::BandDistributedHamiltonian bdh(c, *h, nb, bopt);
    td::TdState s = td::scatter_state(init, bands, c.rank());
    td::PtImPropagator prop(bdh, ptim_options(variant), nullptr);
    for (int i = 0; i < steps; ++i) {
      prop.step(s);
      const auto rho = bdh.density(s);
      if (c.rank() == 0)
        t.dipole[static_cast<size_t>(i)] =
            td::dipole(rho, *sys.den_grid, {1.0, 0.0, 0.0});
    }
    const td::TdState full = td::gather_state(c, s, bands);
    if (c.rank() == 0) t.final_state = full;
  });
  return t;
}

real_t total_energy(test::TinySystem& sys, const td::TdState& s) {
  const auto rho = ham::density_sigma(s.phi, s.sigma, sys.ham->den_map());
  sys.ham->set_density(rho);
  sys.ham->set_exchange_mode(ham::ExchangeMode::kExactDiag);
  return sys.ham->energy(s.phi, s.sigma, rho).total();
}

void expect_trajectories_match(test::TinySystem& sys, const Trajectory& ser,
                               const Trajectory& dst, const char* label) {
  for (int i = 0; i < kSteps; ++i)
    EXPECT_NEAR(ser.dipole[static_cast<size_t>(i)],
                dst.dipole[static_cast<size_t>(i)], kTol)
        << label << " dipole step " << i;
  EXPECT_LT(la::frob_diff(ser.final_state.sigma, dst.final_state.sigma), kTol)
      << label << " sigma";
  const real_t es = total_energy(sys, ser.final_state);
  const real_t ed = total_energy(sys, dst.final_state);
  EXPECT_NEAR(es, ed, kTol * std::max(real_t(1.0), std::abs(es)))
      << label << " energy";
}

}  // namespace

// ------------------------------------------------ trajectory regression ---

class PtImDistParam
    : public ::testing::TestWithParam<
          std::tuple<td::PtImVariant, dist::ExchangePattern, int>> {};

TEST_P(PtImDistParam, MatchesSerialTrajectory) {
  const auto [variant, pattern, p] = GetParam();
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 7;  // not divisible by 2, 3 or 4

  // The serial reference depends only on the variant (fully deterministic);
  // compute it once and reuse it across the three pattern/rank cases.
  static std::map<int, Trajectory> cache;
  auto it = cache.find(static_cast<int>(variant));
  if (it == cache.end())
    it = cache.emplace(static_cast<int>(variant),
                       serial_trajectory(sys, nb, variant)).first;
  const Trajectory& ser = it->second;

  const Trajectory dst = distributed_trajectory(sys, nb, variant, pattern, p);
  expect_trajectories_match(sys, ser, dst,
                            dist::pattern_name(pattern));
}

// Every variant runs every pattern; rank counts 2/3/4 all appear for each
// variant (and 7 bands split unevenly on each of them).
INSTANTIATE_TEST_SUITE_P(
    VariantsPatternsRanks, PtImDistParam,
    ::testing::Values(
        std::make_tuple(td::PtImVariant::kBaseline,
                        dist::ExchangePattern::kBcast, 2),
        std::make_tuple(td::PtImVariant::kBaseline,
                        dist::ExchangePattern::kRing, 3),
        std::make_tuple(td::PtImVariant::kBaseline,
                        dist::ExchangePattern::kAsyncRing, 4),
        std::make_tuple(td::PtImVariant::kDiag,
                        dist::ExchangePattern::kBcast, 3),
        std::make_tuple(td::PtImVariant::kDiag,
                        dist::ExchangePattern::kRing, 4),
        std::make_tuple(td::PtImVariant::kDiag,
                        dist::ExchangePattern::kAsyncRing, 2),
        std::make_tuple(td::PtImVariant::kAce,
                        dist::ExchangePattern::kBcast, 4),
        std::make_tuple(td::PtImVariant::kAce,
                        dist::ExchangePattern::kRing, 2),
        std::make_tuple(td::PtImVariant::kAce,
                        dist::ExchangePattern::kAsyncRing, 3)));

TEST(PtImDist, RanksExceedBands) {
  // 3 bands on 5 ranks: two ranks own no bands at all and must still
  // participate in every collective.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 3;
  const Trajectory ser = serial_trajectory(sys, nb, td::PtImVariant::kDiag);
  const Trajectory dst = distributed_trajectory(
      sys, nb, td::PtImVariant::kDiag, dist::ExchangePattern::kAsyncRing, 5);
  expect_trajectories_match(sys, ser, dst, "ranks>bands");
}

// ------------------------------------------------ measured comm pattern ---

TEST(PtImDist, PropagatorCommStatsShowPatternShift) {
  // The Table I claim, measured on the real propagator: the ring variants
  // move the exchange bytes out of Bcast into Sendrecv (sync) or
  // Isend/Irecv+Wait (async); overlaps keep using Alltoallv + Allreduce.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 6;

  auto run = [&](dist::ExchangePattern pattern) {
    (void)distributed_trajectory(sys, nb, td::PtImVariant::kAce, pattern, 4,
                                 /*steps=*/2);
    return ptmpi::last_run_stats();
  };

  const auto s_bcast = run(dist::ExchangePattern::kBcast);
  EXPECT_GT(s_bcast[0].ops.at("Bcast").bytes, 0);
  EXPECT_EQ(s_bcast[0].ops.count("Sendrecv"), 0u);

  const auto s_ring = run(dist::ExchangePattern::kRing);
  EXPECT_EQ(s_ring[0].ops.count("Bcast"), 0u);
  EXPECT_GT(s_ring[0].ops.at("Sendrecv").bytes, 0);

  const auto s_async = run(dist::ExchangePattern::kAsyncRing);
  EXPECT_EQ(s_async[0].ops.count("Bcast"), 0u);
  EXPECT_EQ(s_async[0].ops.count("Sendrecv"), 0u);
  EXPECT_GT(s_async[0].ops.at("Wait").bytes, 0);

  // Structural ops shared by every pattern (the Allgatherv is the final
  // full-state gather).
  for (const auto& stats : {s_ring, s_async}) {
    EXPECT_GT(stats[0].ops.at("Alltoallv").calls, 0);
    EXPECT_GT(stats[0].ops.at("Allreduce").calls, 0);
    EXPECT_GT(stats[0].ops.at("Allgatherv").calls, 0);
  }
}

TEST(PtImDist, AceStepSharesNoOccupations) {
  // The eigen-occupations of every ACE build are replicated, so the
  // exchange ring weights each origin's slab without a collective: a band
  // PT-IM-ACE step on 3 ranks records no Allgatherv on rank 0.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 7;
  const int p = 3;
  const td::TdState init = initial_state(sys.sphere->npw(), nb);
  const dist::BlockLayout bands(nb, p);
  long gathers = -1;
  int applies = 0;
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                       *sys.den_grid, ham::HamiltonianOptions{});
    dist::BandDistributedHamiltonian bdh(c, h, nb);
    td::TdState s = td::scatter_state(init, bands, c.rank());
    td::PtImPropagator prop(bdh, ptim_options(td::PtImVariant::kAce), nullptr);
    const ptmpi::CommStats before = c.stats().snapshot();
    const td::PtImStepStats st = prop.step(s);
    const ptmpi::CommStats after = c.stats().snapshot();
    if (c.rank() != 0) return;
    applies = st.exchange_applications;
    const auto calls = [](const ptmpi::CommStats& cs) {
      const auto it = cs.ops.find("Allgatherv");
      return it == cs.ops.end() ? 0L : it->second.calls;
    };
    gathers = calls(after) - calls(before);
  });
  EXPECT_GT(applies, 1);
  EXPECT_EQ(gathers, 0);
}

// ---------------------------------------------- row-layout band algebra ---

namespace {

long op_calls(const ptmpi::CommStats& cs, const char* op) {
  const auto it = cs.ops.find(op);
  return it == cs.ops.end() ? 0L : it->second.calls;
}

// World rank 0's traffic in one band PT-IM-ACE step (async ring) on a
// pb x pg layout. The step runs through the staged protocol, so the
// Alltoallv calls of the exchange applies themselves (the 2-D slab FFTs)
// are told apart from the band space's transposes.
struct StepComm {
  td::PtImStepStats stats;
  long waits = 0, sendrecvs = 0, bcasts = 0;
  long transposes = 0;  // Alltoallv calls outside the exchange applies
};

StepComm ace_step_comm(test::TinySystem& sys, size_t nb,
                       dist::ProcessGrid pgrid) {
  const td::TdState init = initial_state(sys.sphere->npw(), nb);
  const dist::BlockLayout bands(nb, pgrid.pb);
  StepComm out;
  ptmpi::run_ranks(pgrid.pb * pgrid.pg, 2, [&](ptmpi::Comm& c) {
    ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                       *sys.den_grid, ham::HamiltonianOptions{});
    dist::BandHamOptions bopt;
    bopt.grid = pgrid;
    dist::BandDistributedHamiltonian bdh(c, h, nb, bopt);
    td::TdState s =
        td::scatter_state(init, bands, pgrid.band_rank_of(c.rank()));
    td::PtImPropagator prop(bdh, ptim_options(td::PtImVariant::kAce), nullptr);
    const ptmpi::CommStats before = c.stats().snapshot();
    long exchange_alltoallv = 0;
    auto sess = prop.step_begin(s);
    la::MatC w;
    do {
      const long a0 = op_calls(c.stats().snapshot(), "Alltoallv");
      prop.space().exchange_diag(sess.ace_phi, sess.ace_occ, w);
      exchange_alltoallv += op_calls(c.stats().snapshot(), "Alltoallv") - a0;
    } while (prop.step_advance(s, sess, w));
    const td::PtImStepStats st = prop.step_finish(s, sess);
    const ptmpi::CommStats after = c.stats().snapshot();
    if (c.rank() != 0) return;
    const auto delta = [&](const char* op) {
      return op_calls(after, op) - op_calls(before, op);
    };
    out.stats = st;
    out.waits = delta("Wait");
    out.sendrecvs = delta("Sendrecv");
    out.bcasts = delta("Bcast");
    out.transposes = delta("Alltoallv") - exchange_alltoallv;
  });
  return out;
}

}  // namespace

TEST(PtImDist, AceStepCirculatesOnlyTheExchange) {
  // Rank 0's ring calls in a band PT-IM-ACE step are exactly the exchange
  // applies' rounds: 2 (p - 1) Waits per apply under the async ring, p the
  // band communicator's size. The nb x nb algebra moves by transposes only:
  // at most four per SCF iteration, four per ACE build and three at the
  // step end.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 7;
  for (const dist::ProcessGrid pgrid :
       {dist::ProcessGrid{4, 1}, dist::ProcessGrid{2, 2}}) {
    const StepComm sc = ace_step_comm(sys, nb, pgrid);
    const long applies = sc.stats.exchange_applications;
    const long scf = sc.stats.scf_iterations;
    const std::string label =
        std::to_string(pgrid.pb) + "x" + std::to_string(pgrid.pg);
    EXPECT_GT(applies, 1) << label;
    EXPECT_EQ(sc.waits, 2L * (pgrid.pb - 1) * applies) << label;
    EXPECT_EQ(sc.sendrecvs, 0) << label;
    EXPECT_EQ(sc.bcasts, 0) << label;
    EXPECT_GT(sc.transposes, 0) << label;
    EXPECT_LE(sc.transposes, 4 * scf + 4 * applies + 3) << label;
  }
}

TEST(PtImDist, BandRotationsAndSolveComputeSerialRows) {
  // rotate = band -> row, la::gemm_nn, row -> band: the serial product's
  // bits. orthonormalize returns the replicated factor L of Phi^H Phi and
  // Phi L^{-H} with the serial solve's bits for that L.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 7, npw = sys.sphere->npw();
  const la::MatC a = test::random_orbitals(npw, nb, 903);
  const la::MatC r = test::random_matrix(nb, nb, 904);
  la::MatC rot_ref(npw, nb);
  la::gemm_nn(a, r, rot_ref);
  const la::MatC l_ref = la::cholesky(pw::overlap(a, a));
  const auto same_bits = [](const la::MatC& x, const la::MatC& y) {
    return x.same_shape(y) &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(cplx)) == 0;
  };
  for (const int p : {2, 3, 4}) {
    const dist::BlockLayout bands(nb, p);
    std::vector<la::MatC> rot(static_cast<size_t>(p)),
        orth(static_cast<size_t>(p)), ls(static_cast<size_t>(p));
    ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
      ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                         *sys.den_grid, ham::HamiltonianOptions{});
      dist::BandDistributedHamiltonian bdh(c, h, nb);
      const auto me = static_cast<size_t>(c.rank());
      la::MatC phi = dist::scatter_bands(a, bands, c.rank());
      rot[me] = bdh.rotate(phi, r);
      ls[me] = bdh.orthonormalize(phi);
      orth[me] = std::move(phi);
    });
    la::MatC orth_ref = a;
    la::solve_upper_right(ls[0], orth_ref);
    EXPECT_LT(la::frob_diff(ls[0], l_ref), 1e-12) << "p=" << p;
    for (int q = 0; q < p; ++q) {
      const auto qi = static_cast<size_t>(q);
      EXPECT_TRUE(same_bits(rot[qi], dist::scatter_bands(rot_ref, bands, q)))
          << "p=" << p << " rank " << q;
      EXPECT_TRUE(same_bits(ls[qi], ls[0])) << "p=" << p << " rank " << q;
      EXPECT_TRUE(
          same_bits(orth[qi], dist::scatter_bands(orth_ref, bands, q)))
          << "p=" << p << " rank " << q;
    }
  }
}

// -------------------------------------------- core::Simulation threading ---

TEST(PtImDist, SimulationDistributedMatchesSerial) {
  // End-to-end through the user-facing driver: ground state, then three
  // PT-IM steps through Simulation::run, serial vs distributed (ACE +
  // async ring, 3 ranks).
  core::SystemSpec spec;
  spec.ecut = 2.0;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 1e-8;
  core::Simulation sim(spec);
  sim.prepare_ground_state();

  core::RunConfig cfg;
  cfg.steps = 3;
  cfg.dt = 0.5;
  cfg.tol = 1e-7;
  cfg.variant = td::PtImVariant::kAce;
  auto dipole_run = [&sim](const core::RunConfig& c) {
    core::MeasurementSet m;
    m.add("dipole_x", sim.dipole_probe({1.0, 0.0, 0.0}));
    return sim.run(c, std::move(m));
  };
  const auto serial = dipole_run(cfg);

  core::RunConfig dcfg = cfg;
  dcfg.nranks = 3;
  dcfg.ranks_per_node = 2;
  dcfg.pattern = dist::ExchangePattern::kAsyncRing;
  const auto res = dipole_run(dcfg);

  const auto& dip_serial = serial.measurements.series("dipole_x");
  const auto& dip_dist = res.measurements.series("dipole_x");
  ASSERT_EQ(dip_serial.size(), static_cast<size_t>(cfg.steps));
  ASSERT_EQ(dip_dist.size(), dip_serial.size());
  for (size_t i = 0; i < dip_serial.size(); ++i)
    EXPECT_NEAR(dip_serial[i], dip_dist[i], kTol) << "step " << i;
  EXPECT_LT(la::frob_diff(serial.final_state.sigma, res.final_state.sigma),
            kTol);
  EXPECT_LT(la::frob_diff(serial.final_state.phi, res.final_state.phi), 1e-8);
  ASSERT_EQ(res.comm.size(), 3u);
  EXPECT_GT(res.comm[0].ops.at("Wait").bytes, 0);
}

TEST(PtImDist, OuterCapIsReportedOnEveryRank) {
  // tol_fock = 0 can never pass, so every rank reports the capped outer
  // loop; a variant without an outer loop reports true.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 5;
  const td::TdState init = initial_state(sys.sphere->npw(), nb);
  const dist::BlockLayout bands(nb, 2);
  for (const td::PtImVariant variant :
       {td::PtImVariant::kAce, td::PtImVariant::kDiag}) {
    td::PtImOptions opt = ptim_options(variant);
    opt.max_outer = 2;
    opt.tol_fock = 0.0;
    std::vector<int> outer(2, -1), iters(2, -1);
    ptmpi::run_ranks(2, 1, [&](ptmpi::Comm& c) {
      ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                         *sys.den_grid, ham::HamiltonianOptions{});
      dist::BandDistributedHamiltonian bdh(c, h, nb);
      td::TdState s = td::scatter_state(init, bands, c.rank());
      td::PtImPropagator prop(bdh, opt, nullptr);
      const td::PtImStepStats st = prop.step(s);
      outer[static_cast<size_t>(c.rank())] = st.outer_converged ? 1 : 0;
      iters[static_cast<size_t>(c.rank())] = st.outer_iterations;
    });
    const bool ace = variant == td::PtImVariant::kAce;
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(outer[static_cast<size_t>(r)], ace ? 0 : 1) << "rank " << r;
      EXPECT_EQ(iters[static_cast<size_t>(r)], ace ? opt.max_outer : 1);
    }
  }
}

TEST(PtImDist, SingleRankIsExactlySerialShape) {
  // p = 1 must work (degenerate world) and agree with serial.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 4;
  const Trajectory ser = serial_trajectory(sys, nb, td::PtImVariant::kDiag);
  const Trajectory dst = distributed_trajectory(
      sys, nb, td::PtImVariant::kDiag, dist::ExchangePattern::kRing, 1);
  expect_trajectories_match(sys, ser, dst, "p=1");
}

// ------------------------------------------------ one propagator, two layouts

TEST(PtImDist, SemilocalHamiltonianMatchesSerial) {
  // HamiltonianOptions::hybrid = false switches exact exchange off on every
  // layout, whatever PtImOptions::hybrid says: band runs follow the serial
  // (semilocal) trajectory and no step applies exchange.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 5;
  const int steps = 2;
  ham::HamiltonianOptions hopt;
  hopt.hybrid = false;
  const td::TdState init = initial_state(sys.sphere->npw(), nb);
  const dist::BlockLayout bands(nb, 2);
  const auto dipole = [&sys](const std::vector<real_t>& rho) {
    return td::dipole(rho, *sys.den_grid, {1.0, 0.0, 0.0});
  };
  for (const td::PtImVariant variant :
       {td::PtImVariant::kDiag, td::PtImVariant::kAce}) {
    const td::PtImOptions opt = ptim_options(variant);
    ASSERT_TRUE(opt.hybrid);
    ham::Hamiltonian hs(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                        *sys.den_grid, hopt);
    td::PtImPropagator ser_prop(hs, opt, nullptr);
    td::TdState ser = init;
    std::vector<real_t> ser_dipole;
    int ser_applies = 0;
    for (int i = 0; i < steps; ++i) {
      ser_applies += ser_prop.step(ser).exchange_applications;
      ser_dipole.push_back(dipole(ser_prop.space().density(ser)));
    }
    EXPECT_EQ(ser_applies, 0);

    td::TdState dst;
    std::vector<real_t> dst_dipole(steps, 0.0);
    std::vector<int> applies(2, -1);
    ptmpi::run_ranks(2, 1, [&](ptmpi::Comm& c) {
      ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                         *sys.den_grid, hopt);
      dist::BandDistributedHamiltonian bdh(c, h, nb);
      td::TdState s = td::scatter_state(init, bands, c.rank());
      td::PtImPropagator prop(bdh, opt, nullptr);
      int n = 0;
      for (int i = 0; i < steps; ++i) {
        n += prop.step(s).exchange_applications;
        const real_t d = dipole(prop.space().density(s));
        if (c.rank() == 0) dst_dipole[static_cast<size_t>(i)] = d;
      }
      applies[static_cast<size_t>(c.rank())] = n;
      const td::TdState full = prop.space().gather(s);
      if (c.rank() == 0) dst = full;
    });
    for (int r = 0; r < 2; ++r)
      EXPECT_EQ(applies[static_cast<size_t>(r)], 0) << "rank " << r;
    for (int i = 0; i < steps; ++i)
      EXPECT_NEAR(ser_dipole[static_cast<size_t>(i)],
                  dst_dipole[static_cast<size_t>(i)], kTol)
          << "step " << i;
    EXPECT_LT(la::frob_diff(ser.sigma, dst.sigma), kTol);
    EXPECT_LT(la::frob_diff(ser.phi, dst.phi), kTol);
  }
}

TEST(PtImDist, StagedProtocolMatchesStep) {
  // A band run driven from outside through step_begin, the band space's W
  // apply, step_advance and step_finish is bitwise the run step() drives.
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 7;
  const int p = 3, steps = 2;
  const td::TdState init = initial_state(sys.sphere->npw(), nb);
  const dist::BlockLayout bands(nb, p);
  const td::PtImOptions opt = ptim_options(td::PtImVariant::kAce);
  auto run = [&](bool staged) {
    std::pair<td::TdState, std::vector<td::PtImStepStats>> out;
    ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
      ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                         *sys.den_grid, ham::HamiltonianOptions{});
      dist::BandDistributedHamiltonian bdh(c, h, nb);
      td::TdState s = td::scatter_state(init, bands, c.rank());
      td::PtImPropagator prop(bdh, opt, nullptr);
      EXPECT_TRUE(prop.staged());
      std::vector<td::PtImStepStats> stats;
      for (int i = 0; i < steps; ++i) {
        if (!staged) {
          stats.push_back(prop.step(s));
          continue;
        }
        auto sess = prop.step_begin(s);
        la::MatC w;
        do {
          prop.space().exchange_diag(sess.ace_phi, sess.ace_occ, w);
        } while (prop.step_advance(s, sess, w));
        stats.push_back(prop.step_finish(s, sess));
      }
      const td::TdState full = prop.space().gather(s);
      if (c.rank() == 0) out = {full, stats};
    });
    return out;
  };
  const auto want = run(false);
  const auto got = run(true);
  EXPECT_EQ(la::frob_diff(got.first.phi, want.first.phi), 0.0);
  EXPECT_EQ(la::frob_diff(got.first.sigma, want.first.sigma), 0.0);
  for (int i = 0; i < steps; ++i) {
    const auto& a = got.second[static_cast<size_t>(i)];
    const auto& b = want.second[static_cast<size_t>(i)];
    EXPECT_EQ(a.scf_iterations, b.scf_iterations) << "step " << i;
    EXPECT_EQ(a.outer_iterations, b.outer_iterations) << "step " << i;
    EXPECT_EQ(a.exchange_applications, b.exchange_applications);
    EXPECT_GT(a.exchange_applications, 1) << "step " << i;
  }
}
