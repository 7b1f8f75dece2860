// Communication-pattern walkthrough (paper Fig. 5 + Fig. 6): runs the
// distributed Fock exchange with Bcast / Ring / Async-Ring orbital
// circulation over in-process thread ranks, verifies all three agree with
// the serial operator, and prints the per-op traffic each pattern
// generates — the observable behind Table I.

#include <algorithm>
#include <cstdio>

#include "dist/exchange_dist.hpp"
#include "dist/transpose.hpp"
#include "gs/scf.hpp"
#include "la/blas.hpp"

using namespace ptim;

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;

  // Small silicon-like system shared by all ranks.
  const real_t box = 8.0;
  grid::Lattice lattice = grid::Lattice::cubic(box);
  pseudo::AtomList atoms;
  atoms.species = pseudo::Species::silicon_ah();
  atoms.positions = {{0.8, 1.2, 1.6}, {4.8, 4.4, 5.2}};
  grid::GSphere sphere(lattice, 3.0);
  grid::FftGrid wfc(lattice, sphere.suggest_dims(1));
  grid::FftGrid den(lattice, sphere.suggest_dims(2));
  ham::Hamiltonian h(lattice, atoms, sphere, wfc, den, {});

  gs::ScfOptions scf;
  scf.nbands = 8;
  scf.nelec = 8.0;
  scf.temperature_k = 8000.0;
  const auto gs = gs::ground_state(h, scf);
  std::printf("system: %zu plane waves, %zu orbitals, %d thread ranks\n",
              sphere.npw(), gs.phi.cols(), ranks);

  pw::SphereGridMap map(sphere, wfc);
  ham::ExchangeOperator xop(map, {});
  la::MatC serial(gs.phi.rows(), gs.phi.cols());
  xop.apply_diag(gs.phi, gs.occ, gs.phi, serial);

  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    const dist::BlockLayout bands(gs.phi.cols(), ranks);
    std::vector<la::MatC> blocks(static_cast<size_t>(ranks));
    ptmpi::run_ranks(ranks, 2, [&](ptmpi::Comm& c) {
      blocks[static_cast<size_t>(c.rank())] = dist::exchange_apply_distributed(
          c, xop, gs.phi, gs.occ, gs.phi, pat);
    });

    // Verify against the serial operator.
    real_t max_err = 0.0;
    for (int r = 0; r < ranks; ++r)
      for (size_t b = 0; b < bands.count(r); ++b)
        for (size_t i = 0; i < gs.phi.rows(); ++i)
          max_err = std::max(max_err,
                             std::abs(blocks[static_cast<size_t>(r)](i, b) -
                                      serial(i, bands.offset(r) + b)));

    std::printf("\npattern %-9s  max |err vs serial| = %.2e\n",
                dist::pattern_name(pat), max_err);
    std::printf("  %-12s %8s %14s\n", "MPI op", "calls", "bytes (rank 0)");
    for (const auto& [op, st] : ptmpi::last_run_stats()[0].ops)
      std::printf("  %-12s %8ld %14lld\n", op.c_str(), st.calls, st.bytes);
  }

  // Fig. 6: the SHM-backed overlap reduction.
  std::printf("\nFig. 6 demo: distributed overlap S = Phi^H Phi with and "
              "without node-shared memory\n");
  const dist::BlockLayout rows(gs.phi.rows(), ranks);
  for (const bool shm : {false, true}) {
    la::MatC result;
    ptmpi::run_ranks(ranks, 2, [&](ptmpi::Comm& c) {
      la::MatC mine(rows.count(c.rank()), gs.phi.cols());
      for (size_t j = 0; j < gs.phi.cols(); ++j)
        for (size_t i = 0; i < rows.count(c.rank()); ++i)
          mine(i, j) = gs.phi(rows.offset(c.rank()) + i, j);
      // The node communicator: this communicator's ranks on the node.
      ptmpi::Comm node = c.split(c.node(), c.rank());
      la::MatC s =
          dist::overlap_distributed(c, mine, mine, shm ? &node : nullptr);
      if (c.rank() == 0) result = std::move(s);
    });
    real_t defect = 0.0;  // ground-state orbitals are orthonormal
    for (size_t j = 0; j < result.cols(); ++j)
      for (size_t i = 0; i < result.rows(); ++i)
        defect = std::max(defect, std::abs(result(i, j) -
                                           (i == j ? cplx(1.0) : cplx(0.0))));
    std::printf("  use_shm=%d: ||S - I||_max = %.2e, allreduce calls = %ld\n",
                shm, defect,
                ptmpi::last_run_stats()[0].ops.at("Allreduce").calls);
  }
  return 0;
}
