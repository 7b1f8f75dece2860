// 2-D band x grid decomposition: Comm::split semantics (contexts,
// determinism, nesting, SHM), the distributed slab FFT and its pencil
// transpose (bitwise-identical to the serial engine, round trips on uneven
// and zero-row decompositions), and the slab-aware exchange — pinned
// bit-identical to the serial operator at pb = 1 and to the 1-D
// band-parallel operator at fixed pb, for all three circulation patterns
// x {FP64, FP32} on non-divisible band and grid counts. Also pins the
// pg-fold reduction of per-rank ring bytes, and that a 2-D PT-IM-ACE step
// shares no occupations.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dist/band_ham.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/rotate.hpp"
#include "dist/slab_exchange.hpp"
#include "fft/dist_fft.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"
#include "obs/obs.hpp"
#include "ptmpi/comm.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

// ----------------------------------------------------------- Comm::split --

TEST(CommSplit, RowColumnLayout) {
  const dist::ProcessGrid pg{2, 3};
  ptmpi::run_ranks(6, 2, [&](ptmpi::Comm& c) {
    const int br = pg.band_rank_of(c.rank());
    const int gr = pg.grid_rank_of(c.rank());
    ptmpi::Comm band = c.split(/*color=*/gr, /*key=*/br);
    ptmpi::Comm grid = c.split(/*color=*/br, /*key=*/gr);
    EXPECT_EQ(band.size(), 2);
    EXPECT_EQ(grid.size(), 3);
    EXPECT_EQ(band.rank(), br);
    EXPECT_EQ(grid.rank(), gr);
    EXPECT_EQ(band.world_rank(), c.rank());
    EXPECT_EQ(grid.world_rank(), c.rank());
  });
}

TEST(CommSplit, KeyOrderingAndTies) {
  // Reversed keys reverse the ranks; equal keys fall back to parent order.
  ptmpi::run_ranks(5, 2, [&](ptmpi::Comm& c) {
    ptmpi::Comm rev = c.split(0, /*key=*/-c.rank());
    EXPECT_EQ(rev.rank(), c.size() - 1 - c.rank());
    ptmpi::Comm tie = c.split(0, /*key=*/7);
    EXPECT_EQ(tie.rank(), c.rank());
  });
}

TEST(CommSplit, MessageContextsAreIsolated) {
  // The same (peer, tag) is in flight on the parent and on a subcomm at
  // once; matching by context keeps the payloads apart.
  ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
    ptmpi::Comm sub = c.split(c.rank() % 2, c.rank());  // {0,2} and {1,3}
    const int wpeer = c.rank() ^ 2;                     // world partner
    const int speer = sub.rank() ^ 1;                   // subcomm partner
    const int tag = 42;
    double wsend = 100.0 + c.rank(), wrecv = 0.0;
    double ssend = 200.0 + c.rank(), srecv = 0.0;
    // Post the world send first, then the subcomm exchange, then complete
    // the world receive: a context-blind matcher would cross the streams.
    ptmpi::Request rs = c.isend(wpeer, &wsend, sizeof(double), tag);
    sub.sendrecv(speer, &ssend, sizeof(double), speer, &srecv, sizeof(double),
                 tag);
    c.recv(wpeer, &wrecv, sizeof(double), tag);
    c.wait(rs);
    EXPECT_EQ(wrecv, 100.0 + wpeer);
    // The subcomm partner of rank r is world rank r ^ 2 as well — the same
    // peer, same tag, different context; only the payloads tell them apart.
    EXPECT_EQ(srecv, 200.0 + (c.rank() ^ 2));
  });
}

TEST(CommSplit, SubcommAllreduceDeterministicAndRankOrdered) {
  const int p = 6;
  const dist::ProcessGrid pg{2, 3};
  std::vector<std::vector<real_t>> results(p);
  ptmpi::run_ranks(p, 3, [&](ptmpi::Comm& c) {
    ptmpi::Comm band = c.split(pg.grid_rank_of(c.rank()),
                               pg.band_rank_of(c.rank()));
    // Contribution depends on the world rank so the reference is exact.
    std::vector<real_t> v(64);
    Rng rng(1000u + static_cast<unsigned>(c.rank()));
    for (auto& x : v) x = rng.uniform() - 0.5;
    band.allreduce_sum(v.data(), v.size());
    results[static_cast<size_t>(c.rank())] = v;
  });
  // Reference: sum in band-communicator rank order (band rank = world/3).
  for (int gr = 0; gr < 3; ++gr) {
    std::vector<real_t> ref(64, 0.0);
    for (int br = 0; br < 2; ++br) {
      std::vector<real_t> v(64);
      Rng rng(1000u + static_cast<unsigned>(br * 3 + gr));
      for (auto& x : v) x = rng.uniform() - 0.5;
      for (size_t i = 0; i < ref.size(); ++i) ref[i] += v[i];
    }
    for (int br = 0; br < 2; ++br)
      for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(results[static_cast<size_t>(br * 3 + gr)][i], ref[i])
            << "col " << gr << " row " << br << " i " << i;
  }
}

TEST(CommSplit, NestedSplitAndShmWindowsAreScoped) {
  // world -> rows -> pairs; the same window name on different communicators
  // must yield distinct storage, and reuse within one communicator must
  // yield the same storage.
  ptmpi::run_ranks(8, 8, [&](ptmpi::Comm& c) {
    ptmpi::Comm row = c.split(c.rank() / 4, c.rank());   // two rows of 4
    ptmpi::Comm pair = row.split(row.rank() / 2, row.rank());  // pairs
    EXPECT_EQ(row.size(), 4);
    EXPECT_EQ(pair.size(), 2);

    cplx* w_row = row.shm_allocate("win", 8);
    cplx* w_pair = pair.shm_allocate("win", 8);
    EXPECT_NE(w_row, w_pair);
    // Same communicator, same name: same window.
    EXPECT_EQ(row.shm_allocate("win", 8), w_row);

    if (row.rank() == 0) w_row[0] = cplx(static_cast<real_t>(c.rank()), 0.0);
    if (pair.rank() == 0) w_pair[1] = cplx(0.0, static_cast<real_t>(c.rank()));
    row.barrier();
    pair.barrier();
    // Row window written by the row leader (world rank 0 or 4).
    EXPECT_EQ(std::real(w_row[0]), static_cast<real_t>((c.rank() / 4) * 4));
    // Pair window written by the pair leader.
    EXPECT_EQ(std::imag(w_pair[1]),
              static_cast<real_t>((c.rank() / 2) * 2));
  });
}

TEST(CommSplit, RandomizedPartitionsMatchReference) {
  for (const unsigned seed : {7u, 8u, 9u}) {
    const int p = 7;
    Rng rng(seed);
    std::vector<int> colors(p), keys(p);
    for (int r = 0; r < p; ++r) {
      colors[static_cast<size_t>(r)] = static_cast<int>(rng.uniform() * 3);
      keys[static_cast<size_t>(r)] = static_cast<int>(rng.uniform() * 5);
    }
    // Reference ranks: stable (key, parent-rank) order within a color.
    std::map<int, std::vector<std::pair<int, int>>> by_color;
    for (int r = 0; r < p; ++r)
      by_color[colors[static_cast<size_t>(r)]].push_back(
          {keys[static_cast<size_t>(r)], r});
    for (auto& [col, v] : by_color) std::sort(v.begin(), v.end());

    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      const int col = colors[static_cast<size_t>(c.rank())];
      ptmpi::Comm sub =
          c.split(col, keys[static_cast<size_t>(c.rank())]);
      const auto& members = by_color[col];
      ASSERT_EQ(sub.size(), static_cast<int>(members.size()));
      const auto me = std::find_if(
          members.begin(), members.end(),
          [&](const auto& kv) { return kv.second == c.rank(); });
      EXPECT_EQ(sub.rank(), static_cast<int>(me - members.begin()));
      // A ring exchange around the subcomm proves the membership is live.
      const int next = (sub.rank() + 1) % sub.size();
      const int prev = (sub.rank() - 1 + sub.size()) % sub.size();
      int token = c.rank(), got = -1;
      sub.sendrecv(next, &token, sizeof(int), prev, &got, sizeof(int), 5);
      EXPECT_EQ(got, members[static_cast<size_t>(prev)].second);
    });
  }
}

// ------------------------------------------------------------- DistFft3 --

namespace {

template <typename R>
std::vector<std::complex<R>> random_box(size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<std::complex<R>> v(n);
  for (auto& x : v)
    x = std::complex<R>(static_cast<R>(rng.uniform() - 0.5),
                        static_cast<R>(rng.uniform() - 0.5));
  return v;
}

// Slice `full` (nbatch arrays over the whole box) into this rank's z slab.
template <typename C>
std::vector<C> slice_slab(const std::vector<C>& full,
                          const std::array<size_t, 3>& d,
                          const dist::BlockLayout& z, int r, size_t nbatch) {
  const size_t plane = d[0] * d[1];
  const size_t ng = plane * d[2];
  std::vector<C> out(nbatch * plane * z.count(r));
  size_t w = 0;
  for (size_t b = 0; b < nbatch; ++b)
    for (size_t zz = z.offset(r); zz < z.offset(r) + z.count(r); ++zz)
      for (size_t i = 0; i < plane; ++i)
        out[w++] = full[b * ng + zz * plane + i];
  return out;
}

// Slice into this rank's y pencil (full i0, owned i1 rows, full i2).
template <typename C>
std::vector<C> slice_pencil(const std::vector<C>& full,
                            const std::array<size_t, 3>& d,
                            const dist::BlockLayout& y, int r, size_t nbatch) {
  const size_t ng = d[0] * d[1] * d[2];
  std::vector<C> out(nbatch * d[0] * y.count(r) * d[2]);
  size_t w = 0;
  for (size_t b = 0; b < nbatch; ++b)
    for (size_t i2 = 0; i2 < d[2]; ++i2)
      for (size_t i1 = y.offset(r); i1 < y.offset(r) + y.count(r); ++i1)
        for (size_t i0 = 0; i0 < d[0]; ++i0)
          out[w++] = full[b * ng + i0 + d[0] * (i1 + d[1] * i2)];
  return out;
}

template <typename R>
void expect_bitwise(const std::vector<std::complex<R>>& a,
                    const std::vector<std::complex<R>>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << " element " << i;
}

// Forward + inverse through DistFft3 over pg ranks must be bitwise equal
// to the serial Fft3T at every decomposition, including zero-row ranks.
template <typename R>
void check_dist_fft_bitwise(std::array<size_t, 3> dims, int pg,
                            size_t nbatch, unsigned seed) {
  using C = std::complex<R>;
  const size_t ng = dims[0] * dims[1] * dims[2];
  const std::vector<C> input = random_box<R>(nbatch * ng, seed);

  // Serial reference: forward, then the scaled inverse of the spectrum.
  std::vector<C> fwd = input;
  fft::Fft3T<R> serial(dims[0], dims[1], dims[2]);
  serial.forward_batch(fwd.data(), nbatch);
  std::vector<C> inv = fwd;
  serial.inverse_batch(inv.data(), nbatch);

  ptmpi::run_ranks(pg, 2, [&](ptmpi::Comm& c) {
    fft::DistFft3T<R> f(dims, c);
    const auto slab =
        slice_slab(input, dims, f.zslabs(), c.rank(), nbatch);
    std::vector<C> pencil(nbatch * f.npencil());
    f.forward(slab.data(), pencil.data(), nbatch);
    expect_bitwise<R>(pencil,
                      slice_pencil(fwd, dims, f.yrows(), c.rank(), nbatch),
                      "forward pencil");

    std::vector<C> back(nbatch * f.nreal());
    f.inverse(pencil.data(), back.data(), nbatch);
    expect_bitwise<R>(back, slice_slab(inv, dims, f.zslabs(), c.rank(),
                                       nbatch),
                      "inverse slab");
  });
}

}  // namespace

TEST(DistFft3, BitwiseMatchesSerialFp64) {
  for (const int pg : {2, 3, 4})
    check_dist_fft_bitwise<double>({6, 5, 7}, pg, 1,
                                   11u + static_cast<unsigned>(pg));
}

TEST(DistFft3, BitwiseMatchesSerialFp32) {
  for (const int pg : {2, 3, 4})
    check_dist_fft_bitwise<float>({6, 5, 7}, pg, 1,
                                  21u + static_cast<unsigned>(pg));
}

TEST(DistFft3, BatchedTransposeSharesOneAlltoallv) {
  // Batched transforms are bitwise equal to singles AND pack the whole
  // batch into one Alltoallv per transpose.
  const std::array<size_t, 3> dims{4, 6, 5};
  const size_t ng = dims[0] * dims[1] * dims[2];
  const size_t nbatch = 3;
  const auto input = random_box<double>(nbatch * ng, 33u);
  check_dist_fft_bitwise<double>(dims, 3, nbatch, 33u);

  ptmpi::run_ranks(3, 2, [&](ptmpi::Comm& c) {
    fft::DistFft3 f(dims, c);
    const auto slab = slice_slab(input, dims, f.zslabs(), c.rank(), nbatch);
    std::vector<cplx> pen_batch(nbatch * f.npencil());
    const long long calls0 = c.stats().ops["Alltoallv"].calls;
    f.forward(slab.data(), pen_batch.data(), nbatch);
    EXPECT_EQ(c.stats().ops["Alltoallv"].calls, calls0 + 1);

    // Per-array singles agree bitwise with the batch.
    for (size_t b = 0; b < nbatch; ++b) {
      std::vector<cplx> one(f.nreal());
      std::copy(slab.begin() + static_cast<long>(b * f.nreal()),
                slab.begin() + static_cast<long>((b + 1) * f.nreal()),
                one.begin());
      std::vector<cplx> pen(f.npencil());
      f.forward(one.data(), pen.data(), 1);
      for (size_t i = 0; i < pen.size(); ++i)
        EXPECT_EQ(pen[i], pen_batch[b * f.npencil() + i]);
    }
  });
}

TEST(DistFft3, ZeroRowRanksRoundTrip) {
  // pg exceeds both nz and ny: several ranks own no z planes and/or no y
  // rows; their Alltoallv rows are empty but the transform must still be
  // exact (and bitwise serial).
  check_dist_fft_bitwise<double>({4, 2, 3}, 5, 1, 44u);
  check_dist_fft_bitwise<double>({4, 3, 2}, 6, 2, 45u);
  check_dist_fft_bitwise<float>({4, 2, 3}, 5, 1, 46u);
}

TEST(DistFft3, RandomizedUnevenDecompositions) {
  Rng rng(77u);
  for (int trial = 0; trial < 4; ++trial) {
    const std::array<size_t, 3> dims{
        2 + static_cast<size_t>(rng.uniform() * 4),
        2 + static_cast<size_t>(rng.uniform() * 4),
        2 + static_cast<size_t>(rng.uniform() * 4)};
    if (!fft::fft_size_ok(dims[0]) || !fft::fft_size_ok(dims[1]) ||
        !fft::fft_size_ok(dims[2]))
      continue;
    const int pg = 2 + static_cast<int>(rng.uniform() * 4);
    check_dist_fft_bitwise<double>(dims, pg,
                                   1 + static_cast<size_t>(trial % 2),
                                   100u + static_cast<unsigned>(trial));
  }
}

// ------------------------------------------------------- slab exchange --

namespace {

struct XEnv {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
};

// 2-D slab exchange over pb x pg ranks; returns one output block per band
// row (and asserts all grid columns of a row agree bitwise).
std::vector<la::MatC> run_slab_diag(const XEnv& e, dist::ProcessGrid pgrid,
                                    Precision prec, dist::ExchangePattern pat,
                                    const la::MatC& src,
                                    const std::vector<real_t>& d,
                                    const la::MatC& tgt,
                                    bool gamma_real = false) {
  ham::ExchangeOptions opt;
  opt.precision = prec;
  opt.gamma_real = gamma_real;
  ham::ExchangeOperator xop(e.map, opt);
  const int nranks = pgrid.resolve_pb(pgrid.pb * pgrid.pg) * pgrid.pg;
  const dist::BlockLayout bands(src.cols(), pgrid.pb);
  const dist::BlockLayout tb(tgt.cols(), pgrid.pb);
  std::vector<la::MatC> blocks(static_cast<size_t>(nranks));
  ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
    dist::GridContext gc(c, pgrid, e.map);
    const int br = pgrid.band_rank_of(c.rank());
    blocks[static_cast<size_t>(c.rank())] = dist::exchange_apply_slab_local(
        gc, xop, dist::scatter_bands(src, bands, br), d,
        dist::scatter_bands(tgt, tb, br), bands, pat);
  });
  // Columns of one band row must agree bitwise; return column 0's blocks.
  std::vector<la::MatC> rows(static_cast<size_t>(pgrid.pb));
  for (int r = 0; r < nranks; ++r) {
    const int br = pgrid.band_rank_of(r);
    if (pgrid.grid_rank_of(r) == 0)
      rows[static_cast<size_t>(br)] = blocks[static_cast<size_t>(r)];
    else
      EXPECT_EQ(la::frob_diff(blocks[static_cast<size_t>(r)],
                              rows[static_cast<size_t>(br)]),
                0.0)
          << "column disagreement, world rank " << r;
  }
  return rows;
}

std::vector<la::MatC> run_slab_mixed(const XEnv& e, dist::ProcessGrid pgrid,
                                     Precision prec, dist::ExchangePattern pat,
                                     const la::MatC& src,
                                     const la::MatC& theta,
                                     const la::MatC& tgt,
                                     bool gamma_real = false) {
  ham::ExchangeOptions opt;
  opt.precision = prec;
  opt.gamma_real = gamma_real;
  ham::ExchangeOperator xop(e.map, opt);
  const int nranks = pgrid.pb * pgrid.pg;
  const dist::BlockLayout bands(src.cols(), pgrid.pb);
  const dist::BlockLayout tb(tgt.cols(), pgrid.pb);
  std::vector<la::MatC> blocks(static_cast<size_t>(nranks));
  ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
    dist::GridContext gc(c, pgrid, e.map);
    const int br = pgrid.band_rank_of(c.rank());
    blocks[static_cast<size_t>(c.rank())] =
        dist::exchange_apply_slab_mixed_local(
            gc, xop, dist::scatter_bands(src, bands, br),
            dist::scatter_bands(theta, bands, br),
            dist::scatter_bands(tgt, tb, br), bands, pat);
  });
  std::vector<la::MatC> rows(static_cast<size_t>(pgrid.pb));
  for (int r = 0; r < nranks; ++r) {
    const int br = pgrid.band_rank_of(r);
    if (pgrid.grid_rank_of(r) == 0)
      rows[static_cast<size_t>(br)] = blocks[static_cast<size_t>(r)];
    else
      EXPECT_EQ(la::frob_diff(blocks[static_cast<size_t>(r)],
                              rows[static_cast<size_t>(br)]),
                0.0);
  }
  return rows;
}

// 1-D band-parallel reference blocks.
std::vector<la::MatC> run_band_diag(const XEnv& e, Precision prec,
                                    dist::ExchangePattern pat, int pb,
                                    const la::MatC& src,
                                    const std::vector<real_t>& d,
                                    const la::MatC& tgt) {
  ham::ExchangeOptions opt;
  opt.precision = prec;
  ham::ExchangeOperator xop(e.map, opt);
  const dist::BlockLayout bands(src.cols(), pb);
  std::vector<la::MatC> blocks(static_cast<size_t>(pb));
  ptmpi::run_ranks(pb, 2, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    blocks[static_cast<size_t>(me)] = dist::exchange_apply_distributed_local(
        c, xop, dist::scatter_bands(src, bands, me), d,
        dist::scatter_bands(tgt, bands, me), bands, pat);
  });
  return blocks;
}

}  // namespace

TEST(SlabExchange, Pb1MatchesSerialOperatorBitwise) {
  // pb = 1: the single band round visits every source in serial order, so
  // any pg must reproduce the SERIAL operator bit-for-bit — the anchor of
  // the 2-D correctness story. Swept over pattern x precision.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC src = test::random_orbitals(npw, nb, 510);
  const la::MatC tgt = test::random_orbitals(npw, 3, 511);
  const std::vector<real_t> d{1.0, 0.8, 0.45, 0.0, 0.1};

  for (const Precision prec :
       {Precision::kDouble, Precision::kSingle,
        Precision::kSingleCompensated}) {
    ham::ExchangeOptions sopt;
    sopt.precision = prec;
    ham::ExchangeOperator serial_op(e.map, sopt);
    la::MatC ref(npw, tgt.cols());
    serial_op.apply_diag(src, d, tgt, ref);

    for (const int pg : {2, 3}) {
      for (const auto pat :
           {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
            dist::ExchangePattern::kAsyncRing}) {
        const auto rows =
            run_slab_diag(e, dist::ProcessGrid{1, pg}, prec, pat, src, d, tgt);
        EXPECT_EQ(la::frob_diff(rows[0], ref), 0.0)
            << "pg=" << pg << " pat=" << dist::pattern_name(pat)
            << " prec=" << precision_name(prec);
      }
    }
  }
}

TEST(SlabExchange, TwoDMatchesBandParallelBitwise) {
  // Fixed pb = 2 with non-divisible band count (5) and non-divisible grid
  // dims: pg in {2, 3} must agree bitwise with the pg = 1 band-parallel
  // operator for every pattern and precision.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC src = test::random_orbitals(npw, nb, 520);
  const la::MatC tgt = test::random_orbitals(npw, nb, 521);
  const std::vector<real_t> d{1.0, 0.85, 0.6, 0.0, 0.2};

  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    for (const Precision prec : {Precision::kDouble, Precision::kSingle}) {
      const auto ref = run_band_diag(e, prec, pat, 2, src, d, tgt);
      for (const int pg : {2, 3}) {
        const auto rows =
            run_slab_diag(e, dist::ProcessGrid{2, pg}, prec, pat, src, d, tgt);
        for (int br = 0; br < 2; ++br)
          EXPECT_EQ(la::frob_diff(rows[static_cast<size_t>(br)],
                                  ref[static_cast<size_t>(br)]),
                    0.0)
              << "pg=" << pg << " pat=" << dist::pattern_name(pat)
              << " prec=" << precision_name(prec) << " row=" << br;
      }
    }
  }
}

TEST(SlabExchange, MixedWeightedPathMatchesBandParallel) {
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC src = test::random_orbitals(npw, nb, 530);
  const la::MatC sigma = test::random_occupation_matrix(nb, 531);
  la::MatC theta(npw, nb);
  la::gemm_nn(src, sigma, theta);
  const la::MatC tgt = test::random_orbitals(npw, 4, 532);

  // One-rank band circulation: the reference for the pb = 1 anchor.
  ham::ExchangeOperator serial_op(e.map, {});
  la::MatC ref_serial;
  ptmpi::run_ranks(1, 2, [&](ptmpi::Comm& c) {
    ref_serial = dist::exchange_apply_distributed_mixed_local(
        c, serial_op, src, theta, tgt, dist::BlockLayout(nb, 1),
        dist::ExchangePattern::kRing);
  });
  {
    const auto rows =
        run_slab_mixed(e, dist::ProcessGrid{1, 3}, Precision::kDouble,
                       dist::ExchangePattern::kRing, src, theta, tgt);
    EXPECT_EQ(la::frob_diff(rows[0], ref_serial), 0.0);
  }

  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kAsyncRing}) {
    for (const Precision prec : {Precision::kDouble, Precision::kSingle}) {
      ham::ExchangeOptions opt;
      opt.precision = prec;
      ham::ExchangeOperator xop(e.map, opt);
      const dist::BlockLayout bands(nb, 2);
      const dist::BlockLayout tb(tgt.cols(), 2);
      std::vector<la::MatC> ref(2);
      ptmpi::run_ranks(2, 2, [&](ptmpi::Comm& c) {
        const int me = c.rank();
        ref[static_cast<size_t>(me)] =
            dist::exchange_apply_distributed_mixed_local(
                c, xop, dist::scatter_bands(src, bands, me),
                dist::scatter_bands(theta, bands, me),
                dist::scatter_bands(tgt, tb, me), bands, pat);
      });
      const auto rows = run_slab_mixed(e, dist::ProcessGrid{2, 2}, prec, pat,
                                       src, theta, tgt);
      for (int br = 0; br < 2; ++br)
        EXPECT_EQ(la::frob_diff(rows[static_cast<size_t>(br)],
                                ref[static_cast<size_t>(br)]),
                  0.0)
            << dist::pattern_name(pat) << " prec=" << precision_name(prec)
            << " row=" << br;
    }
  }
}

TEST(SlabExchange, GammaRealFlagLeavesTwoDBitwise) {
  // 2-D applies never take the Γ-point path: a vote over the band
  // communicator could not bind the grid communicator's slab-FFT
  // collectives. With REAL orbitals (and a real theta) on a 2x2 layout,
  // gamma_real on and off give the same bits, for the occupation- and the
  // theta-weighted kinds.
  XEnv e;
  const size_t nb = 5;
  const la::MatC src = test::random_real_orbitals(e.map, nb, 550);
  const la::MatC tgt = test::random_real_orbitals(e.map, 4, 551);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.3, 0.1};
  const la::MatC occ = test::random_occupation_matrix(nb, 552);
  la::MatC sigma(nb, nb);  // real symmetric, so theta stays real
  for (size_t i = 0; i < sigma.size(); ++i)
    sigma.data()[i] = std::real(occ.data()[i]);
  la::MatC theta(src.rows(), nb);
  la::gemm_nn(src, sigma, theta);

  const dist::ProcessGrid pgrid{2, 2};
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    for (const Precision prec : {Precision::kDouble, Precision::kSingle}) {
      const auto diag_off = run_slab_diag(e, pgrid, prec, pat, src, d, tgt);
      const auto diag_on =
          run_slab_diag(e, pgrid, prec, pat, src, d, tgt, /*gamma=*/true);
      const auto mixed_off =
          run_slab_mixed(e, pgrid, prec, pat, src, theta, tgt);
      const auto mixed_on = run_slab_mixed(e, pgrid, prec, pat, src, theta,
                                           tgt, /*gamma=*/true);
      for (size_t br = 0; br < 2; ++br) {
        EXPECT_EQ(la::frob_diff(diag_on[br], diag_off[br]), 0.0)
            << dist::pattern_name(pat) << " prec=" << precision_name(prec)
            << " row=" << br;
        EXPECT_EQ(la::frob_diff(mixed_on[br], mixed_off[br]), 0.0)
            << dist::pattern_name(pat) << " prec=" << precision_name(prec)
            << " row=" << br;
      }
    }
  }
}

TEST(SlabExchange, GridDimensionReducesRingBytes) {
  // At equal total ranks (4), pb=2 x pg=2 circulates z-slab portions
  // instead of whole-grid slabs: the per-rank ring payload (Sendrecv +
  // Wait + Bcast bytes) must shrink versus pb=4 x pg=1.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 6;
  const la::MatC src = test::random_orbitals(npw, nb, 540);
  const la::MatC tgt = test::random_orbitals(npw, nb, 541);
  std::vector<real_t> d(nb, 0.5);

  auto ring_bytes = [](int world_rank) {
    long long b = 0;
    const auto& ops = ptmpi::last_run_stats()[static_cast<size_t>(world_rank)]
                          .ops;
    for (const char* op : {"Sendrecv", "Wait", "Bcast"}) {
      const auto it = ops.find(op);
      if (it != ops.end()) b += it->second.bytes;
    }
    return b;
  };

  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    (void)run_band_diag(e, Precision::kDouble, pat, 4, src, d, tgt);
    const long long bytes_1d = ring_bytes(0);
    (void)run_slab_diag(e, dist::ProcessGrid{2, 2}, Precision::kDouble, pat,
                        src, d, tgt);
    const long long bytes_2d = ring_bytes(0);
    EXPECT_LT(bytes_2d, bytes_1d) << dist::pattern_name(pat);
    EXPECT_GT(bytes_2d, 0) << dist::pattern_name(pat);
  }
}

TEST(SlabExchange, RecordsExchangePhaseSpansOnEveryRank) {
  // A traced 2x2 slab apply records the same exchange phases as a serial
  // or 1-D apply — pair forming, kernel filter, accumulation and gather —
  // on every rank, for the occupation- and the theta-weighted kinds.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC src = test::random_orbitals(npw, nb, 550);
  const la::MatC sigma = test::random_occupation_matrix(nb, 551);
  la::MatC theta(npw, nb);
  la::gemm_nn(src, sigma, theta);
  const la::MatC tgt = test::random_orbitals(npw, nb, 552);
  const std::vector<real_t> d{1.0, 0.7, 0.4, 0.2};
  const dist::ProcessGrid pgrid{2, 2};

  // Tracing window that cannot leak into later tests, even on failure.
  struct TraceWindow {
    TraceWindow() {
      obs::clear();
      obs::set_enabled(true);
    }
    ~TraceWindow() {
      obs::set_enabled(false);
      obs::clear();
    }
  };
  for (const bool weighted : {false, true}) {
    TraceWindow window;
    if (weighted)
      (void)run_slab_mixed(e, pgrid, Precision::kDouble,
                           dist::ExchangePattern::kRing, src, theta, tgt);
    else
      (void)run_slab_diag(e, pgrid, Precision::kDouble,
                          dist::ExchangePattern::kRing, src, d, tgt);
    for (int r = 0; r < 4; ++r) {
      std::set<std::string> names;
      for (const obs::Span& sp : obs::snapshot(r))
        names.insert(obs::name_of(sp.name_id));
      for (const char* want : {"xchg.pair_form", "xchg.kernel_filter",
                               "xchg.accumulate", "xchg.gather"})
        EXPECT_EQ(names.count(want), 1u)
            << want << " missing on rank " << r << " weighted=" << weighted;
    }
  }
}

TEST(SlabExchange, AceStepSharesNoOccupations) {
  // The 2-D layout hands the slab ring the replicated eigen-occupations of
  // every ACE build, like the 1-D one: a 2x2 band PT-IM-ACE step records no
  // Allgatherv on world rank 0 (band and grid traffic included).
  test::TinySystem sys = test::TinySystem::make(3.0);
  const size_t nb = 6;
  const dist::ProcessGrid pgrid{2, 2};
  td::TdState init;
  init.phi = test::random_orbitals(sys.sphere->npw(), nb, 560);
  init.sigma = test::random_occupation_matrix(nb, 561);
  const dist::BlockLayout bands(nb, pgrid.pb);
  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-7;
  opt.variant = td::PtImVariant::kAce;
  long gathers = -1;
  int applies = 0;
  ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
    ham::Hamiltonian h(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid,
                       *sys.den_grid, ham::HamiltonianOptions{});
    dist::BandHamOptions bopt;
    bopt.grid = pgrid;
    dist::BandDistributedHamiltonian bdh(c, h, nb, bopt);
    td::TdState s =
        td::scatter_state(init, bands, pgrid.band_rank_of(c.rank()));
    td::PtImPropagator prop(bdh, opt, nullptr);
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

TEST(SlabExchange, SlabFftTimerAccumulates) {
  // The slab-FFT seconds counter benches report must move when the
  // distributed transform runs.
  const std::array<size_t, 3> dims{4, 4, 4};
  ptmpi::run_ranks(2, 2, [&](ptmpi::Comm& c) {
    fft::DistFft3 f(dims, c);
    EXPECT_EQ(f.seconds(), 0.0);
    std::vector<cplx> slab(f.nreal(), cplx(1.0)), pen(f.npencil());
    f.forward(slab.data(), pen.data(), 1);
    EXPECT_GT(f.seconds(), 0.0);
    f.reset_seconds();
    EXPECT_EQ(f.seconds(), 0.0);
  });
}
