#include "dist/isdf_dist.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"

namespace ptim::dist {

namespace {

// Rank-local side of a band-parallel diag problem, shared by the point
// selection and the fit: the real-space active sources and targets of this
// rank plus the global counts and offsets every rank agrees on.
struct LocalProblem {
  la::MatC phi, phid;            // active local sources; phid = d * phi
  la::MatC tgt_real;             // local targets
  std::vector<size_t> act_glob;  // GLOBAL band index per active source
  std::vector<size_t> ntgt_r;    // target width of every rank
  size_t tgt_off = 0, ntgt_all = 0, na_all = 0;

  // No occupied source or no target on any rank: the null operator.
  bool null() const { return na_all == 0 || ntgt_all == 0; }
};

LocalProblem prepare(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                     const la::MatC& src_local,
                     const std::vector<real_t>& d_all,
                     const la::MatC& tgt_local, const BlockLayout& src_bands) {
  const int p = c.size();
  const int me = c.rank();
  PTIM_CHECK(src_bands.parts() == p);
  PTIM_CHECK(d_all.size() == src_bands.total());
  PTIM_CHECK(src_local.cols() == src_bands.count(me));
  const size_t ng = xop.map().grid().size();

  LocalProblem lp;
  lp.tgt_real = ham::isdf::to_real_policy(xop, tgt_local);

  // Per-rank target widths (targets need not follow src_bands — ACE
  // rebuilds apply onto a differently sliced block) and the global count.
  std::vector<real_t> wsend{static_cast<real_t>(lp.tgt_real.cols())};
  std::vector<real_t> wall(static_cast<size_t>(p));
  const std::vector<size_t> ones(static_cast<size_t>(p), 1);
  c.allgatherv(wsend.data(), 1, wall.data(), ones);
  lp.ntgt_r.resize(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    lp.ntgt_r[static_cast<size_t>(r)] =
        static_cast<size_t>(wall[static_cast<size_t>(r)] + 0.5);
    if (r < me) lp.tgt_off += lp.ntgt_r[static_cast<size_t>(r)];
    lp.ntgt_all += lp.ntgt_r[static_cast<size_t>(r)];
  }

  // Occupied bands by GLOBAL index: the global index selects the sketch
  // row, so every rank slices the same deterministic mixture matrix and
  // the partial band sums add up to the serial sketch.
  const size_t boff = src_bands.offset(me);
  std::vector<size_t> act_loc;
  for (size_t i = 0; i < src_local.cols(); ++i)
    if (d_all[boff + i] != 0.0) {
      act_loc.push_back(i);
      lp.act_glob.push_back(boff + i);
    }
  for (const real_t di : d_all)
    if (di != 0.0) ++lp.na_all;
  if (lp.null()) return lp;

  const la::MatC src_real = ham::isdf::to_real_policy(xop, src_local);
  const size_t na_loc = act_loc.size();
  lp.phi.resize(ng, na_loc);
  lp.phid.resize(ng, na_loc);
  for (size_t i = 0; i < na_loc; ++i) {
    const cplx* s = src_real.col(act_loc[i]);
    std::copy(s, s + ng, lp.phi.col(i));
    const real_t di = d_all[lp.act_glob[i]];
    cplx* pd = lp.phid.col(i);
    for (size_t r = 0; r < ng; ++r) pd[r] = di * s[r];
  }
  return lp;
}

// Randomized QRCP selection on the Allreduced sketch and quasi-density:
// band-sum partials -> deterministic Allreduce, so the selection inputs
// and hence the points are bitwise identical on every rank (the serial
// path computes the same sums as single GEMMs; serial vs distributed agree
// to rounding).
std::vector<size_t> select(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                           const LocalProblem& lp,
                           const std::vector<real_t>& d_all) {
  const size_t ng = xop.map().grid().size();
  const size_t na_loc = lp.act_glob.size();
  const size_t ntgt_loc = lp.tgt_real.cols();
  const size_t nmu =
      ham::isdf::rank(xop.isdf_rank_factor(), lp.na_all, lp.ntgt_all, ng);
  const size_t k = ham::isdf::sketch_width(nmu);
  const la::MatC r1 =
      ham::isdf::sketch_matrix(d_all.size(), k, ham::isdf::kSeedSources);
  const la::MatC r2 =
      ham::isdf::sketch_matrix(lp.ntgt_all, k, ham::isdf::kSeedTargets);
  la::MatC r1a(na_loc, k), r2l(ntgt_loc, k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < na_loc; ++i) r1a(i, j) = r1(lp.act_glob[i], j);
    for (size_t i = 0; i < ntgt_loc; ++i) r2l(i, j) = r2(lp.tgt_off + i, j);
  }

  la::MatC g1(ng, k, cplx(0.0)), g2(ng, k, cplx(0.0));
  if (na_loc > 0) la::gemm_nn(lp.phi, r1a, g1);
  if (ntgt_loc > 0) la::gemm_nn(lp.tgt_real, r2l, g2);
  std::vector<real_t> rho(ng, 0.0);
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < ng; ++r) {
    real_t s = 0.0;
    for (size_t i = 0; i < na_loc; ++i)
      s += std::abs(d_all[lp.act_glob[i]]) * std::norm(lp.phi(r, i));
    for (size_t j = 0; j < ntgt_loc; ++j) s += std::norm(lp.tgt_real(r, j));
    rho[r] = s;
  }
  c.allreduce_sum(g1.data(), g1.size());
  c.allreduce_sum(g2.data(), g2.size());
  c.allreduce_sum(rho.data(), rho.size());

  return ham::isdf::select_points(g1, g2, rho, nmu);
}

struct DistFit {
  ham::isdf::Fit fit;
  la::MatC tgt_pts;  // local targets sampled at the fit points (Nmu x nloc)
};

DistFit fit_distributed(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                        const la::MatC& src_local,
                        const std::vector<real_t>& d_all,
                        const la::MatC& tgt_local,
                        const BlockLayout& src_bands) {
  ScopedTimer t("isdf.fit_dist");
  const int p = c.size();
  const size_t ng = xop.map().grid().size();

  DistFit df;
  const LocalProblem lp =
      prepare(c, xop, src_local, d_all, tgt_local, src_bands);
  if (lp.null()) return df;  // null operator everywhere
  const size_t na_loc = lp.act_glob.size();
  const size_t ntgt_loc = lp.tgt_real.cols();

  // A held point set (rank-identical: every rank installed the same
  // collective selection) skips the sketch, its three Allreduces and the
  // QRCP.
  std::vector<size_t> points = xop.isdf_points().empty()
                                   ? select(c, xop, lp, d_all)
                                   : xop.isdf_points();
  const size_t nmu = points.size();

  // Interpolation-point values of the local bands, Allgathered over the
  // band communicator — Nmu x nb matrices, tiny next to any grid slab —
  // give every rank the normal-equation matrix A with rank-count-invariant
  // association.
  la::MatC p1(nmu, na_loc), p2(nmu, ntgt_loc);
  for (size_t i = 0; i < na_loc; ++i)
    for (size_t mu = 0; mu < nmu; ++mu) p1(mu, i) = lp.phi(points[mu], i);
  for (size_t j = 0; j < ntgt_loc; ++j)
    for (size_t mu = 0; mu < nmu; ++mu)
      p2(mu, j) = lp.tgt_real(points[mu], j);

  std::vector<size_t> cnt1(static_cast<size_t>(p));
  std::vector<size_t> cnt2(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    size_t na_r = 0;
    for (size_t i = 0; i < src_bands.count(r); ++i)
      if (d_all[src_bands.offset(r) + i] != 0.0) ++na_r;
    cnt1[static_cast<size_t>(r)] = nmu * na_r;
    cnt2[static_cast<size_t>(r)] = nmu * lp.ntgt_r[static_cast<size_t>(r)];
  }
  la::MatC p1g(nmu, lp.na_all), p2g(nmu, lp.ntgt_all);
  c.allgatherv(p1.data(), p1.size(), p1g.data(), cnt1);
  c.allgatherv(p2.data(), p2.size(), p2g.data(), cnt2);

  // A(mu, nu) = conj(c_src(r_mu, nu)) c_tgt(r_mu, nu): the Hadamard
  // product of the two point-value Grams.
  la::MatC s1(nmu, nmu), s2(nmu, nmu);
  la::gemm_nc(p1g, p1g, s1);
  la::gemm_nc(p2g, p2g, s2);
  la::MatC a(nmu, nmu);
  for (size_t i = 0; i < a.size(); ++i)
    a.data()[i] = std::conj(s1.data()[i]) * s2.data()[i];

  // Grid-resolved Gram blocks as Allreduced band-sum partials.
  la::MatC c_src(ng, nmu, cplx(0.0)), c_tgt(ng, nmu, cplx(0.0));
  la::MatC g(ng, nmu, cplx(0.0));
  if (na_loc > 0) {
    la::gemm_nc(lp.phi, p1, c_src);
    la::gemm_nc(lp.phid, p1, g);
  }
  if (ntgt_loc > 0) la::gemm_nc(lp.tgt_real, p2, c_tgt);
  c.allreduce_sum(c_src.data(), c_src.size());
  c.allreduce_sum(c_tgt.data(), c_tgt.size());
  c.allreduce_sum(g.data(), g.size());

  df.fit = ham::isdf::fit(xop, std::move(points), c_src, c_tgt, g, &a);
  df.tgt_pts = std::move(p2);
  return df;
}

}  // namespace

std::vector<size_t> isdf_select_distributed(ptmpi::Comm& c,
                                            const ham::ExchangeOperator& xop,
                                            const la::MatC& src_local,
                                            const std::vector<real_t>& d_all,
                                            const la::MatC& tgt_local,
                                            const BlockLayout& src_bands) {
  const LocalProblem lp =
      prepare(c, xop, src_local, d_all, tgt_local, src_bands);
  if (lp.null()) return {};
  return select(c, xop, lp, d_all);
}

ham::isdf::Fit isdf_fit_distributed(ptmpi::Comm& c,
                                    const ham::ExchangeOperator& xop,
                                    const la::MatC& src_local,
                                    const std::vector<real_t>& d_all,
                                    const la::MatC& tgt_local,
                                    const BlockLayout& src_bands) {
  return fit_distributed(c, xop, src_local, d_all, tgt_local, src_bands).fit;
}

la::MatC exchange_apply_isdf_local(ptmpi::Comm& c,
                                   const ham::ExchangeOperator& xop,
                                   const la::MatC& src_local,
                                   const std::vector<real_t>& d_all,
                                   const la::MatC& tgt_local,
                                   const BlockLayout& src_bands) {
  ScopedTimer t("exchange.isdf_dist");
  DistFit df = fit_distributed(c, xop, src_local, d_all, tgt_local, src_bands);
  la::MatC out(tgt_local.rows(), tgt_local.cols(), cplx(0.0));
  if (df.fit.points.empty()) return out;
  ham::isdf::apply(xop, df.fit, df.tgt_pts, out);
  return out;
}

}  // namespace ptim::dist
