#include "ham/isdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "ham/exchange.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/qr.hpp"

namespace ptim::ham::isdf {

namespace {

// Kahan-compensated FP64 add (componentwise over the complex parts), the
// same scheme as the dense accumulate stage.
inline void kahan_add(cplx& acc, cplx& comp, const cplx& term) {
  const cplx y = term - comp;
  const cplx t = acc + y;
  comp = (t - acc) - y;
  acc = t;
}

// Candidate pool for the QRCP: the top grid points by quasi-density. A
// factor-4 oversampling keeps the selection quality of the full-grid
// QRCP while bounding its cost at O(nmu^2 * ncand) — the QRCP is the
// fit's serial bottleneck, so the pool multiplier is the knob that trades
// selection quality against the wall-clock win over the dense path.
size_t candidate_count(size_t nmu, size_t ng) {
  return std::min(ng, std::max<size_t>(4 * nmu, 256));
}

}  // namespace

size_t rank(real_t rank_factor, size_t nsrc, size_t ntgt, size_t ng) {
  const real_t base = static_cast<real_t>(std::max(nsrc, ntgt));
  const size_t nmu = static_cast<size_t>(std::ceil(rank_factor * base));
  return std::min(ng, std::max<size_t>(1, nmu));
}

size_t sketch_width(size_t nmu) {
  return static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<real_t>(std::max<size_t>(1, nmu)))));
}

la::MatC sketch_matrix(size_t nbands, size_t k, std::uint64_t seed) {
  Rng rng(seed);
  la::MatC r(nbands, k);
  // Row-major draw order so the stream position of row i is a function of
  // (i, k) only, independent of how many bands a rank holds.
  for (size_t i = 0; i < nbands; ++i)
    for (size_t j = 0; j < k; ++j) r(i, j) = rng.uniform_cplx();
  return r;
}

std::vector<size_t> select_points(const la::MatC& g1, const la::MatC& g2,
                                  const std::vector<real_t>& rho, size_t nmu) {
  ScopedTimer t("isdf.select");
  const size_t ng = rho.size();
  PTIM_CHECK(g1.rows() == ng && g2.rows() == ng);
  PTIM_CHECK(nmu > 0 && nmu <= ng);
  const size_t k1 = g1.cols(), k2 = g2.cols();

  // Deterministic candidate ranking by weight; index breaks ties.
  std::vector<size_t> cand(ng);
  std::iota(cand.begin(), cand.end(), size_t(0));
  std::sort(cand.begin(), cand.end(), [&](size_t a, size_t b) {
    return rho[a] != rho[b] ? rho[a] > rho[b] : a < b;
  });
  cand.resize(candidate_count(nmu, ng));

  // M[(a,b), r] = conj(g1_a(r)) g2_b(r) sqrt(rho(r)) on the candidates:
  // the centroid-weighted sketch of the pair-density matrix.
  la::MatC m(k1 * k2, cand.size());
#pragma omp parallel for schedule(static)
  for (size_t c = 0; c < cand.size(); ++c) {
    const size_t r = cand[c];
    const real_t w = std::sqrt(std::max(rho[r], real_t(0)));
    cplx* mc = m.col(c);
    for (size_t b = 0; b < k2; ++b) {
      const cplx gb = g2(r, b) * w;
      for (size_t a = 0; a < k1; ++a) mc[a + b * k1] = std::conj(g1(r, a)) * gb;
    }
  }

  const la::PivotedQr qr = la::qr_column_pivot(std::move(m), nmu);
  PTIM_CHECK(qr.pivots.size() == nmu);
  std::vector<size_t> points(nmu);
  for (size_t i = 0; i < nmu; ++i) points[i] = cand[qr.pivots[i]];
  std::sort(points.begin(), points.end());
  return points;
}

Fit fit(const ExchangeOperator& x, std::vector<size_t> points,
        const la::MatC& c_src, const la::MatC& c_tgt, const la::MatC& g) {
  ScopedTimer t("isdf.fit");
  const size_t ng = x.map().grid().size();
  const size_t nmu = points.size();
  PTIM_CHECK(c_src.rows() == ng && c_src.cols() == nmu);
  PTIM_CHECK(c_tgt.rows() == ng && c_tgt.cols() == nmu);
  PTIM_CHECK(g.rows() == ng && g.cols() == nmu);

  Fit f;
  f.points = std::move(points);
  f.apply_mat.resize(ng, nmu);
  if (nmu == 0) return f;

  // Normal equations of the row-wise least squares: A(mu, nu) =
  // conj(c_src(r_mu, nu)) c_tgt(r_mu, nu), Hermitian PSD (a Hadamard
  // product of Gram matrices).
  la::MatC a(nmu, nmu);
  for (size_t nu = 0; nu < nmu; ++nu)
    for (size_t mu = 0; mu < nmu; ++mu)
      a(mu, nu) = std::conj(c_src(f.points[mu], nu)) * c_tgt(f.points[mu], nu);
  real_t trace = 0.0;
  for (size_t mu = 0; mu < nmu; ++mu) trace += std::real(a(mu, mu));
  if (!(trace > 0.0)) return f;  // zero sources or targets: null operator

  // RHS, transposed for the Cholesky solve: bh(nu, r) =
  // conj(B(r, nu)) with B = conj(c_src) (.) c_tgt.
  la::MatC bh(nmu, ng);
  Timer tsub;
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < ng; ++r)
    for (size_t nu = 0; nu < nmu; ++nu)
      bh(nu, r) = c_src(r, nu) * std::conj(c_tgt(r, nu));

  // Ridged Cholesky: the fit is rank-deficient whenever nmu exceeds the
  // pair-density rank, so regularize relative to the mean diagonal and
  // escalate on (rare) breakdown.
  ProfileRegistry::instance().add("isdf.fit.rhs", tsub.seconds());
  tsub = Timer();
  real_t ridge = 1e-12 * trace / static_cast<real_t>(nmu);
  la::MatC l;
  for (int attempt = 0;; ++attempt) {
    la::MatC ar = a;
    for (size_t mu = 0; mu < nmu; ++mu) ar(mu, mu) += ridge;
    try {
      l = la::cholesky(ar);
      break;
    } catch (const Error&) {
      PTIM_CHECK_MSG(attempt < 8, "ISDF fit: Cholesky breakdown persists");
      ridge *= 100.0;
    }
  }
  ProfileRegistry::instance().add("isdf.fit.chol", tsub.seconds());
  tsub = Timer();
  la::cholesky_solve(l, bh);  // bh <- A^-1 B^H, i.e. zeta^H
  ProfileRegistry::instance().add("isdf.fit.solve", tsub.seconds());
  tsub = Timer();

  // Kernel filter of zeta through the shared stage primitive, chunked by
  // the operator's batch width exactly like the dense pair pipeline (same
  // batched-FFT tiles, same FFT bookkeeping, FP32 under the policy). The
  // conj-transpose of the solve output, the filter and the Ng w (.) g
  // scale (the Ng undoes the inverse-FFT scaling, the same
  // unscaled-synthesis convention as the dense accumulate stage) are fused
  // per batch so only one batch-wide scratch tile stays hot.
  const size_t bs = std::max<size_t>(1, x.batch_size());
  const bool fp32 = x.precision() != Precision::kDouble;
  const real_t scale = static_cast<real_t>(ng);
  la::MatC w(ng, std::min(bs, nmu));
  std::vector<cplxf> blockf(fp32 ? bs * ng : 0);
  for (size_t mu0 = 0; mu0 < nmu; mu0 += bs) {
    const size_t nb = std::min(bs, nmu - mu0);
    if (fp32) {
#pragma omp parallel for schedule(static)
      for (size_t mu = 0; mu < nb; ++mu)
        for (size_t r = 0; r < ng; ++r)
          blockf[mu * ng + r] = static_cast<cplxf>(std::conj(bh(mu0 + mu, r)));
      x.kernel_filter_block(blockf.data(), nb);
#pragma omp parallel for schedule(static)
      for (size_t i = 0; i < nb * ng; ++i)
        w.data()[i] = static_cast<cplx>(blockf[i]);
    } else {
#pragma omp parallel for schedule(static)
      for (size_t mu = 0; mu < nb; ++mu)
        for (size_t r = 0; r < ng; ++r)
          w.col(mu)[r] = std::conj(bh(mu0 + mu, r));
      x.kernel_filter_block(w.data(), nb);
    }
#pragma omp parallel for schedule(static)
    for (size_t i = 0; i < nb * ng; ++i)
      f.apply_mat.col(mu0)[i] = scale * w.data()[i] * g.col(mu0)[i];
  }
  ProfileRegistry::instance().add("isdf.fit.filter", tsub.seconds());
  return f;
}

void apply(const ExchangeOperator& x, const Fit& f, const la::MatC& tgt_pts,
           la::MatC& out) {
  ScopedTimer t("isdf.apply");
  const size_t ng = x.map().grid().size();
  const size_t nmu = f.points.size();
  const size_t ntgt = tgt_pts.cols();
  PTIM_CHECK(tgt_pts.rows() == nmu);
  PTIM_CHECK(out.cols() == ntgt);
  if (nmu == 0 || ntgt == 0) return;

  la::MatC acc(ng, ntgt);
  if (x.precision() == Precision::kSingleCompensated) {
    // Kahan-compensated contraction over mu, parallel over grid points —
    // mirrors the compensated dense accumulate.
#pragma omp parallel for schedule(static)
    for (size_t r = 0; r < ng; ++r) {
      for (size_t j = 0; j < ntgt; ++j) {
        cplx sum(0.0), comp(0.0);
        for (size_t mu = 0; mu < nmu; ++mu)
          kahan_add(sum, comp, f.apply_mat(r, mu) * tgt_pts(mu, j));
        acc(r, j) = sum;
      }
    }
  } else {
    la::gemm_nn(f.apply_mat, tgt_pts, acc);
  }

  std::vector<cplx> scratch(x.map().sphere().npw());
  for (size_t j = 0; j < ntgt; ++j)
    x.gather_accumulate(acc.col(j), scratch.data(), out.col(j));
}

namespace {

// The rank's occupied sources, compacted; phid carries d into the
// occupation-weighted G block. na counts the occupied bands of the whole
// problem (replicated), idx holds the global band index per local one.
struct ActiveSources {
  std::vector<size_t> idx;  // global band index per active local source
  la::MatC phi, phid;       // Ng x idx.size()
  size_t na = 0;
};

ActiveSources compact_active(const la::MatC& src_real,
                             const std::vector<real_t>& d, size_t src_off,
                             bool weighted) {
  PTIM_CHECK(src_off + src_real.cols() <= d.size());
  ActiveSources a;
  for (size_t i = 0; i < d.size(); ++i)
    if (d[i] != 0.0) ++a.na;
  for (size_t i = 0; i < src_real.cols(); ++i)
    if (d[src_off + i] != 0.0) a.idx.push_back(src_off + i);
  const size_t ng = src_real.rows(), nloc = a.idx.size();
  a.phi.resize(ng, nloc);
  if (weighted) a.phid.resize(ng, nloc);
  for (size_t i = 0; i < nloc; ++i) {
    const cplx* s = src_real.col(a.idx[i] - src_off);
    std::copy(s, s + ng, a.phi.col(i));
    if (!weighted) continue;
    const real_t di = d[a.idx[i]];
    cplx* pd = a.phid.col(i);
    for (size_t r = 0; r < ng; ++r) pd[r] = di * s[r];
  }
  return a;
}

// Adds a block's rank partials over the bands; a no-op on one rank.
void sum_bands(const BandSlice& b, la::MatC& m) {
  if (b.band_sum) b.band_sum(la::as_doubles(m.data()), 2 * m.size());
}

}  // namespace

la::MatC to_real_policy(const ExchangeOperator& x, const la::MatC& v) {
  la::MatC out;
  if (x.precision() != Precision::kDouble) {
    la::MatCf f;
    x.map().to_real_batch(v, f);
    out.resize(f.rows(), f.cols());
#pragma omp parallel for schedule(static)
    for (size_t i = 0; i < f.size(); ++i)
      out.data()[i] = static_cast<cplx>(f.data()[i]);
  } else {
    x.map().to_real_batch(v, out);
  }
  return out;
}

std::vector<size_t> select_diag(const ExchangeOperator& x,
                                const la::MatC& src_real,
                                const std::vector<real_t>& d,
                                const la::MatC& tgt_real, const BandSlice& b) {
  const size_t ng = x.map().grid().size();
  PTIM_CHECK(src_real.rows() == ng && tgt_real.rows() == ng);
  PTIM_CHECK(b.tgt_off + tgt_real.cols() <= b.ntgt);
  const size_t ntgt = tgt_real.cols();
  const ActiveSources act =
      compact_active(src_real, d, b.src_off, /*weighted=*/false);
  const size_t na = act.idx.size();
  if (act.na == 0 || b.ntgt == 0) return {};

  const size_t nmu = rank(x.isdf_rank_factor(), act.na, b.ntgt, ng);
  const size_t k = sketch_width(nmu);

  // Sketch rows are indexed by the band's position in the FULL source /
  // target blocks, so the same bands give the same mixtures regardless of
  // occupation compaction or band distribution.
  const la::MatC r1 = sketch_matrix(d.size(), k, kSeedSources);
  const la::MatC r2 = sketch_matrix(b.ntgt, k, kSeedTargets);
  la::MatC r1a(na, k), r2l(ntgt, k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < na; ++i) r1a(i, j) = r1(act.idx[i], j);
    for (size_t i = 0; i < ntgt; ++i) r2l(i, j) = r2(b.tgt_off + i, j);
  }

  Timer tsk;
  la::MatC g1(ng, k), g2(ng, k);
  la::gemm_nn(act.phi, r1a, g1);
  la::gemm_nn(tgt_real, r2l, g2);

  std::vector<real_t> rho(ng, 0.0);
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < ng; ++r) {
    real_t s = 0.0;
    for (size_t i = 0; i < na; ++i)
      s += std::abs(d[act.idx[i]]) * std::norm(act.phi(r, i));
    for (size_t j = 0; j < ntgt; ++j) s += std::norm(tgt_real(r, j));
    rho[r] = s;
  }
  sum_bands(b, g1);
  sum_bands(b, g2);
  if (b.band_sum) b.band_sum(rho.data(), ng);

  ProfileRegistry::instance().add("isdf.sketch", tsk.seconds());
  return select_points(g1, g2, rho, nmu);
}

Fit fit_diag(const ExchangeOperator& x, const la::MatC& src_real,
             const std::vector<real_t>& d, const la::MatC& tgt_real,
             std::vector<size_t> points, const BandSlice& b) {
  const size_t ng = x.map().grid().size();
  PTIM_CHECK(src_real.rows() == ng && tgt_real.rows() == ng);
  PTIM_CHECK(b.tgt_off + tgt_real.cols() <= b.ntgt);
  const size_t ntgt = tgt_real.cols();
  const ActiveSources act =
      compact_active(src_real, d, b.src_off, /*weighted=*/true);
  const size_t na = act.idx.size();
  if (act.na == 0 || b.ntgt == 0 || points.empty()) return Fit{};
  const size_t nmu = points.size();
  Timer tsk;

  // Point samples and the band-summed Gram blocks. When the target block
  // is the (fully occupied) source block — the PT-IM and ACE shape — c_tgt
  // is c_src elementwise, so its GEMM and band sum are skipped.
  const bool tgt_is_src = &tgt_real == &src_real && act.na == d.size();
  la::MatC p1(nmu, na);
  for (size_t i = 0; i < na; ++i)
    for (size_t mu = 0; mu < nmu; ++mu) p1(mu, i) = act.phi(points[mu], i);

  la::MatC c_src(ng, nmu), g(ng, nmu);
  la::gemm_nc(act.phi, p1, c_src);
  la::gemm_nc(act.phid, p1, g);
  sum_bands(b, c_src);
  sum_bands(b, g);
  la::MatC c_tgt_own;
  if (!tgt_is_src) {
    la::MatC p2(nmu, ntgt);
    for (size_t j = 0; j < ntgt; ++j)
      for (size_t mu = 0; mu < nmu; ++mu) p2(mu, j) = tgt_real(points[mu], j);
    c_tgt_own.resize(ng, nmu);
    la::gemm_nc(tgt_real, p2, c_tgt_own);
    sum_bands(b, c_tgt_own);
  }
  const la::MatC& c_tgt = tgt_is_src ? c_src : c_tgt_own;

  ProfileRegistry::instance().add("isdf.sample", tsk.seconds());
  return fit(x, std::move(points), c_src, c_tgt, g);
}

void apply_diag(const ExchangeOperator& x, const la::MatC& src,
                const std::vector<real_t>& d, const la::MatC& tgt,
                la::MatC& out, bool accumulate, const BandSlice& b) {
  ScopedTimer t("exchange.isdf_diag");
  PTIM_CHECK(b.src_off + src.cols() <= d.size());
  if (!accumulate) out.fill(cplx(0.0));
  PTIM_CHECK(out.rows() == tgt.rows() && out.cols() == tgt.cols());
  if (b.ntgt == 0) return;

  // Real-space edge, honoring the precision policy. When the target block
  // IS the source block (the PT-IM / ACE shape), one transform serves
  // both, and fit_diag sees the aliasing.
  const bool same_block = &src == &tgt;
  const la::MatC src_real = to_real_policy(x, src);
  const la::MatC tgt_real_own = same_block ? la::MatC() : to_real_policy(x, tgt);
  const la::MatC& tgt_real = same_block ? src_real : tgt_real_own;

  std::vector<size_t> points = x.isdf_points().empty()
                                   ? select_diag(x, src_real, d, tgt_real, b)
                                   : x.isdf_points();
  const Fit f = fit_diag(x, src_real, d, tgt_real, std::move(points), b);
  if (f.points.empty()) return;

  la::MatC tgt_pts(f.points.size(), tgt_real.cols());
  for (size_t j = 0; j < tgt_real.cols(); ++j)
    for (size_t mu = 0; mu < f.points.size(); ++mu)
      tgt_pts(mu, j) = tgt_real(f.points[mu], j);
  apply(x, f, tgt_pts, out);
}

}  // namespace ptim::ham::isdf
