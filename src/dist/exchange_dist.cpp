#include "dist/exchange_dist.hpp"

#include <algorithm>

#include "dist/circulate.hpp"
#include "dist/isdf_dist.hpp"
#include "dist/rotate.hpp"

namespace ptim::dist {

const char* pattern_name(ExchangePattern p) {
  switch (p) {
    case ExchangePattern::kBcast: return "bcast";
    case ExchangePattern::kRing: return "ring";
    case ExchangePattern::kAsyncRing: return "async";
  }
  return "?";
}

namespace {

// The one dense band circulation, templated over the slab scalar (CS = cplx
// or cplxf) so the precision modes cannot drift apart: with CS = cplxf the
// sources are down-converted once at the real-space edge and the ring
// moves half the bytes, while run_pairs keeps the accumulation into `out`
// FP64. The weighted kind circulates [phi_b | theta_b] pairs, so one slab
// moves both the bra orbital and its sigma-contracted weight; its round job
// lists phi_b as field 2b with the weights one field further on.
template <typename CS>
la::MatC circulate(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                   const ham::PairSeam& seam, const la::MatC& src_local,
                   const std::vector<real_t>& d_all,
                   const la::MatC* theta_local, const la::MatC& tgt_local,
                   const BlockLayout& src_bands, ExchangePattern pat) {
  const size_t nloc = seam.nloc();
  const size_t w_me = src_local.cols();
  const size_t fields = theta_local ? 2 : 1;  // payload fields per band

  la::Matrix<CS> phi_r;
  seam.sources(src_local, phi_r);
  std::vector<CS> mine;
  if (theta_local) {
    la::Matrix<CS> theta_r;
    seam.sources(*theta_local, theta_r);
    mine.resize(2 * w_me * nloc);
    for (size_t b = 0; b < w_me; ++b) {
      std::copy(phi_r.col(b), phi_r.col(b) + nloc,
                mine.begin() + static_cast<long>(2 * b * nloc));
      std::copy(theta_r.col(b), theta_r.col(b) + nloc,
                mine.begin() + static_cast<long>((2 * b + 1) * nloc));
    }
  } else {
    mine.assign(phi_r.data(), phi_r.data() + phi_r.size());
  }
  la::Matrix<CS> tgt_r;
  seam.targets(tgt_local, tgt_r);

  la::MatC out(tgt_local.rows(), tgt_local.cols(), cplx(0.0));
  std::vector<ham::ExchangeOperator::PairJob<CS>> round(1);
  ham::ExchangeOperator::PairJob<CS>& job = round[0];
  job.tgt = tgt_r.data();
  job.ntgt = tgt_r.cols();
  job.out = &out;
  auto apply = [&](const CS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || job.ntgt == 0) return;
    job.src = slab;
    job.idx.clear();
    if (theta_local) {
      job.weight = slab + nloc;
      for (size_t b = 0; b < w; ++b) job.idx.push_back(2 * b);
    } else {
      job.d = d_all.data() + src_bands.offset(origin);
      for (size_t b = 0; b < w; ++b)
        if (job.d[b] != 0.0) job.idx.push_back(b);
    }
    xop.run_pairs(seam, round);
  };
  circulate_slabs(band, src_bands, fields * nloc, mine, pat, apply);
  return out;
}

// Γ-point circulation (gamma_real mode, fields verified real by every
// rank): the ring carries REAL real-space slabs — half the bytes of the
// complex circulation above at equal precision (a quarter for RS = realf_t
// versus cplx) — and each slab's contribution runs the packed real-pair
// pipeline. Contributions are staged PER ORIGIN and reduced in origin
// order 0..p-1 after the circulation: the three patterns deliver slabs in
// different orders, so accumulating on arrival (as the complex path does)
// would give pattern-dependent bits, while the staged reduction makes the
// result bitwise-invariant across patterns (pinned in test_dist).
template <typename RS, typename CS>
la::MatC diag_circulation_gamma(ptmpi::Comm& c,
                                const ham::ExchangeOperator& xop,
                                const la::Matrix<CS>& mine_m,
                                const std::vector<real_t>& d_all,
                                const la::MatC& tgt_local,
                                const BlockLayout& src_bands,
                                ExchangePattern pat) {
  const size_t ng = xop.map().grid().size();
  const size_t w_me = mine_m.cols();

  std::vector<RS> mine(w_me * ng);
  for (size_t b = 0; b < w_me; ++b)
    for (size_t r = 0; r < ng; ++r)
      mine[b * ng + r] = mine_m.col(b)[r].real();

  const int p = c.size();
  std::vector<la::MatC> contrib(
      static_cast<size_t>(p),
      la::MatC(tgt_local.rows(), tgt_local.cols(), cplx(0.0)));
  auto apply_block = [&](const RS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || tgt_local.cols() == 0) return;
    xop.apply_diag_realspace_real(slab, w,
                                  d_all.data() + src_bands.offset(origin),
                                  tgt_local, contrib[static_cast<size_t>(origin)],
                                  /*accumulate=*/true);
  };
  circulate_slabs(c, src_bands, ng, mine, pat, apply_block);

  la::MatC out(tgt_local.rows(), tgt_local.cols(), cplx(0.0));
  for (int o = 0; o < p; ++o) {
    const la::MatC& co = contrib[static_cast<size_t>(o)];
    for (size_t i = 0; i < out.size(); ++i) out.data()[i] += co.data()[i];
  }
  return out;
}

// Γ-point agreement vote: this rank's sources (already in real space) and
// targets are tested with the operator's shared realness criterion, then
// the per-rank verdicts are combined — real payloads circulate only when
// EVERY rank's fields pass (an allreduced sum of 1.0 flags must equal p).
template <typename CS>
bool gamma_vote(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                const la::Matrix<CS>& src_grid, const la::MatC& tgt_local) {
  const size_t ng = xop.map().grid().size();
  bool real = true;
  for (size_t b = 0; b < src_grid.cols() && real; ++b)
    real = ham::ExchangeOperator::field_is_real(src_grid.col(b), ng);
  if (real && tgt_local.cols() > 0) {
    la::Matrix<CS> tgt_grid;
    xop.map().to_real_batch(tgt_local, tgt_grid);
    for (size_t j = 0; j < tgt_grid.cols() && real; ++j)
      real = ham::ExchangeOperator::field_is_real(tgt_grid.col(j), ng);
  }
  real_t vote = real ? 1.0 : 0.0;
  c.allreduce_sum(&vote, 1);
  return vote == static_cast<real_t>(c.size());
}

}  // namespace

std::vector<real_t> allgather_occupations(ptmpi::Comm& band,
                                          const std::vector<real_t>& d_local,
                                          const BlockLayout& src_bands) {
  std::vector<size_t> counts(static_cast<size_t>(band.size()));
  for (int r = 0; r < band.size(); ++r)
    counts[static_cast<size_t>(r)] = src_bands.count(r);
  std::vector<real_t> d(src_bands.total());
  band.allgatherv(d_local.data(), d_local.size(), d.data(), counts);
  return d;
}

la::MatC circulate_pairs(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                         const ham::PairSeam& seam, const la::MatC& src_local,
                         const std::vector<real_t>& d_all,
                         const la::MatC* theta_local, const la::MatC& tgt_local,
                         const BlockLayout& src_bands, ExchangePattern pat) {
  PTIM_CHECK(src_bands.parts() == band.size());
  PTIM_CHECK(src_local.cols() == src_bands.count(band.rank()));
  PTIM_CHECK(theta_local ? theta_local->cols() == src_local.cols()
                         : d_all.size() == src_bands.total());
  if (xop.options().precision != Precision::kDouble)
    return circulate<cplxf>(band, xop, seam, src_local, d_all, theta_local,
                            tgt_local, src_bands, pat);
  return circulate<cplx>(band, xop, seam, src_local, d_all, theta_local,
                         tgt_local, src_bands, pat);
}

la::MatC exchange_apply_distributed_local(ptmpi::Comm& c,
                                          const ham::ExchangeOperator& xop,
                                          const la::MatC& src_local,
                                          const std::vector<real_t>& d_local,
                                          const la::MatC& tgt_local,
                                          const BlockLayout& src_bands,
                                          ExchangePattern pat) {
  PTIM_CHECK(src_bands.parts() == c.size());
  PTIM_CHECK(d_local.size() == src_local.cols());
  PTIM_CHECK(src_local.cols() == src_bands.count(c.rank()));

  // Occupation slices are tiny; share them once so any origin's slab can be
  // weighted locally. They stay FP64 in every precision mode.
  const std::vector<real_t> d = allgather_occupations(c, d_local, src_bands);

  // ISDF replaces the slab circulation wholesale: band-parallel fit from
  // Allreduced Gram partials, then a local GEMM apply (dist/isdf_dist).
  if (xop.options().compression == ham::ExchangeCompression::kIsdf)
    return exchange_apply_isdf_local(c, xop, src_local, d, tgt_local,
                                     src_bands);

  if (xop.gamma_real()) {
    // Γ-point fast path: if every rank's sources and targets are real,
    // circulate REAL slabs (half the ring bytes) through the packed
    // real-pair pipeline; otherwise fall through to the complex
    // circulation, which runs no per-round gate and so is bitwise-identical
    // to gamma_real off on every rank.
    if (xop.options().precision != Precision::kDouble) {
      la::MatCf mine_m;
      xop.map().to_real_batch(src_local, mine_m);
      if (gamma_vote(c, xop, mine_m, tgt_local))
        return diag_circulation_gamma<realf_t, cplxf>(c, xop, mine_m, d,
                                                      tgt_local, src_bands,
                                                      pat);
    } else {
      la::MatC mine_m;
      xop.map().to_real_batch(src_local, mine_m);
      if (gamma_vote(c, xop, mine_m, tgt_local))
        return diag_circulation_gamma<real_t, cplx>(c, xop, mine_m, d,
                                                    tgt_local, src_bands, pat);
    }
  }

  return circulate_pairs(c, xop, ham::FullGridSeam(xop), src_local, d, nullptr,
                         tgt_local, src_bands, pat);
}

la::MatC exchange_apply_distributed_mixed_local(
    ptmpi::Comm& c, const ham::ExchangeOperator& xop, const la::MatC& src_local,
    const la::MatC& theta_local, const la::MatC& tgt_local,
    const BlockLayout& src_bands, ExchangePattern pat) {
  return circulate_pairs(c, xop, ham::FullGridSeam(xop), src_local, {},
                         &theta_local, tgt_local, src_bands, pat);
}

la::MatC exchange_apply_distributed(ptmpi::Comm& c,
                                    const ham::ExchangeOperator& xop,
                                    const la::MatC& src,
                                    const std::vector<real_t>& d,
                                    const la::MatC& tgt, ExchangePattern pat) {
  const int p = c.size();
  const int me = c.rank();
  PTIM_CHECK(d.size() == src.cols());
  const BlockLayout sb(src.cols(), p), tb(tgt.cols(), p);
  const la::MatC src_local = scatter_bands(src, sb, me);
  const la::MatC tgt_local = scatter_bands(tgt, tb, me);
  std::vector<real_t> d_local(d.begin() + static_cast<long>(sb.offset(me)),
                              d.begin() + static_cast<long>(sb.offset(me) +
                                                            sb.count(me)));
  return exchange_apply_distributed_local(c, xop, src_local, d_local,
                                          tgt_local, sb, pat);
}

}  // namespace ptim::dist
