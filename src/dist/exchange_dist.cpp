#include "dist/exchange_dist.hpp"

#include <algorithm>
#include <type_traits>

#include "dist/circulate.hpp"
#include "dist/isdf_dist.hpp"
#include "dist/transpose.hpp"

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

// The one round loop of every band-parallel dense apply. `mine` holds this
// rank's band block, one field of nloc points per band; circulate_slabs
// moves it around `band` and each round runs a one-job run_pairs pack over
// the origin rank's slab. PS is the payload scalar: cplx / cplxf, or
// real_t / realf_t for Γ-point payloads (half the ring bytes at equal
// precision). The weighted kind circulates [phi_b | theta_b] pairs, so one
// slab moves both the bra orbital and its sigma-contracted weight; its
// round job lists phi_b as field 2b with the weights one field further
// on. Complex rounds accumulate into the result in arrival order. Real
// rounds are staged per origin and summed in origin order 0..p-1 after the
// circulation: the patterns deliver slabs in different orders, so the
// staged sum is what makes the real result bitwise the same for every
// pattern. (Staging complex rounds would reorder the sums every complex
// trajectory was taken with.)
template <typename PS>
la::MatC run_rounds(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                    const ham::PairSeam& seam, const std::vector<PS>& mine,
                    bool weighted, const std::vector<real_t>& d_all,
                    const PS* tgt, size_t ntgt, size_t npw,
                    const BlockLayout& src_bands, ExchangePattern pat) {
  constexpr bool staged = std::is_floating_point_v<PS>;
  const size_t nloc = seam.nloc();
  la::MatC out(npw, ntgt, cplx(0.0));
  std::vector<la::MatC> by_origin(
      staged ? static_cast<size_t>(band.size()) : 0, out);
  std::vector<ham::ExchangeOperator::PairJob<PS>> round(1);
  ham::ExchangeOperator::PairJob<PS>& job = round[0];
  job.tgt = tgt;
  job.ntgt = ntgt;
  job.out = &out;
  auto apply = [&](const PS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || ntgt == 0) return;
    job.src = slab;
    job.idx.clear();
    if (weighted) {
      job.weight = slab + nloc;
      for (size_t b = 0; b < w; ++b) job.idx.push_back(2 * b);
    } else {
      job.d = d_all.data() + src_bands.offset(origin);
      for (size_t b = 0; b < w; ++b)
        if (job.d[b] != 0.0) job.idx.push_back(b);
    }
    if (staged) job.out = &by_origin[static_cast<size_t>(origin)];
    xop.run_pairs(seam, round);
  };
  circulate_slabs(band, src_bands, (weighted ? 2 : 1) * nloc, mine, pat,
                  apply);
  for (const la::MatC& o : by_origin)
    for (size_t i = 0; i < out.size(); ++i) out.data()[i] += o.data()[i];
  return out;
}

// Transforms this rank's sources and targets once through the seam (CS =
// cplx or cplxf: with cplxf the sources are down-converted once at the
// real-space edge and the ring moves half the bytes, while run_pairs keeps
// the accumulation into the result FP64), then runs the round loop. With
// vote_gamma (the 1-D diag entry under gamma_real) every rank first tests
// its sources with nonzero occupation and its targets with the serial
// gate's realness check; real payloads circulate only when EVERY rank's
// fields pass (an allreduced sum of 1.0 flags must equal p), and otherwise
// the complex rounds run exactly as with gamma_real off.
template <typename CS>
la::MatC circulate(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                   const ham::PairSeam& seam, const la::MatC& src_local,
                   const std::vector<real_t>& d_all,
                   const la::MatC* theta_local, const la::MatC& tgt_local,
                   const BlockLayout& src_bands, ExchangePattern pat,
                   bool vote_gamma) {
  const size_t nloc = seam.nloc();
  const size_t w_me = src_local.cols();
  const size_t npw = tgt_local.rows();
  la::Matrix<CS> phi_r, tgt_r;
  seam.sources(src_local, phi_r);
  seam.targets(tgt_local, tgt_r);

  if (vote_gamma) {
    const real_t* d_me = d_all.data() + src_bands.offset(band.rank());
    std::vector<size_t> active;
    for (size_t b = 0; b < w_me; ++b)
      if (d_me[b] != 0.0) active.push_back(b);
    real_t vote =
        ham::ExchangeOperator::fields_are_real(phi_r, active, tgt_r) ? 1.0
                                                                      : 0.0;
    band.allreduce_sum(&vote, 1);
    if (vote == static_cast<real_t>(band.size())) {
      const auto tgt_re = ham::ExchangeOperator::real_parts(tgt_r);
      return run_rounds(band, xop, seam,
                        ham::ExchangeOperator::real_parts(phi_r), false,
                        d_all, tgt_re.data(), tgt_r.cols(), npw, src_bands,
                        pat);
    }
  }

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
  return run_rounds(band, xop, seam, mine, theta_local != nullptr, d_all,
                    tgt_r.data(), tgt_r.cols(), npw, src_bands, pat);
}

// Precision dispatch of circulate, with the argument checks.
la::MatC circulate_any(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                       const ham::PairSeam& seam, const la::MatC& src_local,
                       const std::vector<real_t>& d_all,
                       const la::MatC* theta_local, const la::MatC& tgt_local,
                       const BlockLayout& src_bands, ExchangePattern pat,
                       bool vote_gamma) {
  PTIM_CHECK(src_bands.parts() == band.size());
  PTIM_CHECK(src_local.cols() == src_bands.count(band.rank()));
  PTIM_CHECK(theta_local ? theta_local->cols() == src_local.cols()
                         : d_all.size() == src_bands.total());
  if (xop.options().precision != Precision::kDouble)
    return circulate<cplxf>(band, xop, seam, src_local, d_all, theta_local,
                            tgt_local, src_bands, pat, vote_gamma);
  return circulate<cplx>(band, xop, seam, src_local, d_all, theta_local,
                         tgt_local, src_bands, pat, vote_gamma);
}

}  // namespace

la::MatC circulate_pairs(ptmpi::Comm& band, const ham::ExchangeOperator& xop,
                         const ham::PairSeam& seam, const la::MatC& src_local,
                         const std::vector<real_t>& d_all,
                         const la::MatC* theta_local, const la::MatC& tgt_local,
                         const BlockLayout& src_bands, ExchangePattern pat) {
  return circulate_any(band, xop, seam, src_local, d_all, theta_local,
                       tgt_local, src_bands, pat, /*vote_gamma=*/false);
}

la::MatC exchange_apply_distributed_local(ptmpi::Comm& c,
                                          const ham::ExchangeOperator& xop,
                                          const la::MatC& src_local,
                                          const std::vector<real_t>& d_all,
                                          const la::MatC& tgt_local,
                                          const BlockLayout& src_bands,
                                          ExchangePattern pat) {
  PTIM_CHECK(src_bands.parts() == c.size());
  PTIM_CHECK(d_all.size() == src_bands.total());
  PTIM_CHECK(src_local.cols() == src_bands.count(c.rank()));

  // ISDF replaces the slab circulation wholesale: band-parallel fit from
  // Allreduced Gram partials, then a local GEMM apply (dist/isdf_dist).
  if (xop.options().compression == ham::ExchangeCompression::kIsdf)
    return exchange_apply_isdf_local(c, xop, src_local, d_all, tgt_local,
                                     src_bands);

  // The Γ-point vote binds only this communicator, so only this entry
  // takes it: a 2-D band ring could not carry it into the grid
  // communicator's slab-FFT collectives.
  return circulate_any(c, xop, ham::FullGridSeam(xop), src_local, d_all,
                       nullptr, tgt_local, src_bands, pat, xop.gamma_real());
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
  return exchange_apply_distributed_local(c, xop, src_local, d, tgt_local, sb,
                                          pat);
}

}  // namespace ptim::dist
