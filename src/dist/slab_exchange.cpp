#include "dist/slab_exchange.hpp"

#include <algorithm>
#include <type_traits>

#include "dist/circulate.hpp"

namespace ptim::dist {

GridContext::GridContext(ptmpi::Comm& world, ProcessGrid grid,
                         const pw::SphereGridMap& map)
    : pgrid_(grid),
      band_(world.split(/*color=*/grid.grid_rank_of(world.rank()),
                        /*key=*/grid.band_rank_of(world.rank()))),
      grid_(world.split(/*color=*/grid.band_rank_of(world.rank()),
                        /*key=*/grid.grid_rank_of(world.rank()))),
      map_(&map),
      fft64_(map.grid().dims(), grid_),
      fft32_(map.grid().dims(), grid_) {
  (void)pgrid_.resolve_pb(world.size());  // validates pb*pg == nranks
  PTIM_CHECK(band_.size() == pgrid_.resolve_pb(world.size()) &&
             grid_.size() == pgrid_.pg);

  // Pencil scatter plan: which sphere coefficients land on this rank's
  // y pencil, and where. Disjoint across the grid communicator (every
  // grid index has exactly one owner), which is what makes the sphere
  // Allreduce in the gather exact rather than merely deterministic.
  const auto& m = map.map();
  pen_global_.resize(npencil());
  for (size_t i = 0; i < pen_global_.size(); ++i)
    pen_global_[i] = fft64_.pencil_to_global(i);
  for (size_t p = 0; p < m.size(); ++p) {
    const size_t loc = fft64_.global_to_pencil(m[p]);
    if (loc == fft::DistFft3::npos) continue;
    sph_idx_.push_back(p);
    pen_idx_.push_back(loc);
  }
}

namespace {

template <typename CS>
using RealOf = typename CS::value_type;

template <typename CS>
auto& fft_of(GridContext& gc) {
  if constexpr (std::is_same_v<CS, cplxf>)
    return gc.fft32();
  else
    return gc.fft64();
}

// --- slab transforms -------------------------------------------------------
// Each helper reproduces one SphereGridMap path exactly (see the scale
// convention note in pw/transforms.hpp): per grid point the arithmetic is
// identical to the rank-local transform, with the FFT distributed.

// to_real_batch semantics (sources): scale folded into the scatter.
template <typename CS>
std::vector<CS> to_real_slab_batch(GridContext& gc, const la::MatC& coeffs) {
  auto& f = fft_of<CS>(gc);
  const size_t npen = gc.npencil();
  const size_t m = coeffs.cols();
  const auto& sph = gc.sphere_idx();
  const auto& loc = gc.pencil_idx();
  const real_t s = gc.map().scale_to_real();
  std::vector<CS> pen(npen * m, CS(0));
  for (size_t b = 0; b < m; ++b) {
    const cplx* cb = coeffs.col(b);
    CS* pb = pen.data() + b * npen;
    for (size_t k = 0; k < sph.size(); ++k)
      pb[loc[k]] = static_cast<CS>(cb[sph[k]] * s);
  }
  std::vector<CS> slab(gc.nreal() * m);
  f.inverse(pen.data(), slab.data(), m);
  return slab;
}

// Single-column to_real semantics (targets). FP64 applies the output scale
// AFTER the inverse transform (matching SphereGridMap::to_real); FP32 folds
// it into the scatter (matching the FP32 single-column overload).
template <typename CS>
std::vector<CS> to_real_slab_single(GridContext& gc, const la::MatC& coeffs) {
  auto& f = fft_of<CS>(gc);
  const size_t npen = gc.npencil();
  const size_t nloc = gc.nreal();
  const size_t m = coeffs.cols();
  const auto& sph = gc.sphere_idx();
  const auto& loc = gc.pencil_idx();
  const real_t s = gc.map().scale_to_real();
  constexpr bool fp32 = std::is_same_v<CS, cplxf>;
  std::vector<CS> pen(npen * m, CS(0));
  for (size_t b = 0; b < m; ++b) {
    const cplx* cb = coeffs.col(b);
    CS* pb = pen.data() + b * npen;
    for (size_t k = 0; k < sph.size(); ++k)
      pb[loc[k]] = fp32 ? static_cast<CS>(cb[sph[k]] * s)
                        : static_cast<CS>(cb[sph[k]]);
  }
  std::vector<CS> slab(nloc * m);
  f.inverse(pen.data(), slab.data(), m);
  if (!fp32) {
    const size_t total = nloc * m;
    for (size_t i = 0; i < total; ++i)
      slab[i] *= static_cast<RealOf<CS>>(s);
  }
  return slab;
}

// Distributed analogue of ExchangeOperator::kernel_filter_block: forward
// slab FFT, K(G)/Ng multiply on the y pencil (kernel indexed by global grid
// index), inverse slab FFT. Same FFT-count bookkeeping.
void kernel_filter_slab(GridContext& gc, const ham::ExchangeOperator& xop,
                        cplx* block, size_t nb, std::vector<cplx>& pen) {
  auto& f = gc.fft64();
  const size_t npen = gc.npencil();
  const auto& gidx = gc.pencil_global();
  const auto& kernel = xop.kernel();
  const real_t inv_ng =
      1.0 / static_cast<real_t>(gc.map().grid().size());
  pen.resize(npen * nb);
  f.forward(block, pen.data(), nb);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < npen; ++r)
      pen[i * npen + r] *= kernel[gidx[r]] * inv_ng;
  f.inverse(pen.data(), block, nb);
  xop.fft_count += static_cast<long>(2 * nb);
}

void kernel_filter_slab(GridContext& gc, const ham::ExchangeOperator& xop,
                        cplxf* block, size_t nb, std::vector<cplxf>& pen) {
  auto& f = gc.fft32();
  const size_t npen = gc.npencil();
  const auto& gidx = gc.pencil_global();
  const auto& kernel = xop.kernel_f32();
  const realf_t inv_ng =
      1.0f / static_cast<realf_t>(gc.map().grid().size());
  pen.resize(npen * nb);
  f.forward(block, pen.data(), nb);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < npen; ++r)
      pen[i * npen + r] *= kernel[gidx[r]] * inv_ng;
  f.inverse(pen.data(), block, nb);
  xop.fft_count += static_cast<long>(2 * nb);
}

// Distributed gather_accumulate over all targets of one circulation round:
// one batched FP64 forward slab FFT, the sphere gather on owned pencils,
// one exact Allreduce over the grid communicator (disjoint support), then
// the serial out_col update. Batching across targets is bitwise-free
// because the batched transform equals per-array singles.
void gather_accumulate_slab(GridContext& gc, const ham::ExchangeOperator& xop,
                            const cplx* acc, size_t ntgt, la::MatC& out) {
  auto& f = gc.fft64();
  const size_t npen = gc.npencil();
  const size_t npw = gc.map().sphere().npw();
  const auto& sph = gc.sphere_idx();
  const auto& loc = gc.pencil_idx();
  const real_t ssph = gc.map().scale_to_sphere();

  std::vector<cplx> pen(npen * ntgt);
  f.forward(acc, pen.data(), ntgt);
  std::vector<cplx> coeffs(npw * ntgt, cplx(0.0));
  for (size_t j = 0; j < ntgt; ++j) {
    const cplx* pj = pen.data() + j * npen;
    cplx* cj = coeffs.data() + j * npw;
    for (size_t k = 0; k < sph.size(); ++k) cj[sph[k]] = pj[loc[k]] * ssph;
  }
  gc.grid().allreduce_sum(coeffs.data(), coeffs.size());

  const real_t a = -xop.options().alpha;
  for (size_t j = 0; j < ntgt; ++j) {
    cplx* oj = out.col(j);
    const cplx* cj = coeffs.data() + j * npw;
    for (size_t p = 0; p < npw; ++p) oj[p] += a * cj[p];
  }
}

// --- circulation bodies ----------------------------------------------------
// Structured exactly like exchange_dist's diag/mixed circulations, with the
// per-round apply built from the slab stage primitives: the loop nest
// (targets outer, batch_size source blocks inner) matches
// pair_accumulate_blocks / weighted_blocks line for line, so at pb = 1 the
// result is bit-identical to the serial operator and at fixed pb it is
// bit-identical to the 1-D band-parallel path for every pg.

template <typename CS>
la::MatC diag_circulation_slab(GridContext& gc,
                               const ham::ExchangeOperator& xop,
                               const la::MatC& src_local,
                               const std::vector<real_t>& d_all,
                               const la::MatC& tgt_local,
                               const BlockLayout& src_bands,
                               ExchangePattern pat) {
  const size_t nloc = gc.nreal();
  const size_t ntgt = tgt_local.cols();
  const size_t bs = std::max<size_t>(1, xop.options().batch_size);
  const bool compensated =
      std::is_same_v<CS, cplxf> &&
      xop.options().precision == Precision::kSingleCompensated;

  const std::vector<CS> mine = to_real_slab_batch<CS>(gc, src_local);
  const std::vector<CS> tgt_r = to_real_slab_single<CS>(gc, tgt_local);

  la::MatC out(tgt_local.rows(), ntgt, cplx(0.0));
  std::vector<CS> block(bs * nloc), pen;
  std::vector<cplx> acc(nloc * ntgt), comp(compensated ? nloc * ntgt : 0);
  std::vector<size_t> active;

  auto apply_block = [&](const CS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || ntgt == 0) return;
    const real_t* d = d_all.data() + src_bands.offset(origin);
    active.clear();
    for (size_t i = 0; i < w; ++i)
      if (d[i] != 0.0) active.push_back(i);
    if (active.empty()) return;
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    std::fill(comp.begin(), comp.end(), cplx(0.0));
    for (size_t j = 0; j < ntgt; ++j) {
      for (size_t i0 = 0; i0 < active.size(); i0 += bs) {
        const size_t nb = std::min(bs, active.size() - i0);
        xop.pair_form_block(slab, active.data() + i0, nb,
                            tgt_r.data() + j * nloc, block.data(), nloc);
        kernel_filter_slab(gc, xop, block.data(), nb, pen);
        xop.accumulate_block(slab, active.data() + i0, d, nb, block.data(),
                             acc.data() + j * nloc,
                             compensated ? comp.data() + j * nloc : nullptr,
                             nloc);
      }
    }
    gather_accumulate_slab(gc, xop, acc.data(), ntgt, out);
  };
  circulate_slabs(gc.band(), src_bands, nloc, mine, pat, apply_block);
  return out;
}

template <typename CS>
la::MatC mixed_circulation_slab(GridContext& gc,
                                const ham::ExchangeOperator& xop,
                                const la::MatC& src_local,
                                const la::MatC& theta_local,
                                const la::MatC& tgt_local,
                                const BlockLayout& src_bands,
                                ExchangePattern pat) {
  const size_t nloc = gc.nreal();
  const size_t ntgt = tgt_local.cols();
  const size_t w_me = src_local.cols();
  const size_t bs = std::max<size_t>(1, xop.options().batch_size);
  const bool compensated =
      std::is_same_v<CS, cplxf> &&
      xop.options().precision == Precision::kSingleCompensated;

  // Payload per band: [phi_k | theta_k] slab pair, as in the 1-D path.
  const std::vector<CS> phi_r = to_real_slab_batch<CS>(gc, src_local);
  const std::vector<CS> theta_r = to_real_slab_batch<CS>(gc, theta_local);
  std::vector<CS> mine(2 * w_me * nloc);
  for (size_t b = 0; b < w_me; ++b) {
    std::copy(phi_r.begin() + static_cast<long>(b * nloc),
              phi_r.begin() + static_cast<long>((b + 1) * nloc),
              mine.begin() + static_cast<long>(2 * b * nloc));
    std::copy(theta_r.begin() + static_cast<long>(b * nloc),
              theta_r.begin() + static_cast<long>((b + 1) * nloc),
              mine.begin() + static_cast<long>((2 * b + 1) * nloc));
  }

  const std::vector<CS> tgt_r = to_real_slab_single<CS>(gc, tgt_local);

  la::MatC out(tgt_local.rows(), ntgt, cplx(0.0));
  std::vector<CS> phis, thetas, block(bs * nloc), pen;
  std::vector<cplx> acc(nloc * ntgt), comp(compensated ? nloc * ntgt : 0);
  std::vector<size_t> idx;

  auto apply_block = [&](const CS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || ntgt == 0) return;
    phis.resize(w * nloc);
    thetas.resize(w * nloc);
    for (size_t b = 0; b < w; ++b) {
      std::copy(slab + 2 * b * nloc, slab + (2 * b + 1) * nloc,
                phis.begin() + static_cast<long>(b * nloc));
      std::copy(slab + (2 * b + 1) * nloc, slab + (2 * b + 2) * nloc,
                thetas.begin() + static_cast<long>(b * nloc));
    }
    // Every source participates (the weight carries the sigma contraction).
    idx.resize(w);
    for (size_t i = 0; i < w; ++i) idx[i] = i;
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    std::fill(comp.begin(), comp.end(), cplx(0.0));
    for (size_t j = 0; j < ntgt; ++j) {
      for (size_t i0 = 0; i0 < w; i0 += bs) {
        const size_t nb = std::min(bs, w - i0);
        xop.pair_form_block(phis.data(), idx.data() + i0, nb,
                            tgt_r.data() + j * nloc, block.data(), nloc);
        kernel_filter_slab(gc, xop, block.data(), nb, pen);
        xop.accumulate_weighted_block(
            thetas.data(), idx.data() + i0, nb, block.data(),
            acc.data() + j * nloc,
            compensated ? comp.data() + j * nloc : nullptr, nloc);
      }
    }
    gather_accumulate_slab(gc, xop, acc.data(), ntgt, out);
  };
  circulate_slabs(gc.band(), src_bands, 2 * nloc, mine, pat, apply_block);
  return out;
}

}  // namespace

la::MatC exchange_apply_slab_local(GridContext& gc,
                                   const ham::ExchangeOperator& xop,
                                   const la::MatC& src_local,
                                   const std::vector<real_t>& d_local,
                                   const la::MatC& tgt_local,
                                   const BlockLayout& src_bands,
                                   ExchangePattern pat) {
  const int pb = gc.band().size();
  const int me = gc.band().rank();
  PTIM_CHECK(src_bands.parts() == pb);
  PTIM_CHECK(d_local.size() == src_local.cols());
  PTIM_CHECK(src_local.cols() == src_bands.count(me));

  // Occupation slices are shared over the band communicator, FP64 always
  // (identical to the 1-D path, so the allgathered vector matches bitwise).
  std::vector<size_t> counts(static_cast<size_t>(pb));
  for (int r = 0; r < pb; ++r)
    counts[static_cast<size_t>(r)] = src_bands.count(r);
  std::vector<real_t> d(src_bands.total());
  gc.band().allgatherv(d_local.data(), d_local.size(), d.data(), counts);

  if (xop.options().precision != Precision::kDouble)
    return diag_circulation_slab<cplxf>(gc, xop, src_local, d, tgt_local,
                                        src_bands, pat);
  return diag_circulation_slab<cplx>(gc, xop, src_local, d, tgt_local,
                                     src_bands, pat);
}

la::MatC exchange_apply_slab_mixed_local(
    GridContext& gc, const ham::ExchangeOperator& xop,
    const la::MatC& src_local, const la::MatC& theta_local,
    const la::MatC& tgt_local, const BlockLayout& src_bands,
    ExchangePattern pat) {
  PTIM_CHECK(src_bands.parts() == gc.band().size());
  PTIM_CHECK(src_local.cols() == src_bands.count(gc.band().rank()));
  PTIM_CHECK(theta_local.cols() == src_local.cols());

  if (xop.options().precision != Precision::kDouble)
    return mixed_circulation_slab<cplxf>(gc, xop, src_local, theta_local,
                                         tgt_local, src_bands, pat);
  return mixed_circulation_slab<cplx>(gc, xop, src_local, theta_local,
                                      tgt_local, src_bands, pat);
}

}  // namespace ptim::dist
