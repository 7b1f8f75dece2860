#include "dist/slab_exchange.hpp"

#include <algorithm>
#include <type_traits>

#include "dist/exchange_dist.hpp"
#include "obs/obs.hpp"

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

template <typename CS>
const auto& kernel_of(const ham::ExchangeOperator& xop) {
  if constexpr (std::is_same_v<CS, cplxf>)
    return xop.kernel_f32();
  else
    return xop.kernel();
}

// --- slab transforms -------------------------------------------------------
// Each helper reproduces one SphereGridMap path exactly (see the scale
// convention note in pw/transforms.hpp): per grid point the arithmetic is
// identical to the rank-local transform, with the FFT distributed.

// to_real_batch semantics (sources): scale folded into the scatter.
template <typename CS>
void to_real_slab_batch(GridContext& gc, const la::MatC& coeffs,
                        la::Matrix<CS>& slab) {
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
  slab.resize(gc.nreal(), m);
  f.inverse(pen.data(), slab.data(), m);
}

// Single-column to_real semantics (targets). FP64 applies the output scale
// AFTER the inverse transform (matching SphereGridMap::to_real); FP32 folds
// it into the scatter (matching the FP32 single-column overload).
template <typename CS>
void to_real_slab_single(GridContext& gc, const la::MatC& coeffs,
                         la::Matrix<CS>& slab) {
  auto& f = fft_of<CS>(gc);
  const size_t npen = gc.npencil();
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
  slab.resize(gc.nreal(), m);
  f.inverse(pen.data(), slab.data(), m);
  if (!fp32) {
    for (size_t i = 0; i < slab.size(); ++i)
      slab.data()[i] *= static_cast<RealOf<CS>>(s);
  }
}

// Distributed analogue of ExchangeOperator::kernel_filter_block: forward
// slab FFT, K(G)/Ng multiply on the y pencil (kernel indexed by global grid
// index), inverse slab FFT. Same FFT-count bookkeeping and span.
template <typename CS>
void kernel_filter_slab(GridContext& gc, const ham::ExchangeOperator& xop,
                        CS* block, size_t nb, std::vector<CS>& pen) {
  OBS_SPAN("xchg.kernel_filter", obs::Cat::kFft);
  using R = RealOf<CS>;
  auto& f = fft_of<CS>(gc);
  const size_t npen = gc.npencil();
  const auto& gidx = gc.pencil_global();
  const auto& kernel = kernel_of<CS>(xop);
  const R inv_ng = R(1) / static_cast<R>(gc.map().grid().size());
  pen.resize(npen * nb);
  f.forward(block, pen.data(), nb);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < npen; ++r)
      pen[i * npen + r] *= kernel[gidx[r]] * inv_ng;
  f.inverse(pen.data(), block, nb);
  xop.fft_count += static_cast<long>(2 * nb);
}

// Distributed gather_accumulate over ntgt accumulator columns at once: one
// batched FP64 forward slab FFT, the sphere gather on owned pencils, one
// exact Allreduce over the grid communicator (disjoint support), then the
// serial update of out columns j0..j0+ntgt-1. Batching across targets is
// bitwise-free because the batched transform equals per-array singles.
void gather_accumulate_slab(GridContext& gc, const ham::ExchangeOperator& xop,
                            const cplx* acc, size_t ntgt, la::MatC& out,
                            size_t j0) {
  OBS_SPAN("xchg.gather", obs::Cat::kCompute);
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
    cplx* oj = out.col(j0 + j);
    const cplx* cj = coeffs.data() + j * npw;
    for (size_t p = 0; p < npw; ++p) oj[p] += a * cj[p];
  }
}

// The z-slab seam of run_pairs: fields are this rank's nreal() slab points,
// every transform is a distributed slab FFT over the grid communicator, and
// a job's target columns are gathered together (one batched slab FFT and
// one grid Allreduce per circulation round).
class SlabSeam final : public ham::PairSeam {
 public:
  SlabSeam(GridContext& gc, const ham::ExchangeOperator& xop)
      : gc_(gc), xop_(xop) {}
  size_t nloc() const override { return gc_.nreal(); }
  void sources(const la::MatC& c, la::MatC& r) const override {
    to_real_slab_batch(gc_, c, r);
  }
  void sources(const la::MatC& c, la::MatCf& r) const override {
    to_real_slab_batch(gc_, c, r);
  }
  void targets(const la::MatC& c, la::MatC& r) const override {
    to_real_slab_single(gc_, c, r);
  }
  void targets(const la::MatC& c, la::MatCf& r) const override {
    to_real_slab_single(gc_, c, r);
  }
  void filter(cplx* block, size_t nb) const override {
    kernel_filter_slab(gc_, xop_, block, nb, pen64_);
  }
  void filter(cplxf* block, size_t nb) const override {
    kernel_filter_slab(gc_, xop_, block, nb, pen32_);
  }
  size_t gather_width(size_t ntgt) const override { return ntgt; }
  void gather(const cplx* acc, size_t ncol, la::MatC& out,
              size_t j0) const override {
    gather_accumulate_slab(gc_, xop_, acc, ncol, out, j0);
  }

 private:
  GridContext& gc_;
  const ham::ExchangeOperator& xop_;
  mutable std::vector<cplx> pen64_;  // pencil workspaces, reused per block
  mutable std::vector<cplxf> pen32_;
};

}  // namespace

la::MatC exchange_apply_slab_local(GridContext& gc,
                                   const ham::ExchangeOperator& xop,
                                   const la::MatC& src_local,
                                   const std::vector<real_t>& d_all,
                                   const la::MatC& tgt_local,
                                   const BlockLayout& src_bands,
                                   ExchangePattern pat) {
  PTIM_CHECK(src_bands.parts() == gc.band().size());
  return circulate_pairs(gc.band(), xop, SlabSeam(gc, xop), src_local, d_all,
                         nullptr, tgt_local, src_bands, pat);
}

la::MatC exchange_apply_slab_mixed_local(
    GridContext& gc, const ham::ExchangeOperator& xop,
    const la::MatC& src_local, const la::MatC& theta_local,
    const la::MatC& tgt_local, const BlockLayout& src_bands,
    ExchangePattern pat) {
  return circulate_pairs(gc.band(), xop, SlabSeam(gc, xop), src_local, {},
                         &theta_local, tgt_local, src_bands, pat);
}

}  // namespace ptim::dist
