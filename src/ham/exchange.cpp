#include "ham/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "ham/isdf.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"

namespace ptim::ham {

namespace {

// Kahan-compensated FP64 add: acc[r] += term with running compensation.
// Complex add/sub are componentwise, so the classic scheme carries over.
inline void kahan_add(cplx& acc, cplx& comp, const cplx& term) {
  const cplx y = term - comp;
  const cplx t = acc + y;
  comp = (t - acc) - y;
  acc = t;
}

// Γ-point realness test: a field counts as real when its largest imaginary
// component is negligible against its largest real one (complex-to-real FFT
// round trips leave ~1e-16 relative imaginary dust in FP64, ~1e-7 in FP32;
// the thresholds sit orders of magnitude above the dust and below any
// genuine complex phase). An all-zero field is real. max is exact, so the
// reduction order does not matter.
template <typename CS>
bool field_is_real(const CS* v, size_t n) {
  const double tol = std::is_same_v<CS, cplxf> ? 1e-5 : 1e-12;
  double mre = 0.0, mim = 0.0;
#pragma omp parallel for schedule(static) reduction(max : mre, mim)
  for (size_t r = 0; r < n; ++r) {
    mre = std::max(mre, std::abs(static_cast<double>(v[r].real())));
    mim = std::max(mim, std::abs(static_cast<double>(v[r].imag())));
  }
  return mim <= tol * mre;
}

// Column-by-column to_real (the single-column scale convention).
template <typename CS>
void to_real_columns(const pw::SphereGridMap& map, const la::MatC& coeffs,
                     la::Matrix<CS>& real) {
  real.resize(map.grid().size(), coeffs.cols());
  for (size_t j = 0; j < coeffs.cols(); ++j)
    map.to_real(coeffs.col(j), real.col(j));
}

}  // namespace

template <typename CS>
bool ExchangeOperator::fields_are_real(const la::Matrix<CS>& src,
                                       const std::vector<size_t>& idx,
                                       const la::Matrix<CS>& tgt) {
  for (const size_t i : idx)
    if (!field_is_real(src.col(i), src.rows())) return false;
  for (size_t j = 0; j < tgt.cols(); ++j)
    if (!field_is_real(tgt.col(j), tgt.rows())) return false;
  return true;
}

template <typename CS>
std::vector<typename CS::value_type> ExchangeOperator::real_parts(
    const la::Matrix<CS>& m) {
  std::vector<typename CS::value_type> re(m.size());
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < m.size(); ++i) re[i] = m.data()[i].real();
  return re;
}

ExchangeOperator::ExchangeOperator(const pw::SphereGridMap& wfc_map,
                                   ExchangeOptions opt)
    : map_(&wfc_map), opt_(opt) {
  // Validate the shape-determining knobs here rather than deep inside an
  // apply: a zero batch width or non-positive ISDF rank would otherwise
  // surface as an opaque failure in the hot path.
  if (opt.batch_size == 0)
    throw Error(
        "ExchangeOptions::batch_size must be >= 1 (got 0): the batched "
        "pair-FFT pipeline needs at least one lane; use 1 for the per-pair "
        "baseline");
  if (!(opt.isdf_rank_factor > 0.0))
    throw Error(
        "ExchangeOptions::isdf_rank_factor must be positive (Nmu = "
        "ceil(c * nb) interpolation points; typical c in [4, 12])");
  const auto& g = wfc_map.grid();
  kernel_.resize(g.size());
  const real_t mu2 = opt.mu * opt.mu;
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < g.size(); ++i) {
    const real_t g2 = g.g2()[i];
    if (opt.screened) {
      kernel_[i] = (g2 < 1e-12)
                       ? kPi / mu2
                       : kFourPi / g2 * (1.0 - std::exp(-g2 / (4.0 * mu2)));
    } else {
      // Bare Coulomb with a spherical-truncation G=0 value: 2 pi Rc^2 with
      // Rc the radius of the sphere of equal cell volume.
      if (g2 < 1e-12) {
        const real_t omega = g.lattice().volume();
        const real_t rc = std::cbrt(3.0 * omega / kFourPi);
        kernel_[i] = kTwoPi * rc * rc;
      } else {
        kernel_[i] = kFourPi / g2;
      }
    }
  }
  // FP32 twin, rounded once from the FP64 table — kept regardless of the
  // initial precision so set_precision can toggle modes without a rebuild.
  kernelf_.resize(kernel_.size());
  for (size_t i = 0; i < kernel_.size(); ++i)
    kernelf_[i] = static_cast<realf_t>(kernel_[i]);
}

void ExchangeOperator::kernel_filter_block(cplx* block, size_t nb) const {
  OBS_SPAN("xchg.kernel_filter", obs::Cat::kFft);
  const size_t ng = map_->grid().size();
  const auto& fft3 = map_->grid().fft();
  const real_t inv_ng = 1.0 / static_cast<real_t>(ng);
  fft3.forward_batch(block, nb);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < ng; ++r) block[i * ng + r] *= kernel_[r] * inv_ng;
  fft3.inverse_batch(block, nb);
  fft_count += static_cast<long>(2 * nb);
}

void ExchangeOperator::kernel_filter_block(cplxf* block, size_t nb) const {
  OBS_SPAN("xchg.kernel_filter", obs::Cat::kFft);
  const size_t ng = map_->grid().size();
  const auto& fft3 = map_->grid().fft_f32();
  const realf_t inv_ng = 1.0f / static_cast<realf_t>(ng);
  fft3.forward_batch(block, nb);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < ng; ++r) block[i * ng + r] *= kernelf_[r] * inv_ng;
  fft3.inverse_batch(block, nb);
  fft_count += static_cast<long>(2 * nb);
}

// --- stage primitives ------------------------------------------------------
// The pointwise hot-path stages, each the exact loop the engine below is
// assembled from, so a stage-by-stage composition is bit-identical to the
// applies by construction. Explicitly instantiated at the end of this file
// for the FP64 and FP32 scalars, complex and real.

template <typename CS>
void ExchangeOperator::pair_form_block(const CS* src_real, const size_t* idx,
                                       size_t nb, const CS* tgt_real, CS* block,
                                       size_t nloc) const {
  OBS_SPAN("xchg.pair_form", obs::Cat::kCompute);
  if (nloc == kFullGrid) nloc = map_->grid().size();
  // Pair densities for the whole block, one fused parallel region.
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < nloc; ++r)
      block[i * nloc + r] =
          std::conj(src_real[idx[i] * nloc + r]) * tgt_real[r];
}

template <typename CS>
void ExchangeOperator::accumulate_block(const CS* src_real, const size_t* idx,
                                        const real_t* d, size_t nb,
                                        const CS* block, cplx* acc, cplx* comp,
                                        size_t nloc) const {
  OBS_SPAN("xchg.accumulate", obs::Cat::kCompute);
  const size_t ng = map_->grid().size();
  if (nloc == kFullGrid) nloc = ng;
  // Fused accumulate over the block; parallel over grid points so the
  // acc[] updates never race.
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < nloc; ++r) {
    for (size_t i = 0; i < nb; ++i) {
      const size_t s = idx[i];
      // Undo the inverse-FFT 1/Ng scaling (unscaled synthesis wanted).
      const cplx term = (d[s] * static_cast<real_t>(ng)) *
                        static_cast<cplx>(src_real[s * nloc + r]) *
                        static_cast<cplx>(block[i * nloc + r]);
      if (comp)
        kahan_add(acc[r], comp[r], term);
      else
        acc[r] += term;
    }
  }
}

template <typename CS>
void ExchangeOperator::accumulate_weighted_block(const CS* weight_real,
                                                 const size_t* idx, size_t nb,
                                                 const CS* block, cplx* acc,
                                                 cplx* comp,
                                                 size_t nloc) const {
  OBS_SPAN("xchg.accumulate", obs::Cat::kCompute);
  const size_t ng = map_->grid().size();
  if (nloc == kFullGrid) nloc = ng;
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < nloc; ++r) {
    for (size_t i = 0; i < nb; ++i) {
      // Undo the inverse-FFT 1/Ng scaling (unscaled synthesis wanted).
      const cplx term = static_cast<real_t>(ng) *
                        static_cast<cplx>(weight_real[idx[i] * nloc + r]) *
                        static_cast<cplx>(block[i * nloc + r]);
      if (comp)
        kahan_add(acc[r], comp[r], term);
      else
        acc[r] += term;
    }
  }
}

void ExchangeOperator::gather_accumulate(const cplx* acc, cplx* scratch,
                                         cplx* out_col) const {
  OBS_SPAN("xchg.gather", obs::Cat::kCompute);
  map_->to_sphere(acc, scratch);
  const size_t npw = map_->sphere().npw();
  const real_t a = -opt_.alpha;
  for (size_t p = 0; p < npw; ++p) out_col[p] += a * scratch[p];
}

// --- Γ-point real fields ---------------------------------------------------
// Two real pair densities per complex FFT lane (see run_pairs). The packed
// lane goes through the UNCHANGED seam filter: K(G) is real and even, so by
// linearity the filter acts on the Re and Im residents independently and
// exactly — no spectrum unscramble anywhere.

template <typename RS>
void ExchangeOperator::pair_form_block(const RS* src_real, const size_t* idx,
                                       size_t nb, const RS* tgt_real,
                                       std::complex<RS>* block,
                                       size_t nloc) const {
  OBS_SPAN("xchg.pair_form", obs::Cat::kCompute);
  if (nloc == kFullGrid) nloc = map_->grid().size();
  const size_t nlanes = (nb + 1) / 2;
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t q = 0; q < nlanes; ++q)
    for (size_t r = 0; r < nloc; ++r) {
      const RS a = src_real[idx[2 * q] * nloc + r] * tgt_real[r];
      const RS b = (2 * q + 1 < nb)
                       ? src_real[idx[2 * q + 1] * nloc + r] * tgt_real[r]
                       : RS(0);
      block[q * nloc + r] = std::complex<RS>(a, b);
    }
}

template <typename RS>
void ExchangeOperator::accumulate_block(const RS* src_real, const size_t* idx,
                                        const real_t* d, size_t nb,
                                        const std::complex<RS>* block,
                                        cplx* acc, cplx* comp,
                                        size_t nloc) const {
  OBS_SPAN("xchg.accumulate", obs::Cat::kCompute);
  const size_t ng = map_->grid().size();
  if (nloc == kFullGrid) nloc = ng;
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < nloc; ++r) {
    for (size_t i = 0; i < nb; ++i) {
      const size_t s = idx[i];
      const std::complex<RS> z = block[(i / 2) * nloc + r];
      const real_t u = static_cast<real_t>(i % 2 == 0 ? z.real() : z.imag());
      // Undo the inverse-FFT 1/Ng scaling (unscaled synthesis wanted). A
      // zero imaginary part keeps acc and comp real, bit for bit.
      const cplx term((d[s] * static_cast<real_t>(ng)) *
                          static_cast<real_t>(src_real[s * nloc + r]) * u,
                      0.0);
      if (comp)
        kahan_add(acc[r], comp[r], term);
      else
        acc[r] += term;
    }
  }
}

// --- the dense pair engine -------------------------------------------------
// Every dense apply apart from Alg. 2's baseline. Per job the loop nest is
// targets outer, blocks of idx inner, in order, whatever else shares the
// round: pair forming, the kernel filter and the FP64 accumulation are
// per-lane and per-job, so packing jobs (or cutting blocks to width 1)
// regroups transforms without moving a bit. Every float product is
// promoted to FP64 exactly once inside the accumulation, plain or
// Kahan-compensated depending on the policy.

namespace {

// The FFT lane scalar of a job's field scalar FS: a complex density fills
// one lane, two real (Γ-point) densities share one.
template <typename FS>
struct Lanes {
  using type = FS;
  static constexpr size_t per_lane = 1;
};
template <>
struct Lanes<real_t> {
  using type = cplx;
  static constexpr size_t per_lane = 2;
};
template <>
struct Lanes<realf_t> {
  using type = cplxf;
  static constexpr size_t per_lane = 2;
};

}  // namespace

template <typename FS>
void ExchangeOperator::run_pairs(const PairSeam& seam,
                                 const std::vector<PairJob<FS>>& jobs) const {
  using CS = typename Lanes<FS>::type;
  constexpr size_t per_lane = Lanes<FS>::per_lane;
  const size_t nloc = seam.nloc();
  const size_t bs = std::max<size_t>(1, opt_.batch_size);  // lanes per block
  const bool compensated = std::is_same_v<CS, cplxf> &&
                           opt_.precision == Precision::kSingleCompensated;

  // Progress of one unfinished job. Its accumulator holds gw target
  // columns (the seam's gather width); column j lives in slot j % gw.
  struct Cursor {
    const PairJob<FS>* job = nullptr;
    size_t gw = 1;
    std::vector<cplx> acc, comp;
    size_t j = 0;    // current target column
    size_t i0 = 0;   // next block start within job->idx
    size_t nb = 0;   // this round's block width, in densities
    size_t off = 0;  // its first lane in the shared block
  };
  std::vector<Cursor> live;
  for (const PairJob<FS>& job : jobs) {
    if (job.idx.empty() || job.ntgt == 0) continue;
    Cursor c;
    c.job = &job;
    c.gw = seam.gather_width(job.ntgt);
    c.acc.resize(c.gw * nloc);
    if (compensated) c.comp.resize(c.gw * nloc);
    live.push_back(std::move(c));
  }
  std::vector<CS> block(live.size() * bs * nloc);
  while (!live.empty()) {
    size_t width = 0;
    for (Cursor& c : live) {
      c.nb = std::min(per_lane * bs, c.job->idx.size() - c.i0);
      c.off = width;
      pair_form_block(c.job->src, c.job->idx.data() + c.i0, c.nb,
                      c.job->tgt + c.j * nloc, block.data() + width * nloc,
                      nloc);
      width += (c.nb + per_lane - 1) / per_lane;
    }
    seam.filter(block.data(), width);
    for (Cursor& c : live) {
      const PairJob<FS>& job = *c.job;
      const size_t slot = c.j % c.gw;
      cplx* acc = c.acc.data() + slot * nloc;
      cplx* comp = compensated ? c.comp.data() + slot * nloc : nullptr;
      if (c.i0 == 0) {
        std::fill(acc, acc + nloc, cplx(0.0));
        if (comp) std::fill(comp, comp + nloc, cplx(0.0));
      }
      const size_t* idx = job.idx.data() + c.i0;
      const CS* lanes = block.data() + c.off * nloc;
      if constexpr (per_lane == 2)
        accumulate_block(job.src, idx, job.d, c.nb, lanes, acc, comp, nloc);
      else if (job.weight)
        accumulate_weighted_block(job.weight, idx, c.nb, lanes, acc, comp,
                                  nloc);
      else
        accumulate_block(job.src, idx, job.d, c.nb, lanes, acc, comp, nloc);
      c.i0 += c.nb;
      if (c.i0 < job.idx.size()) continue;
      c.i0 = 0;
      if (slot + 1 == c.gw || c.j + 1 == job.ntgt)
        seam.gather(c.acc.data(), slot + 1, *job.out, c.j - slot);
      ++c.j;
    }
    const auto done = [](const Cursor& c) { return c.j == c.job->ntgt; };
    live.erase(std::remove_if(live.begin(), live.end(), done), live.end());
  }
}

FullGridSeam::FullGridSeam(const ExchangeOperator& x)
    : x_(x), scratch_(x.map().sphere().npw()) {}

size_t FullGridSeam::nloc() const { return x_.map().grid().size(); }

void FullGridSeam::sources(const la::MatC& coeffs, la::MatC& real) const {
  x_.map().to_real_batch(coeffs, real);
}
void FullGridSeam::sources(const la::MatC& coeffs, la::MatCf& real) const {
  x_.map().to_real_batch(coeffs, real);
}

void FullGridSeam::targets(const la::MatC& coeffs, la::MatC& real) const {
  to_real_columns(x_.map(), coeffs, real);
}
void FullGridSeam::targets(const la::MatC& coeffs, la::MatCf& real) const {
  to_real_columns(x_.map(), coeffs, real);
}

void FullGridSeam::filter(cplx* block, size_t nb) const {
  x_.kernel_filter_block(block, nb);
}
void FullGridSeam::filter(cplxf* block, size_t nb) const {
  x_.kernel_filter_block(block, nb);
}

void FullGridSeam::gather(const cplx* acc, size_t ncol, la::MatC& out,
                          size_t j0) const {
  const size_t ng = nloc();
  for (size_t c = 0; c < ncol; ++c)
    x_.gather_accumulate(acc + c * ng, scratch_.data(), out.col(j0 + c));
}

// Alg. 2 verbatim with the pair FFT inside the i loop on purpose — this
// reproduces the baseline's N^3 transform count (see the README, "The ring
// engine"), so it stays outside run_pairs. With batch_size > 1 the i loop
// is blocked: each block member transforms its own (redundant) copy of the
// pair density, preserving the count while going through the batched FFT
// engine. Same CS convention as above.
template <typename CS>
void ExchangeOperator::mixed_naive_blocks(const la::Matrix<CS>& src_real,
                                          const la::MatC& sigma,
                                          const la::MatC& tgt,
                                          la::MatC& out) const {
  const size_t ng = map_->grid().size();
  const size_t nsrc = src_real.cols();
  const size_t bs = std::max<size_t>(1, opt_.batch_size);
  const bool compensated = std::is_same_v<CS, cplxf> &&
                           opt_.precision == Precision::kSingleCompensated;

  std::vector<CS> tgt_real(ng), block(bs * ng);
  std::vector<cplx> acc(ng), comp(compensated ? ng : 0), gathered(tgt.rows());
  for (size_t j = 0; j < tgt.cols(); ++j) {
    map_->to_real(tgt.col(j), tgt_real.data());
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    std::fill(comp.begin(), comp.end(), cplx(0.0));
    for (size_t k = 0; k < nsrc; ++k) {
      const CS* sk = src_real.col(k);
      std::vector<size_t> active;
      active.reserve(nsrc);
      for (size_t i = 0; i < nsrc; ++i)
        if (sigma(i, k) != cplx(0.0)) active.push_back(i);
      for (size_t i0 = 0; i0 < active.size(); i0 += bs) {
        const size_t nb = std::min(bs, active.size() - i0);
#pragma omp parallel for schedule(static) collapse(2)
        for (size_t i = 0; i < nb; ++i)
          for (size_t r = 0; r < ng; ++r)
            block[i * ng + r] = std::conj(sk[r]) * tgt_real[r];
        kernel_filter_block(block.data(), nb);
#pragma omp parallel for schedule(static)
        for (size_t r = 0; r < ng; ++r) {
          for (size_t i = 0; i < nb; ++i) {
            const cplx w = sigma(active[i0 + i], k) * static_cast<real_t>(ng);
            const cplx term =
                w * static_cast<cplx>(src_real.col(active[i0 + i])[r]) *
                static_cast<cplx>(block[i * ng + r]);
            if (compensated)
              kahan_add(acc[r], comp[r], term);
            else
              acc[r] += term;
          }
        }
      }
    }
    map_->to_sphere(acc.data(), gathered.data());
    cplx* oj = out.col(j);
    const real_t a = -opt_.alpha;
    for (size_t p = 0; p < tgt.rows(); ++p) oj[p] += a * gathered[p];
  }
}

void ExchangeOperator::set_isdf_rank_factor(real_t c) {
  if (!(c > 0.0))
    throw Error("ExchangeOperator::set_isdf_rank_factor: factor must be "
                "positive (typical c in [4, 12])");
  opt_.isdf_rank_factor = c;
}

IsdfPointHold ExchangeOperator::hold_isdf_points(std::vector<size_t> points) {
  for (const size_t r : points) PTIM_CHECK(r < map_->grid().size());
  isdf_points_ = std::move(points);
  return IsdfPointHold(this);
}

void ExchangeOperator::apply_diag(const la::MatC& src,
                                  const std::vector<real_t>& d,
                                  const la::MatC& tgt, la::MatC& out,
                                  bool accumulate) const {
  ScopedTimer t("exchange.diag");
  PTIM_CHECK(d.size() == src.cols());
  if (opt_.compression == ExchangeCompression::kIsdf) {
    // Low-rank route: fit + GEMM apply (ham/isdf), handling the precision
    // edge itself. A band-parallel apply calls the same route with its
    // band slice instead of circulating (dist/exchange_dist).
    isdf::apply_diag(*this, src, d, tgt, out, accumulate,
                     isdf::whole(tgt.cols()));
    return;
  }
  if (!accumulate) out.fill(cplx(0.0));
  PTIM_CHECK(out.rows() == tgt.rows() && out.cols() == tgt.cols());
  const std::vector<DiagApplyJob> one{{&src, &d, &tgt, &out}};
  if (opt_.precision != Precision::kDouble)
    diag_pack<cplxf>(one);
  else
    diag_pack<cplx>(one);
}

template <typename CS>
void ExchangeOperator::diag_pack(const std::vector<DiagApplyJob>& jobs) const {
  using RS = typename CS::value_type;
  const FullGridSeam seam(*this);
  // Sources and targets go to real space once and stay there for the
  // whole pack (down-converted at the edge under the FP32 policy). A job
  // whose fields pass the Γ-point gate keeps only their real parts and
  // joins the pack of real jobs; any complex field leaves it in the complex
  // pack, exactly as with gamma_real off.
  std::vector<la::Matrix<CS>> src_c(jobs.size()), tgt_c(jobs.size());
  std::vector<std::vector<RS>> src_r(jobs.size()), tgt_r(jobs.size());
  std::vector<PairJob<CS>> pack;
  std::vector<PairJob<RS>> real_pack;
  for (size_t k = 0; k < jobs.size(); ++k) {
    const DiagApplyJob& job = jobs[k];
    const std::vector<real_t>& d = *job.d;
    std::vector<size_t> active;
    for (size_t i = 0; i < d.size(); ++i)
      if (d[i] != 0.0) active.push_back(i);
    const size_t ntgt = job.tgt->cols();
    if (active.empty() || ntgt == 0) continue;
    seam.sources(*job.src, src_c[k]);
    seam.targets(*job.tgt, tgt_c[k]);
    if (opt_.gamma_real && fields_are_real(src_c[k], active, tgt_c[k])) {
      src_r[k] = real_parts(src_c[k]);
      tgt_r[k] = real_parts(tgt_c[k]);
      real_pack.push_back({src_r[k].data(), d.data(), nullptr,
                           std::move(active), tgt_r[k].data(), ntgt,
                           job.out});
    } else {
      pack.push_back({src_c[k].data(), d.data(), nullptr, std::move(active),
                      tgt_c[k].data(), ntgt, job.out});
    }
  }
  run_pairs(seam, pack);
  run_pairs(seam, real_pack);
}

void ExchangeOperator::apply_diag_packed(const std::vector<DiagApplyJob>& jobs,
                                         bool accumulate) const {
  ScopedTimer t("exchange.diag_packed");
  for (const DiagApplyJob& job : jobs) {
    PTIM_CHECK(job.src && job.d && job.tgt && job.out);
    PTIM_CHECK(job.d->size() == job.src->cols());
    PTIM_CHECK(job.out->rows() == job.tgt->rows() &&
               job.out->cols() == job.tgt->cols());
    if (!accumulate) job.out->fill(cplx(0.0));
  }
  if (jobs.empty()) return;
  if (opt_.compression == ExchangeCompression::kIsdf) {
    // Each job gets its own fit (sources differ per trajectory), so there
    // is no shared FFT batch to pack; the per-job result is identical to a
    // standalone apply_diag on this operator by construction.
    for (const DiagApplyJob& job : jobs)
      isdf::apply_diag(*this, *job.src, *job.d, *job.tgt, *job.out,
                       /*accumulate=*/true, isdf::whole(job.tgt->cols()));
    return;
  }
  if (opt_.precision != Precision::kDouble)
    diag_pack<cplxf>(jobs);
  else
    diag_pack<cplx>(jobs);
}

void ExchangeOperator::apply_mixed_naive(const la::MatC& src,
                                         const la::MatC& sigma,
                                         const la::MatC& tgt, la::MatC& out,
                                         bool accumulate) const {
  ScopedTimer t("exchange.naive");
  const size_t nsrc = src.cols();
  PTIM_CHECK(sigma.rows() == nsrc && sigma.cols() == nsrc);
  if (!accumulate) out.fill(cplx(0.0));

  if (opt_.precision != Precision::kDouble) {
    la::MatCf src_real;
    map_->to_real_batch(src, src_real);
    mixed_naive_blocks(src_real, sigma, tgt, out);
    return;
  }
  la::MatC src_real;
  map_->to_real_batch(src, src_real);
  mixed_naive_blocks(src_real, sigma, tgt, out);
}

void ExchangeOperator::apply_mixed_diag(const la::MatC& src,
                                        const la::MatC& sigma,
                                        const la::MatC& tgt, la::MatC& out,
                                        bool accumulate) const {
  ScopedTimer t("exchange.mixed_diag");
  const size_t nsrc = src.cols();
  PTIM_CHECK(sigma.rows() == nsrc && sigma.cols() == nsrc);
  // sigma = Q D Q^H (Hermitian by construction in PT-IM). The
  // diagonalization and rotation stay FP64 in every precision mode — only
  // the pair pipeline inside apply_diag narrows.
  const auto eig = la::eig_herm(sigma);
  la::MatC rotated(src.rows(), nsrc);
  la::gemm_nn(src, eig.V, rotated);
  std::vector<real_t> d = eig.w;
  apply_diag(rotated, d, tgt, out, accumulate);
}

real_t ExchangeOperator::energy_diag(const la::MatC& src,
                                     const std::vector<real_t>& d) const {
  la::MatC w(src.rows(), src.cols());
  apply_diag(src, d, src, w, false);
  real_t e = 0.0;
  for (size_t b = 0; b < src.cols(); ++b)
    e += d[b] * std::real(la::dotc(src.rows(), src.col(b), w.col(b)));
  return e;
}

real_t ExchangeOperator::energy_mixed(const la::MatC& src,
                                      const la::MatC& sigma) const {
  const auto eig = la::eig_herm(sigma);
  la::MatC rotated(src.rows(), src.cols());
  la::gemm_nn(src, eig.V, rotated);
  return energy_diag(rotated, eig.w);
}

// The stage primitives and the engine exist for exactly these scalars.
template void ExchangeOperator::pair_form_block(const cplx*, const size_t*,
                                                size_t, const cplx*, cplx*,
                                                size_t) const;
template void ExchangeOperator::pair_form_block(const cplxf*, const size_t*,
                                                size_t, const cplxf*, cplxf*,
                                                size_t) const;
template void ExchangeOperator::accumulate_block(const cplx*, const size_t*,
                                                 const real_t*, size_t,
                                                 const cplx*, cplx*, cplx*,
                                                 size_t) const;
template void ExchangeOperator::accumulate_block(const cplxf*, const size_t*,
                                                 const real_t*, size_t,
                                                 const cplxf*, cplx*, cplx*,
                                                 size_t) const;
template void ExchangeOperator::accumulate_weighted_block(
    const cplx*, const size_t*, size_t, const cplx*, cplx*, cplx*,
    size_t) const;
template void ExchangeOperator::accumulate_weighted_block(
    const cplxf*, const size_t*, size_t, const cplxf*, cplx*, cplx*,
    size_t) const;
template void ExchangeOperator::pair_form_block(const real_t*, const size_t*,
                                                size_t, const real_t*, cplx*,
                                                size_t) const;
template void ExchangeOperator::pair_form_block(const realf_t*, const size_t*,
                                                size_t, const realf_t*, cplxf*,
                                                size_t) const;
template void ExchangeOperator::accumulate_block(const real_t*, const size_t*,
                                                 const real_t*, size_t,
                                                 const cplx*, cplx*, cplx*,
                                                 size_t) const;
template void ExchangeOperator::accumulate_block(const realf_t*, const size_t*,
                                                 const real_t*, size_t,
                                                 const cplxf*, cplx*, cplx*,
                                                 size_t) const;
template void ExchangeOperator::run_pairs(
    const PairSeam&, const std::vector<PairJob<cplx>>&) const;
template void ExchangeOperator::run_pairs(
    const PairSeam&, const std::vector<PairJob<cplxf>>&) const;
template void ExchangeOperator::run_pairs(
    const PairSeam&, const std::vector<PairJob<real_t>>&) const;
template void ExchangeOperator::run_pairs(
    const PairSeam&, const std::vector<PairJob<realf_t>>&) const;
template bool ExchangeOperator::fields_are_real(const la::MatC&,
                                                const std::vector<size_t>&,
                                                const la::MatC&);
template bool ExchangeOperator::fields_are_real(const la::MatCf&,
                                                const std::vector<size_t>&,
                                                const la::MatCf&);
template std::vector<real_t> ExchangeOperator::real_parts(const la::MatC&);
template std::vector<realf_t> ExchangeOperator::real_parts(const la::MatCf&);

}  // namespace ptim::ham
