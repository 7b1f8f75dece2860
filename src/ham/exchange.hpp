#pragma once
// Screened Fock exchange operator (the hybrid-functional cost driver).
//
// Kernel: HSE-style short-range Coulomb, K(G) = 4 pi/G^2 (1 - e^{-G^2/4 mu^2})
// with the finite limit K(0) = pi/mu^2 — this is why Gamma-only hybrid
// calculations are well-posed here. A bare-Coulomb mode with a spherically
// truncated G = 0 regularization is provided for ablation.
//
// Three application paths, mirroring the paper's progression:
//  * apply_diag        — diagonal occupations d_i: O(N^2) pair FFTs
//                        (Eq. 9 / Eq. 13),
//  * apply_mixed_naive — Alg. 2 verbatim: triple (k,i,j) loop with the FFT
//                        in the innermost loop, O(N^3) FFTs. This is the
//                        paper's baseline *including* its redundancy,
//  * apply_mixed_diag  — the "Diag" optimization: sigma = Q D Q^H,
//                        phi' = Phi Q, then apply_diag (Sec. IV-A1).
// All produce identical results (tests enforce agreement to 1e-12).
//
// Every dense apply apart from Alg. 2's baseline runs ONE block engine,
// run_pairs: serial apply_diag is a one-job pack, apply_diag_packed an
// N-job pack, and each round of the band-parallel exchange (1-D and 2-D,
// occupation- and theta-weighted; dist/exchange_dist) a one-job pack over
// the origin rank's slab. Where the fields live sits behind PairSeam: the
// whole wavefunction grid (FullGridSeam) or one rank's z slab
// (dist::GridContext). Γ-point real fields (gamma_real) are a kind of job
// of the same engine: two real pair densities per FFT lane.
//
// Precision policy (ExchangeOptions::precision): with Precision::kSingle*
// the pair densities, their FFTs and the kernel multiply run in FP32 —
// sources and targets are down-converted once at the real-space edge — while
// the per-grid-point accumulation of the exchange contribution and the final
// gather back to the sphere stay in FP64 (Kahan-compensated under
// kSingleCompensated). The same policy makes the distributed ring circulate
// FP32 slabs (half the bytes); see dist/exchange_dist. The propagated
// trajectory is always FP64.
//
// The mixing fraction alpha is folded into the returned operator so callers
// always see  out (+)= alpha * Vx[P] * targets.

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "pw/transforms.hpp"

namespace ptim::ham {

// Compression of the diag-exchange apply: kDense runs the O(nb^2)
// pair-FFT pipeline; kIsdf factors the pair densities through Nmu =
// isdf_rank_factor * nb interpolation points (ham/isdf) so an apply is
// dense GEMMs plus 2 Nmu fit FFTs — O(nb * Nmu) instead of O(nb^2)
// transforms. The dense path is bitwise-unaffected by the knob existing.
enum class ExchangeCompression { kDense, kIsdf };

class ExchangeOperator;
class PairSeam;

// Scope of an ISDF point set held on an exchange operator
// (ExchangeOperator::hold_isdf_points): the set is released when the scope
// ends or release() is called, whether the PT-IM step that installed it
// finished or was abandoned, so no set outlives its step. Move-only.
class IsdfPointHold {
 public:
  IsdfPointHold() = default;
  IsdfPointHold(IsdfPointHold&& o) noexcept
      : x_(std::exchange(o.x_, nullptr)) {}
  IsdfPointHold& operator=(IsdfPointHold&& o) noexcept {
    if (this != &o) {
      release();
      x_ = std::exchange(o.x_, nullptr);
    }
    return *this;
  }
  IsdfPointHold(const IsdfPointHold&) = delete;
  IsdfPointHold& operator=(const IsdfPointHold&) = delete;
  ~IsdfPointHold() { release(); }

  void release();

 private:
  friend class ExchangeOperator;
  explicit IsdfPointHold(ExchangeOperator* x) : x_(x) {}
  ExchangeOperator* x_ = nullptr;
};

struct ExchangeOptions {
  real_t alpha = 0.25;  // hybrid mixing fraction (HSE06)
  real_t mu = 0.106;    // screening parameter, bohr^-1 (HSE06: 0.2 A^-1)
  bool screened = true;
  // Source orbitals per batched-FFT block. Pair densities are formed,
  // transformed and accumulated in blocks of this size through
  // Fft3::forward_batch/inverse_batch; 1 runs width-1 blocks (one pair FFT
  // at a time), the ablation baseline. Results are bitwise equal at every
  // width.
  size_t batch_size = 8;
  // Scalar type of the pair-FFT hot path and ring payloads (see above).
  Precision precision = Precision::kDouble;
  // Low-rank compression of the diag apply (see enum above). The ISDF fit
  // is rebuilt from the sources at every apply, on interpolation points
  // selected fresh unless the operator holds a set for the current PT-IM
  // step (ExchangeOperator::hold_isdf_points). No set outlives its step,
  // so checkpoints stay compression-agnostic.
  ExchangeCompression compression = ExchangeCompression::kDense;
  // ISDF rank factor c: Nmu = min(Ng, ceil(c * max(nb_active, ntgt))).
  // c = 8 lands the apply within ~1e-6 relative of kDense on the systems
  // the golden suite pins; see the bench_fig7_accuracy rank sweep.
  real_t isdf_rank_factor = 8.0;
  // Γ-point real-wavefunction fast path. At the Γ point orbitals can be
  // chosen real, so every pair density conj(phi_i) psi_j is a REAL field
  // and two of them ride one complex FFT lane (z = rho_a + i rho_b) of the
  // pair engine (run_pairs, real jobs). The screened kernel K(G) is real
  // and even, so filtering the packed lane filters both densities exactly
  // — no spectrum unscramble is needed and the pair-FFT count HALVES
  // (2*ceil(nb/2) per target instead of 2*nb). Enabling this is a
  // detection gate, not a promise: every dense diag apply (serial, packed
  // and 1-D band-parallel) checks at runtime that its sources with nonzero
  // occupation and its targets are real in real space (fields_are_real)
  // and falls back BITWISE to the complex pipeline when they are not
  // (propagated RT-TDDFT orbitals are complex, so golden trajectories are
  // unaffected). 2-D and theta-weighted applies never take this path.
  // Within the real path, results are bitwise-invariant across batch sizes
  // and distributed circulation patterns (pinned in tests); agreement with
  // the complex pipeline on real orbitals is ~1e-13 relative (the packed
  // path drops the complex path's imaginary dust).
  bool gamma_real = false;
};

class ExchangeOperator {
 public:
  ExchangeOperator(const pw::SphereGridMap& wfc_map, ExchangeOptions opt);

  const ExchangeOptions& options() const { return opt_; }
  const std::vector<real_t>& kernel() const { return kernel_; }
  // FP32 twin of the kernel table (rounded once) — the slab-distributed
  // exchange filter (dist/slab_exchange) indexes it by global grid index.
  const std::vector<realf_t>& kernel_f32() const { return kernelf_; }

  // Switch the pair-FFT precision in place (both kernel tables are always
  // built); benches/tests sweep modes on one operator this way.
  void set_precision(Precision p) { opt_.precision = p; }
  Precision precision() const { return opt_.precision; }

  // Batched-FFT block width of the pair pipeline. Bit-identical across
  // widths (the per-column block partitioning only regroups the same
  // per-lane transforms and the same in-order FP64 accumulation), so this
  // is a pure throughput knob.
  void set_batch_size(size_t bs) { opt_.batch_size = std::max<size_t>(1, bs); }
  size_t batch_size() const { return opt_.batch_size; }

  // Low-rank compression of the diag apply (ham/isdf). Unlike the
  // throughput knobs above this changes the NUMBERS (within the rank
  // sweep's accuracy envelope). The fit is derived from the sources at
  // every apply; only its interpolation points may be held (below).
  void set_compression(ExchangeCompression c) { opt_.compression = c; }
  ExchangeCompression compression() const { return opt_.compression; }
  void set_isdf_rank_factor(real_t c);
  real_t isdf_rank_factor() const { return opt_.isdf_rank_factor; }

  // ISDF interpolation points held across applies: per-step state of a
  // PT-IM-ACE step (installed through Hamiltonian::hold_isdf_points, the
  // way set_ace installs the ACE surrogate). While a set is held every
  // kIsdf diag apply fits on it and skips the sketch, the quasi-density
  // and the QRCP selection (serial and band-parallel); with none held
  // (empty, the default) each apply selects its own points. kDense
  // ignores it. The set stays until the returned scope ends.
  [[nodiscard]] IsdfPointHold hold_isdf_points(std::vector<size_t> points);
  const std::vector<size_t>& isdf_points() const { return isdf_points_; }

  // Γ-point real-pair fast path (see ExchangeOptions::gamma_real). Safe to
  // toggle at any time: applies whose fields are not actually real fall
  // back bitwise to the complex pipeline.
  void set_gamma_real(bool on) { opt_.gamma_real = on; }
  bool gamma_real() const { return opt_.gamma_real; }

  // out (+)= alpha*Vx*tgt with sources (src, d). src/tgt/out: npw x nband.
  void apply_diag(const la::MatC& src, const std::vector<real_t>& d,
                  const la::MatC& tgt, la::MatC& out,
                  bool accumulate = false) const;

  // One independent apply_diag problem of a packed application: the job's
  // sources/occupations/targets are its own, only the batched pair FFTs are
  // shared with the other jobs of the pack.
  struct DiagApplyJob {
    const la::MatC* src = nullptr;        // npw x nsrc source orbitals
    const std::vector<real_t>* d = nullptr;  // nsrc occupations
    const la::MatC* tgt = nullptr;        // npw x ntgt targets
    la::MatC* out = nullptr;              // accumulated result, tgt shape
  };

  // Apply several independent diag-exchange problems through SHARED batched
  // pair FFTs: the N-job pack of run_pairs. Each round takes one batch_size
  // block from every unfinished job, concatenates them into a single
  // forward/inverse batch, then accumulates each slice back into its own
  // job. The ensemble driver packs one job per in-flight trajectory this
  // way. Per job the result and the pair-FFT count are BITWISE identical to
  // a standalone apply_diag call: every job keeps its own column order,
  // block partitioning and FP64 accumulation order, and each lane of the
  // batched FFT transforms independently of its neighbors (see fft/fft.hpp).
  // Jobs whose fields pass the Γ-point gate (gamma_real) run as one more
  // pack of real jobs, sharing FFT rounds with each other; under kIsdf
  // every job is a standalone apply on THIS operator, fitted on its held
  // point set.
  void apply_diag_packed(const std::vector<DiagApplyJob>& jobs,
                         bool accumulate = false) const;

  // Paper Alg. 2 baseline: full sigma, triple loop, FFT innermost.
  void apply_mixed_naive(const la::MatC& src, const la::MatC& sigma,
                         const la::MatC& tgt, la::MatC& out,
                         bool accumulate = false) const;

  // Diag optimization: diagonalize sigma, rotate sources, call apply_diag.
  void apply_mixed_diag(const la::MatC& src, const la::MatC& sigma,
                        const la::MatC& tgt, la::MatC& out,
                        bool accumulate = false) const;

  // --- the dense pair engine ---------------------------------------------
  // One job of run_pairs. FS is the field scalar: cplx / cplxf for complex
  // fields (the FP64 / FP32 pipelines), real_t / realf_t for Γ-point fields
  // that passed the realness gate (fields_are_real; the job holds their
  // real parts). Fields are seam.nloc() points each; field s of the job
  // starts at src + s * nloc. idx lists, in order, the fields that take
  // part, each weighted either by its occupation d[s] (weight == nullptr;
  // idx holds the nonzero ones) or, in complex jobs only, by the
  // real-space field weight + s * nloc (the sigma-contracted theta of the
  // mixed-state path; d is unused). An interleaved [phi_b | theta_b]
  // payload lists phi_b as field 2b with weight = src + nloc. For each of
  // the ntgt target fields t_j,
  //   out_j += -alpha * sphere( sum_s w_s(r) IFFT[K FFT[conj(f_s) t_j]](r) ).
  template <typename FS>
  struct PairJob {
    const FS* src = nullptr;
    const real_t* d = nullptr;
    const FS* weight = nullptr;
    std::vector<size_t> idx;
    const FS* tgt = nullptr;  // ntgt fields, nloc points each
    size_t ntgt = 0;
    la::MatC* out = nullptr;  // npw x ntgt, accumulated into
  };
  // Run a pack of jobs: each round takes the next block of every
  // unfinished job, forms its pair densities into one shared buffer of
  // FFT lanes, filters it with one seam.filter call and accumulates each
  // job's slice (FP64, Kahan-compensated under kSingleCompensated);
  // finished target columns go through seam.gather. A complex block is up
  // to batch_size densities, one per lane. A real block is up to
  // 2 * batch_size densities, two per lane (K(G) is real and even, so
  // filtering the lane filters both exactly); its boundaries sit at even
  // offsets, so which two densities share a lane — and with it every bit
  // of the result — never depends on batch_size. Defined for FS = cplx,
  // cplxf, real_t and realf_t.
  template <typename FS>
  void run_pairs(const PairSeam& seam,
                 const std::vector<PairJob<FS>>& jobs) const;

  // Γ-point realness gate shared by the serial applies and the 1-D band
  // vote (dist/exchange_dist; every rank must apply the SAME test before
  // agreeing on real payloads): true when the source columns listed in idx
  // and every target column (real-space fields from a seam) have max |Im|
  // <= tol * max |Re|, with tol far above the precision's FFT imaginary
  // dust and far below any genuine complex phase. An all-zero field counts
  // as real. Defined for CS = cplx and cplxf.
  template <typename CS>
  static bool fields_are_real(const la::Matrix<CS>& src,
                              const std::vector<size_t>& idx,
                              const la::Matrix<CS>& tgt);
  // The real parts of m, column-major (the fields a real job holds).
  template <typename CS>
  static std::vector<typename CS::value_type> real_parts(
      const la::Matrix<CS>& m);

  // --- stage primitives --------------------------------------------------
  // The hot-path stages of the pair engine. run_pairs is built from
  // exactly these calls, so a stage-by-stage composition is bit-identical
  // to the fused apply. idx selects source columns: source i of the block
  // is column idx[i] of src_real (the compressed active-occupation list).
  //
  // The pointwise stages are member templates over the field scalar (CS =
  // cplx for the FP64 pipeline, cplxf for FP32; RS = real_t / realf_t for
  // the real fields of Γ-point jobs, whose lanes are std::complex<RS>),
  // explicitly instantiated in exchange.cpp for those scalars only. nloc
  // is the per-orbital element count (column stride and loop bound): the
  // full grid by default, the z-slab size for the 2-D band x grid
  // decomposition (dist/slab_exchange). The body is shared, so
  // the slab composition stays bit-identical to the full-grid one on the
  // points each rank owns. The unscaled-synthesis weight always uses the
  // GLOBAL grid size (it undoes the inverse-FFT 1/Ng normalization, a
  // property of the transform, not of the slab).
  static constexpr size_t kFullGrid = static_cast<size_t>(-1);  // nloc = Ng

  // pair_form_block: block[i] = conj(src[idx[i]]) ⊙ tgt_real (nb pairs).
  template <typename CS>
  void pair_form_block(const CS* src_real, const size_t* idx, size_t nb,
                       const CS* tgt_real, CS* block,
                       size_t nloc = kFullGrid) const;
  // Real fields: nb densities into ceil(nb/2) lanes,
  //   block[q] = src[idx[2q]] ⊙ tgt  +  i * src[idx[2q+1]] ⊙ tgt
  // (an odd trailing density rides a zero imaginary part).
  template <typename RS>
  void pair_form_block(const RS* src_real, const size_t* idx, size_t nb,
                       const RS* tgt_real, std::complex<RS>* block,
                       size_t nloc = kFullGrid) const;
  // kernel_filter_block: forward batch FFT, K(G)/Ng multiply, inverse batch
  // FFT on nb pair densities (with FFT-count bookkeeping).
  void kernel_filter_block(cplx* block, size_t nb) const;
  void kernel_filter_block(cplxf* block, size_t nb) const;
  // accumulate_block: acc[r] += sum_i d[idx[i]]*Ng * src[idx[i]](r) *
  // block[i](r), FP64 regardless of the block scalar; comp != nullptr
  // selects the Kahan-compensated sum (kSingleCompensated policy).
  template <typename CS>
  void accumulate_block(const CS* src_real, const size_t* idx, const real_t* d,
                        size_t nb, const CS* block, cplx* acc, cplx* comp,
                        size_t nloc = kFullGrid) const;
  // Real fields: block[i](r) above becomes Re (even i) or Im (odd i) of
  // lane i/2. Only the real parts of acc and comp move; their imaginary
  // parts stay exactly zero.
  template <typename RS>
  void accumulate_block(const RS* src_real, const size_t* idx, const real_t* d,
                        size_t nb, const std::complex<RS>* block, cplx* acc,
                        cplx* comp, size_t nloc = kFullGrid) const;
  // Weighted variant (mixed-state path): the scalar occupation is replaced
  // by the real-space weight field w, acc[r] += sum_i Ng * w[idx[i]](r) *
  // block[i](r). Records the same xchg.accumulate span.
  template <typename CS>
  void accumulate_weighted_block(const CS* weight_real, const size_t* idx,
                                 size_t nb, const CS* block, cplx* acc,
                                 cplx* comp, size_t nloc = kFullGrid) const;

  // gather_accumulate: out_col[p] += -alpha * to_sphere(acc)[p]. scratch
  // must hold npw elements; always FP64 (the paper keeps the gather exact).
  void gather_accumulate(const cplx* acc, cplx* scratch, cplx* out_col) const;

  // Real-space transform helper for the distributed paths.
  const pw::SphereGridMap& map() const { return *map_; }

  // Exchange energy E_x = alpha * sum_i d_i <phi_i|Vx|phi_i> (negative).
  // Pass the same orbitals as sources and probes.
  real_t energy_diag(const la::MatC& src, const std::vector<real_t>& d) const;
  real_t energy_mixed(const la::MatC& src, const la::MatC& sigma) const;

  // FFT count bookkeeping (reset per bench) — validates the paper's
  // N^3 -> N^2 complexity claims. Counted identically in both precisions.
  mutable std::atomic<long> fft_count{0};

 private:
  // The dense diag applies (apply_diag, apply_diag_packed) after their
  // checks: sources and targets to real space through the full-grid seam,
  // the Γ-point gate per job, then one run_pairs pack over the complex
  // jobs and one over the real jobs.
  template <typename CS>
  void diag_pack(const std::vector<DiagApplyJob>& jobs) const;
  template <typename CS>
  void mixed_naive_blocks(const la::Matrix<CS>& src_real,
                          const la::MatC& sigma, const la::MatC& tgt,
                          la::MatC& out) const;

  const pw::SphereGridMap* map_;
  ExchangeOptions opt_;
  std::vector<real_t> kernel_;    // K(G) on the wavefunction grid
  std::vector<realf_t> kernelf_;  // K(G) rounded once for the FP32 path
  std::vector<size_t> isdf_points_;  // held ISDF points (empty: none)

  friend class IsdfPointHold;
};

// Where the fields of a run_pairs apply live. The engine only sees nloc
// points per field and runs the pointwise stages itself; the seam places
// the fields in real space and runs the two stages that are not pointwise,
// the K(G) filter and the sphere gather. Two implementations: FullGridSeam
// (the whole wavefunction grid: serial applies and the 1-D band ring) and
// the z-slab seam of the 2-D layout (dist/slab_exchange). Per grid point
// both do the same arithmetic, so at pb = 1 a 2-D apply equals the serial
// one bit for bit (pinned in test_grid2d).
class PairSeam {
 public:
  PairSeam() = default;
  PairSeam(const PairSeam&) = delete;
  PairSeam& operator=(const PairSeam&) = delete;
  virtual ~PairSeam() = default;
  // Points per field.
  virtual size_t nloc() const = 0;
  // Sources to real space, nloc x m (to_real_batch: scale folded into the
  // scatter).
  virtual void sources(const la::MatC& coeffs, la::MatC& real) const = 0;
  virtual void sources(const la::MatC& coeffs, la::MatCf& real) const = 0;
  // Targets to real space, nloc x m, with the single-column to_real
  // convention (FP64 scales after the FFT, FP32 folds the scale in).
  virtual void targets(const la::MatC& coeffs, la::MatC& real) const = 0;
  virtual void targets(const la::MatC& coeffs, la::MatCf& real) const = 0;
  // K(G)/Ng filter of nb pair densities in place; fft_count += 2 nb.
  virtual void filter(cplx* block, size_t nb) const = 0;
  virtual void filter(cplxf* block, size_t nb) const = 0;
  // Target columns one gather takes: 1 gathers each column as soon as its
  // sources are done, ntgt a job's columns at once.
  virtual size_t gather_width(size_t ntgt) const = 0;
  // out column j0 + c += -alpha * sphere(acc column c), for c < ncol.
  virtual void gather(const cplx* acc, size_t ncol, la::MatC& out,
                      size_t j0) const = 0;
};

// The whole wavefunction grid: nloc = Ng, rank-local transforms, one Ng
// accumulator per job gathered column by column. Never communicates.
class FullGridSeam final : public PairSeam {
 public:
  explicit FullGridSeam(const ExchangeOperator& x);
  size_t nloc() const override;
  void sources(const la::MatC& coeffs, la::MatC& real) const override;
  void sources(const la::MatC& coeffs, la::MatCf& real) const override;
  void targets(const la::MatC& coeffs, la::MatC& real) const override;
  void targets(const la::MatC& coeffs, la::MatCf& real) const override;
  void filter(cplx* block, size_t nb) const override;
  void filter(cplxf* block, size_t nb) const override;
  size_t gather_width(size_t) const override { return 1; }
  void gather(const cplx* acc, size_t ncol, la::MatC& out,
              size_t j0) const override;

 private:
  const ExchangeOperator& x_;
  mutable std::vector<cplx> scratch_;  // npw gather workspace
};

inline void IsdfPointHold::release() {
  if (x_) x_->isdf_points_.clear();
  x_ = nullptr;
}

}  // namespace ptim::ham
