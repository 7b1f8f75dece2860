#pragma once
// ISDF (interpolative separable density fitting) compression of the
// screened-exchange operator — ExchangeCompression::kIsdf.
//
// The diag exchange forms one pair density conj(phi_i) psi_j per (source,
// target) pair and filters each through the Coulomb kernel: O(nb^2) FFTs
// per apply. ISDF factors every pair density through Nmu = c * nb shared
// interpolation points r_mu,
//   conj(phi_i(r)) psi_j(r) ~= sum_mu zeta_mu(r) conj(phi_i(r_mu))
//                                               psi_j(r_mu),
// so the kernel filter moves onto the Nmu fitted vectors zeta_mu once per
// operator refresh (2 Nmu batched FFTs) and the apply itself collapses to
// dense GEMMs: with w = kernel_filter(zeta) and
//   G(r, mu) = sum_i d_i phi_i(r) conj(phi_i(r_mu)),
// the exchange accumulator of target j is
//   acc_j(r) = sum_mu [Ng w_mu(r) G(r, mu)] psi_j(r_mu),
// one (Ng x Nmu) x (Nmu x ntgt) product — O(nb * Nmu) work, zero pair
// FFTs. The Ng factor undoes the inverse-FFT scaling exactly like the
// dense accumulate stage, so kDense and kIsdf share every convention.
//
// Pipeline per refresh (the fit is rebuilt at every apply_diag, i.e. on
// each PT-IM/ACE outer iteration):
//  1. point selection: centroid-weighted randomized QRCP (la/qr) on the
//     sketched band-product matrix M[(a,b), r] = conj(g1_a(r)) g2_b(r)
//     sqrt(rho(r)), candidates pre-ranked by the quasi-density rho.
//     Skipped while the operator holds a point set
//     (ExchangeOperator::hold_isdf_points): within one PT-IM-ACE step the
//     propagator selects at the t_n build and once more at the first
//     midpoint build, then holds that midpoint set for the step's later
//     builds, so the outer loop sees one fit basis and converges. No set
//     outlives its step, which keeps checkpoints compression-agnostic;
//  2. least-squares fit of zeta via the separable normal equations
//     (Gram-matrix Hadamard products; ridged Cholesky solve);
//  3. kernel filter of zeta through the SAME batched-FFT stage primitive
//     as the dense path (ExchangeOperator::kernel_filter_block, so the
//     Precision policy and FFT bookkeeping carry over);
//  4. assembly of the apply matrix Ng w (.) G.
//
// Precision policy: under kSingle* the sources/targets are rounded at the
// real-space edge (exactly like kDense) and the zeta filter runs the FP32
// batched FFTs; the fit algebra and the final accumulation stay FP64, with
// the apply contraction Kahan-compensated under kSingleCompensated.
//
// One implementation serves every layout. A band-parallel rank passes its
// band block and a BandSlice: each band-summed quantity (the sketches, the
// quasi-density, the Gram blocks) is the rank's partial followed by one
// band sum, as in PWDFT. The sum adds in rank order, so every rank derives
// the same points and the same fit, bit for bit. A serial run passes the
// whole problem and no sum, and its partials are the sums.

#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "la/mixer.hpp"

namespace ptim::ham {

class ExchangeOperator;

namespace isdf {

// Fixed sketch seeds: sources and targets draw independent deterministic
// streams, identical on every run and rank.
constexpr std::uint64_t kSeedSources = 0x15DF000000000001ull;
constexpr std::uint64_t kSeedTargets = 0x15DF000000000002ull;

// Interpolation rank: Nmu = min(Ng, ceil(c * max(nsrc, ntgt))).
size_t rank(real_t rank_factor, size_t nsrc, size_t ntgt, size_t ng);

// Random mixtures per side, k = ceil(sqrt(Nmu)), so the selection matrix
// has k^2 >= Nmu rows.
size_t sketch_width(size_t nmu);

// Deterministic dense sketch (nbands x k, fixed-seed xoshiro stream). Rows
// are indexed by GLOBAL band index: band-parallel ranks slice rows of the
// same matrix, so their band-sum partials add up to the serial sketch.
la::MatC sketch_matrix(size_t nbands, size_t k, std::uint64_t seed);

// A rank's place in a diag problem. It holds the sources src_off.. of the
// nb bands the occupations cover, and the targets tgt_off.. of ntgt.
// band_sum adds n reals over the band communicator in place, in rank order
// (Comm::allreduce_sum); a complex block goes as 2n reals, which gives the
// complex sum's bits. It is empty when one rank holds the whole problem.
// Every decision to run a band sum reads only replicated values (the
// occupations, nb, ntgt, and whether the targets are the sources), so a
// rank with an empty block joins every sum.
struct BandSlice {
  size_t src_off = 0;
  size_t tgt_off = 0;
  size_t ntgt = 0;
  la::AndersonMixer::Reduction band_sum;
};

// The whole problem on one rank: every source, ntgt targets, no band sum.
inline BandSlice whole(size_t ntgt) { return {0, 0, ntgt, {}}; }

// Centroid-weighted randomized QRCP point selection. g1 = Phi R1 and
// g2 = Psi R2 are the band-summed sketches (Ng x k each), rho the
// band-summed quasi-density weight (sum_i |d_i| |phi_i|^2 + sum_j
// |psi_j|^2). Candidates are the top grid points by rho (deterministic
// ordering), the pivot sequence of the weighted product matrix picks nmu
// of them; returned sorted ascending. Bitwise-deterministic.
std::vector<size_t> select_points(const la::MatC& g1, const la::MatC& g2,
                                  const std::vector<real_t>& rho, size_t nmu);

// The fitted low-rank kernel. The interpolation vectors zeta are never
// materialized: the fit filters them batch-wise straight into apply_mat.
struct Fit {
  std::vector<size_t> points;  // nmu grid indices, ascending
  la::MatC apply_mat;          // Ng x nmu: Ng * w_mu(r) * G(r, mu)
};

// Solve the fit from band-summed Gram blocks and filter through the
// operator's kernel:
//   c_src(r, nu) = sum_i phi_i(r) conj(phi_i(r_nu))      (Ng x Nmu)
//   c_tgt(r, nu) = sum_j psi_j(r) conj(psi_j(r_nu))      (Ng x Nmu)
//   g(r, mu)     = sum_i d_i phi_i(r) conj(phi_i(r_mu))  (Ng x Nmu)
// The normal-equation matrix A(mu, nu) = conj(c_src(r_mu, nu)) *
// c_tgt(r_mu, nu) is sampled from the Gram rows.
Fit fit(const ExchangeOperator& x, std::vector<size_t> points,
        const la::MatC& c_src, const la::MatC& c_tgt, const la::MatC& g);

// Apply the fitted kernel: tgt_pts (Nmu x ntgt) holds the targets sampled
// at the interpolation points; column j of out accumulates
// -alpha * to_sphere(apply_mat * tgt_pts(:, j)), FP64 (Kahan-compensated
// under kSingleCompensated). out must be pre-zeroed unless accumulating.
void apply(const ExchangeOperator& x, const Fit& f, const la::MatC& tgt_pts,
           la::MatC& out);

// Orbitals (sphere coefficients) to real space through the operator's
// precision edge: under kSingle* they round through the FP32 transform
// exactly like kDense, then promote so the fit algebra runs FP64 on the
// rounded values.
la::MatC to_real_policy(const ExchangeOperator& x, const la::MatC& v);

// Point selection for diag sources/targets already in real space (FP64
// containers, already through the precision edge): the rank's blocks of
// the problem `b` places. Sums the sketches and the quasi-density of the
// active sources over the bands and runs select_points: the set apply_diag
// selects when none is held, the same on every rank. Empty when no source
// is occupied or there are no targets. Collective under a band sum.
std::vector<size_t> select_diag(const ExchangeOperator& x,
                                const la::MatC& src_real,
                                const std::vector<real_t>& d,
                                const la::MatC& tgt_real, const BandSlice& b);

// The fit on the given interpolation points: samples the rank's active
// sources and targets there, sums the Gram blocks over the bands and
// solves. Passing the source block itself as tgt_real (the PT-IM and ACE
// shape) reuses c_src as c_tgt when every source is occupied. Collective
// under a band sum.
Fit fit_diag(const ExchangeOperator& x, const la::MatC& src_real,
             const std::vector<real_t>& d, const la::MatC& tgt_real,
             std::vector<size_t> points, const BandSlice& b);

// Full ISDF diag apply (the ExchangeCompression::kIsdf route of
// ExchangeOperator::apply_diag, and of the band-parallel diag exchange):
// the rank's sphere-coefficient source and target blocks. Handles the
// precision edge conversion, then fits on the operator's held point set,
// or on a fresh select_diag when none is held, and applies the fit to the
// rank's targets. Collective under a band sum.
void apply_diag(const ExchangeOperator& x, const la::MatC& src,
                const std::vector<real_t>& d, const la::MatC& tgt,
                la::MatC& out, bool accumulate, const BandSlice& b);

}  // namespace isdf
}  // namespace ptim::ham
