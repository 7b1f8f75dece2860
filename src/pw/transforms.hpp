#pragma once
// Sphere <-> grid transforms with fixed normalization conventions.
//
//   psi(r) = (1/sqrt(Omega)) * sum_G c_G e^{i G.r}
//   <psi|psi'> = sum_G conj(c_G) c'_G          (orthonormal PW basis)
//   integral f(r) dr = dvol * sum_j f(r_j)
//
// to_real produces psi(r_j) on the grid (including the 1/sqrt(Omega));
// to_sphere is its exact inverse for band-limited functions.
//
// Every transform runs only the FFT lines the sphere reaches (its
// "sticks", fft::LineSubset): the inverse skips the axis-2 lines outside
// the sphere's (i0, i1) columns and the axis-1 lines outside its i0 set,
// which hold only zeros; the forward computes only those same lines,
// because the gather reads nothing else. At the 14^3 density grid of a
// 147-coefficient sphere that is 331 of 588 line transforms per column
// (axis 0 runs all 196), at the 7^3 wavefunction grid 135 of 147. Every
// output equals the full-box transform's: the gathered coefficients bit
// for bit, the real-space values too except that an exact zero may change
// sign.

#include <vector>

#include "fft/fft.hpp"
#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "la/matrix.hpp"

namespace ptim::pw {

// A (sphere, grid) pairing with its scatter map cached.
class SphereGridMap {
 public:
  SphereGridMap(const grid::GSphere& sphere, const grid::FftGrid& grid);

  const grid::GSphere& sphere() const { return *sphere_; }
  const grid::FftGrid& grid() const { return *grid_; }
  const std::vector<size_t>& map() const { return map_; }
  // The FFT lines every transform runs, and their number per column (one
  // 3-D transform; a full box runs n1*n2 + n0*n2 + n0*n1).
  const fft::LineSubset& lines() const { return lines_; }
  size_t lines_per_column() const;

  // c (npw) -> psi(r_j) (grid.size()); `work` must have grid.size() capacity.
  void to_real(const cplx* coeffs, cplx* real_space) const;
  // psi(r_j) -> c (npw). Discards components outside the sphere.
  void to_sphere(const cplx* real_space, cplx* coeffs) const;

  // Batched versions over the columns of a matrix.
  void to_real_batch(const la::MatC& coeffs, la::MatC& real_space) const;
  void to_sphere_batch(const la::MatC& real_space, la::MatC& coeffs) const;
  // In-place gather for hot paths: uses real_space as the FFT workspace
  // (its contents are left undefined) instead of copying the whole block.
  void to_sphere_batch_inplace(la::MatC& real_space, la::MatC& coeffs) const;

  // --- FP32 pipeline (Precision::kSingle*) -----------------------------
  // Down-convert-at-the-edge transforms: FP64 sphere coefficients are
  // rounded to FP32 during the scatter, the FFT runs on the float twin of
  // the grid, and the gather promotes back to FP64. These carry the
  // exact-exchange pair work and ring payloads; everything the propagator
  // accumulates stays FP64.
  void to_real(const cplx* coeffs, cplxf* real_space) const;
  void to_sphere(const cplxf* real_space, cplx* coeffs) const;
  void to_real_batch(const la::MatC& coeffs, la::MatCf& real_space) const;
  void to_sphere_batch(const la::MatCf& real_space, la::MatC& coeffs) const;

  // --- slab-distributed transforms (2-D band x grid layout) -------------
  // The normalization factors, exposed so dist/slab_exchange can reproduce
  // the exact to_real / to_sphere arithmetic when the sphere coefficients
  // are scattered into a y-pencil portion of the grid and the FFT runs as
  // a distributed slab transform (fft::DistFft3) instead of rank-locally.
  // Conventions (see to_real/to_sphere above): the FP64 single-column
  // to_real applies scale_to_real AFTER the inverse FFT's 1/Ng (one sweep,
  // x * (1/Ng) * scale_to_real); the batch and FP32 paths fold it into
  // the scatter. The slab code mirrors each path (running every line).
  real_t scale_to_real() const { return scale_to_real_; }
  real_t scale_to_sphere() const { return scale_to_sphere_; }

 private:
  const grid::GSphere* sphere_;
  const grid::FftGrid* grid_;
  std::vector<size_t> map_;
  fft::LineSubset lines_;   // built once from map_
  real_t scale_to_real_;    // Ng / sqrt(Omega) applied after inverse FFT
  real_t scale_to_sphere_;  // sqrt(Omega) / Ng applied after forward FFT
};

}  // namespace ptim::pw
