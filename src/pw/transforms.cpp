#include "pw/transforms.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ptim::pw {

namespace {

// The runs of consecutive values among `keys` (sorted, duplicates dropped).
std::vector<fft::LineRun> runs_of(std::vector<size_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<fft::LineRun> runs;
  for (const size_t k : keys) {
    if (!runs.empty() && runs.back().offset + runs.back().count == k)
      ++runs.back().count;
    else
      runs.push_back({k, 1});
  }
  return runs;
}

}  // namespace

SphereGridMap::SphereGridMap(const grid::GSphere& sphere,
                             const grid::FftGrid& grid)
    : sphere_(&sphere), grid_(&grid), map_(sphere.map_to(grid)) {
  const real_t omega = grid.lattice().volume();
  const auto ng = static_cast<real_t>(grid.size());
  scale_to_real_ = ng / std::sqrt(omega);
  scale_to_sphere_ = std::sqrt(omega) / ng;
  // The sphere's axis-2 lines are its (i0, i1) columns, its axis-1 lines
  // the i0 those columns take.
  const size_t n0 = grid.dims()[0], plane = n0 * grid.dims()[1];
  std::vector<size_t> xs, columns;
  for (const size_t g : map_) {
    xs.push_back(g % n0);
    columns.push_back(g % plane);
  }
  lines_.x = runs_of(std::move(xs));
  lines_.columns = runs_of(std::move(columns));
}

size_t SphereGridMap::lines_per_column() const {
  const auto& d = grid_->dims();
  size_t nx = 0, ncol = 0;
  for (const fft::LineRun& r : lines_.x) nx += r.count;
  for (const fft::LineRun& r : lines_.columns) ncol += r.count;
  return d[1] * d[2] + nx * d[2] + ncol;
}

void SphereGridMap::to_real(const cplx* coeffs, cplx* real_space) const {
  const size_t ng = grid_->size();
  std::fill(real_space, real_space + ng, cplx(0.0));
  for (size_t i = 0; i < map_.size(); ++i) real_space[map_[i]] = coeffs[i];
  grid_->fft().inverse_unscaled(real_space, &lines_);
  // The inverse's 1/Ng and then scale_to_real, in one sweep: the same two
  // roundings as Fft3::inverse followed by the output scale.
  const real_t inv_ng = 1.0 / static_cast<real_t>(ng);
  for (size_t j = 0; j < ng; ++j)
    real_space[j] = (real_space[j] * inv_ng) * scale_to_real_;
}

void SphereGridMap::to_sphere(const cplx* real_space, cplx* coeffs) const {
  const size_t ng = grid_->size();
  std::vector<cplx> work(real_space, real_space + ng);
  grid_->fft().forward(work.data(), &lines_);
  for (size_t i = 0; i < map_.size(); ++i)
    coeffs[i] = work[map_[i]] * scale_to_sphere_;
}

void SphereGridMap::to_real_batch(const la::MatC& coeffs,
                                  la::MatC& real_space) const {
  PTIM_CHECK(coeffs.rows() == map_.size());
  const size_t nb = coeffs.cols();
  const size_t npw = map_.size();
  real_space.resize(grid_->size(), nb);  // zero-fills
  // Scatter with the output scale folded in (the FFT is linear), then one
  // batched inverse transform for the whole block.
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nb; ++b) {
    const cplx* cb = coeffs.col(b);
    cplx* rb = real_space.col(b);
    for (size_t i = 0; i < npw; ++i) rb[map_[i]] = cb[i] * scale_to_real_;
  }
  grid_->fft().inverse_batch(real_space.data(), nb, &lines_);
}

void SphereGridMap::to_sphere_batch(const la::MatC& real_space,
                                    la::MatC& coeffs) const {
  la::MatC work = real_space;
  to_sphere_batch_inplace(work, coeffs);
}

void SphereGridMap::to_sphere_batch_inplace(la::MatC& real_space,
                                            la::MatC& coeffs) const {
  PTIM_CHECK(real_space.rows() == grid_->size());
  const size_t nb = real_space.cols();
  const size_t npw = map_.size();
  grid_->fft().forward_batch(real_space.data(), nb, &lines_);
  coeffs.resize(npw, nb);
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nb; ++b) {
    const cplx* wb = real_space.col(b);
    cplx* cb = coeffs.col(b);
    for (size_t i = 0; i < npw; ++i) cb[i] = wb[map_[i]] * scale_to_sphere_;
  }
}

// ----------------------------------------------------- FP32 pipeline ----

void SphereGridMap::to_real(const cplx* coeffs, cplxf* real_space) const {
  const size_t ng = grid_->size();
  std::fill(real_space, real_space + ng, cplxf(0.0f));
  // Output scale folded into the scatter in FP64 (the FFT is linear), so
  // each coefficient is rounded to FP32 exactly once.
  for (size_t i = 0; i < map_.size(); ++i)
    real_space[map_[i]] = static_cast<cplxf>(coeffs[i] * scale_to_real_);
  grid_->fft_f32().inverse(real_space, &lines_);  // scaled by 1/Ng
}

void SphereGridMap::to_sphere(const cplxf* real_space, cplx* coeffs) const {
  const size_t ng = grid_->size();
  std::vector<cplxf> work(real_space, real_space + ng);
  grid_->fft_f32().forward(work.data(), &lines_);
  for (size_t i = 0; i < map_.size(); ++i)
    coeffs[i] = static_cast<cplx>(work[map_[i]]) * scale_to_sphere_;
}

void SphereGridMap::to_real_batch(const la::MatC& coeffs,
                                  la::MatCf& real_space) const {
  PTIM_CHECK(coeffs.rows() == map_.size());
  const size_t nb = coeffs.cols();
  const size_t npw = map_.size();
  real_space.resize(grid_->size(), nb);  // zero-fills
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nb; ++b) {
    const cplx* cb = coeffs.col(b);
    cplxf* rb = real_space.col(b);
    for (size_t i = 0; i < npw; ++i)
      rb[map_[i]] = static_cast<cplxf>(cb[i] * scale_to_real_);
  }
  grid_->fft_f32().inverse_batch(real_space.data(), nb, &lines_);
}

void SphereGridMap::to_sphere_batch(const la::MatCf& real_space,
                                    la::MatC& coeffs) const {
  PTIM_CHECK(real_space.rows() == grid_->size());
  const size_t nb = real_space.cols();
  const size_t npw = map_.size();
  la::MatCf work = real_space;
  grid_->fft_f32().forward_batch(work.data(), nb, &lines_);
  coeffs.resize(npw, nb);
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nb; ++b) {
    const cplxf* wb = work.col(b);
    cplx* cb = coeffs.col(b);
    for (size_t i = 0; i < npw; ++i)
      cb[i] = static_cast<cplx>(wb[map_[i]]) * scale_to_sphere_;
  }
}

}  // namespace ptim::pw
