#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "la/simd.hpp"

namespace ptim::la {

PivotedQr qr_column_pivot(Matrix<cplx> a, size_t max_rank) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  const size_t steps = std::min(max_rank, std::min(m, n));
  PivotedQr out;
  out.pivots.reserve(steps);
  out.rdiag.reserve(steps);
  if (steps == 0) return out;

  // The candidate columns live in split-plane tiles of kLanes columns
  // (la/simd.hpp), the lanes of the reflector update. A full tile fills
  // exactly the storage of its columns, so it is built in place in a; the
  // last, partial one lives in scratch, beside the staging copy each tile
  // is built from.
  const simd::Kernels& ker = simd::active();
  constexpr size_t w = simd::kLanes;
  const size_t ntiles = (n + w - 1) / w, nfull = n / w;
  const size_t tsize = 2 * m * w;
  double* tail = simd::scratch(2 * tsize);
  double* staging = tail + tsize;
  auto tile = [&](size_t t) {
    return t < nfull ? as_doubles(a.data()) + t * tsize : tail;
  };
  // Column j's element i, read from the tiles.
  auto at = [&](size_t j, size_t i) {
    const double* p = tile(j / w) + i * w + j % w;
    return cplx(p[0], p[m * w]);
  };
  // Residual norm^2 per column plus the value at the last exact
  // evaluation, for the classic downdate-accuracy test; one entry per
  // lane, so the padding lanes of the last tile have theirs.
  std::vector<real_t> norms(ntiles * w);
  for (size_t t = 0; t < ntiles; ++t) {
    const size_t nc = std::min(w, n - t * w);
    std::memcpy(staging, a.col(t * w), nc * m * sizeof(cplx));
    ker.qr_load(m, nc, staging, m, tile(t), norms.data() + t * w);
  }
  std::vector<real_t> ref = norms;

  std::vector<size_t> perm(n);
  for (size_t j = 0; j < n; ++j) perm[j] = j;
  std::vector<cplx> v(m);
  for (size_t k = 0; k < steps; ++k) {
    // Serial argmax, lowest index wins ties — the determinism anchor.
    size_t p = k;
    for (size_t j = k + 1; j < n; ++j)
      if (norms[j] > norms[p]) p = j;
    if (p != k) {
      double* ck = tile(k / w) + k % w;
      double* cp = tile(p / w) + p % w;
      for (size_t i = 0; i < 2 * m; ++i) std::swap(ck[i * w], cp[i * w]);
      std::swap(norms[k], norms[p]);
      std::swap(ref[k], ref[p]);
      std::swap(perm[k], perm[p]);
    }
    out.pivots.push_back(perm[k]);

    real_t xnorm2 = 0.0;
    for (size_t i = k; i < m; ++i) xnorm2 += std::norm(at(k, i));
    const real_t xnorm = std::sqrt(xnorm2);
    out.rdiag.push_back(xnorm);
    if (xnorm == 0.0) continue;  // remaining columns are all zero too

    // Householder vector v = x - alpha e1 with alpha = -sign(x0) |x| (the
    // cancellation-free choice).
    const cplx x0 = at(k, k);
    const real_t ax0 = std::abs(x0);
    const cplx phase = ax0 > 0.0 ? x0 / ax0 : cplx(1.0);
    const cplx alpha = -phase * xnorm;
    for (size_t i = k; i < m; ++i) v[i] = at(k, i);
    v[k] -= alpha;
    real_t vnorm2 = 0.0;
    for (size_t i = k; i < m; ++i) vnorm2 += std::norm(v[i]);
    if (vnorm2 == 0.0) continue;  // column already eliminated
    const real_t beta = 2.0 / vnorm2;

    // H = I - beta v v^H applied to the trailing columns, a tile of lanes
    // at a time; each column is independent, so the parallel loop stays
    // deterministic per column. Lanes before column k+1 (finished columns,
    // column k itself) and past n (padding) run too; nothing reads them
    // again.
#pragma omp parallel for schedule(static)
    for (size_t t = (k + 1) / w; t < ntiles; ++t)
      ker.qr_update(m, k, as_doubles(v.data()), beta, tile(t),
                    norms.data() + t * w);
    // Exact recomputation where the downdate has lost its accuracy.
#pragma omp parallel for schedule(static)
    for (size_t j = k + 1; j < n; ++j) {
      if (norms[j] > 1e-8 * ref[j]) continue;
      real_t s = 0.0;
      for (size_t i = k + 1; i < m; ++i) s += std::norm(at(j, i));
      norms[j] = ref[j] = s;
    }
    norms[k] = 0.0;
  }
  return out;
}

}  // namespace ptim::la
