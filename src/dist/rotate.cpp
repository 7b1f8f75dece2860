#include "dist/rotate.hpp"

#include <algorithm>
#include <vector>

#include "dist/circulate.hpp"
#include "dist/transpose.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"

namespace ptim::dist {

la::MatC scatter_bands(const la::MatC& full, const BlockLayout& bands,
                       int rank) {
  const size_t npw = full.rows();
  PTIM_CHECK_MSG(bands.offset(rank) + bands.count(rank) <= full.cols(),
                 "scatter_bands: layout of " << bands.total()
                     << " bands overruns a block of " << full.cols());
  la::MatC local(npw, bands.count(rank));
  for (size_t b = 0; b < bands.count(rank); ++b)
    std::copy(full.col(bands.offset(rank) + b),
              full.col(bands.offset(rank) + b) + npw, local.col(b));
  return local;
}

la::MatC gather_bands(ptmpi::Comm& c, const la::MatC& a_local,
                      const BlockLayout& bands) {
  const int p = c.size();
  // Local blocks always carry npw rows, even at zero width (scatter_bands
  // and the propagator construct them that way), so the shape is known.
  const size_t npw = a_local.rows();
  PTIM_CHECK(a_local.cols() == bands.count(c.rank()));
  std::vector<size_t> counts(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r)
    counts[static_cast<size_t>(r)] = npw * bands.count(r);
  la::MatC full(npw, bands.total());
  c.allgatherv(a_local.data(), a_local.size(), full.data(), counts);
  return full;
}

la::MatC rotate_bands(ptmpi::Comm& c, const la::MatC& a_local,
                      const la::MatC& r, const BlockLayout& bands,
                      ExchangePattern pattern) {
  const int me = c.rank();
  const size_t nb = bands.total();
  const size_t npw = a_local.rows();
  PTIM_CHECK(r.rows() == nb && r.cols() == nb);
  PTIM_CHECK(a_local.cols() == bands.count(me));

  const size_t my_n = bands.count(me);
  la::MatC out(npw, my_n, cplx(0.0));

  const std::vector<cplx> mine(a_local.data(),
                               a_local.data() + a_local.size());
  // Accumulate the contribution of the block that originated on `origin`:
  // out += slab * R[origin's band rows, my band columns] — one cache-blocked
  // accumulating gemm per circulated block.
  la::MatC slab_m, rsub;
  auto apply_block = [&](const cplx* slab, int origin) {
    const size_t w = bands.count(origin);
    if (w == 0 || my_n == 0) return;
    const size_t row0 = bands.offset(origin);
    const size_t col0 = bands.offset(me);
    slab_m.resize(npw, w);
    std::copy(slab, slab + npw * w, slab_m.data());
    rsub.resize(w, my_n);
    for (size_t j = 0; j < my_n; ++j)
      for (size_t b = 0; b < w; ++b) rsub(b, j) = r(row0 + b, col0 + j);
    la::gemm_nn(slab_m, rsub, out, cplx(1.0), cplx(1.0));
  };
  circulate_slabs(c, bands, npw, mine, pattern, apply_block);
  return out;
}

la::MatC solve_upper_right_distributed(ptmpi::Comm& c, const la::MatC& l,
                                       const la::MatC& a_local,
                                       const BlockLayout& bands,
                                       const BlockLayout& rows) {
  la::MatC slab = band_to_grid(c, a_local, bands, rows);
  la::solve_upper_right(l, slab);
  return grid_to_band(c, slab, bands, rows);
}

}  // namespace ptim::dist
