#include "dist/transpose.hpp"

#include <algorithm>
#include <vector>

#include "la/blas.hpp"

namespace ptim::dist {

la::MatC band_to_grid(ptmpi::Comm& c, const la::MatC& band_block,
                      const BlockLayout& bands, const BlockLayout& rows) {
  const int p = c.size();
  const int me = c.rank();
  const size_t npw = rows.total();
  const size_t my_nb = bands.count(me);
  const size_t my_rows = rows.count(me);
  PTIM_CHECK(band_block.rows() == npw && band_block.cols() == my_nb);

  // To rank r: my bands' rows [rows.offset(r), +rows.count(r)), band-major.
  std::vector<size_t> send_counts(static_cast<size_t>(p)),
      recv_counts(static_cast<size_t>(p));
  size_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    send_counts[static_cast<size_t>(r)] = rows.count(r) * my_nb;
    recv_counts[static_cast<size_t>(r)] = my_rows * bands.count(r);
    send_total += send_counts[static_cast<size_t>(r)];
    recv_total += recv_counts[static_cast<size_t>(r)];
  }
  std::vector<cplx> send(send_total), recv(recv_total);
  size_t pos = 0;
  for (int r = 0; r < p; ++r)
    for (size_t b = 0; b < my_nb; ++b) {
      const cplx* col = band_block.col(b) + rows.offset(r);
      std::copy(col, col + rows.count(r), send.begin() + pos);
      pos += rows.count(r);
    }
  c.alltoallv(send.data(), send_counts, recv.data(), recv_counts);

  la::MatC g(my_rows, bands.total());
  pos = 0;
  for (int q = 0; q < p; ++q)
    for (size_t b = 0; b < bands.count(q); ++b) {
      std::copy(recv.begin() + pos, recv.begin() + pos + my_rows,
                g.col(bands.offset(q) + b));
      pos += my_rows;
    }
  return g;
}

la::MatC grid_to_band(ptmpi::Comm& c, const la::MatC& grid_block,
                      const BlockLayout& bands, const BlockLayout& rows) {
  const int p = c.size();
  const int me = c.rank();
  const size_t my_rows = rows.count(me);
  const size_t my_nb = bands.count(me);
  PTIM_CHECK(grid_block.rows() == my_rows &&
             grid_block.cols() == bands.total());

  // To rank r: my row slab of r's bands, band-major — the mirror image of
  // band_to_grid's receive layout.
  std::vector<size_t> send_counts(static_cast<size_t>(p)),
      recv_counts(static_cast<size_t>(p));
  size_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    send_counts[static_cast<size_t>(r)] = my_rows * bands.count(r);
    recv_counts[static_cast<size_t>(r)] = rows.count(r) * my_nb;
    send_total += send_counts[static_cast<size_t>(r)];
    recv_total += recv_counts[static_cast<size_t>(r)];
  }
  std::vector<cplx> send(send_total), recv(recv_total);
  size_t pos = 0;
  for (int r = 0; r < p; ++r)
    for (size_t b = 0; b < bands.count(r); ++b) {
      const cplx* col = grid_block.col(bands.offset(r) + b);
      std::copy(col, col + my_rows, send.begin() + pos);
      pos += my_rows;
    }
  c.alltoallv(send.data(), send_counts, recv.data(), recv_counts);

  la::MatC band(rows.total(), my_nb);
  pos = 0;
  for (int q = 0; q < p; ++q)
    for (size_t b = 0; b < my_nb; ++b) {
      std::copy(recv.begin() + pos, recv.begin() + pos + rows.count(q),
                band.col(b) + rows.offset(q));
      pos += rows.count(q);
    }
  return band;
}

la::MatC rotate_distributed(ptmpi::Comm& c, const la::MatC& a_local,
                            const la::MatC& r, const BlockLayout& bands,
                            const BlockLayout& rows) {
  PTIM_CHECK(r.rows() == bands.total() && r.cols() == bands.total());
  const la::MatC a = band_to_grid(c, a_local, bands, rows);
  la::MatC ar(a.rows(), r.cols());
  la::gemm_nn(a, r, ar);
  return grid_to_band(c, ar, bands, rows);
}

void reduce_partials(ptmpi::Comm& c, ptmpi::Comm* node, cplx* data,
                     size_t n) {
  if (node) {
    // Accumulate node-locally through the shared window; only the node's
    // rank 0 then carries data into the (single) Allreduce.
    cplx* win = node->shm_allocate("overlap_shm", n);
    for (int nr = 0; nr < node->size(); ++nr) {
      if (node->rank() == nr) {
        if (nr == 0)
          std::copy(data, data + n, win);
        else
          for (size_t i = 0; i < n; ++i) win[i] += data[i];
      }
      node->barrier();
    }
    if (node->rank() == 0)
      std::copy(win, win + n, data);
    else
      std::fill(data, data + n, cplx(0.0));
    node->barrier();  // rank 0 reads the window before it is reused
  }
  c.allreduce_sum(data, n);
}

void reduce_partials(ptmpi::Comm& c, ptmpi::Comm* node,
                     std::initializer_list<la::MatC*> mats) {
  size_t n = 0;
  for (const la::MatC* m : mats) n += m->size();
  std::vector<cplx> buf(n);
  cplx* pos = buf.data();
  for (const la::MatC* m : mats)
    pos = std::copy(m->data(), m->data() + m->size(), pos);
  reduce_partials(c, node, buf.data(), n);
  pos = buf.data();
  for (la::MatC* m : mats) {
    std::copy(pos, pos + m->size(), m->data());
    pos += m->size();
  }
}

la::MatC overlap_distributed(ptmpi::Comm& c, const la::MatC& a,
                             const la::MatC& b, ptmpi::Comm* node) {
  PTIM_CHECK(a.rows() == b.rows());
  la::MatC s(a.cols(), b.cols());
  la::gemm_cn(a, b, s);
  reduce_partials(c, node, s.data(), s.size());
  return s;
}

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

}  // namespace ptim::dist
