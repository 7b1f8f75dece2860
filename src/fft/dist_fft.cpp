#include "fft/dist_fft.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fft/axis_pass.hpp"
#include "obs/obs.hpp"

namespace ptim::fft {

template <typename R>
DistFft3T<R>::DistFft3T(std::array<size_t, 3> dims, ptmpi::Comm grid_comm)
    : n0_(dims[0]),
      n1_(dims[1]),
      n2_(dims[2]),
      comm_(grid_comm),
      rank_(grid_comm.rank()),
      zslabs_(dims[2], grid_comm.size()),
      yrows_(dims[1], grid_comm.size()),
      p0_(dims[0]),
      p1_(dims[1]),
      p2_(dims[2]) {
  PTIM_CHECK_MSG(n0_ >= 1 && n1_ >= 1 && n2_ >= 1, "DistFft3: empty box");
}

// The local axis transforms below run through the SHARED axis pass
// (fft/axis_pass.hpp) — the same code the serial Fft3T::transform_batch
// executes — so every 1-D line produces bit-identical values to the serial
// engine and only the line partitioning differs.

template <typename R>
void DistFft3T<R>::slab_to_pencil(const C* slab, C* pencil,
                                  size_t nbatch) const {
  const int p = zslabs_.parts();
  const size_t zloc = zslabs_.count(rank_);
  const size_t nyloc = yrows_.count(rank_);
  const size_t nreal_1 = n0_ * n1_ * zloc;
  const size_t npencil_1 = n0_ * nyloc * n2_;

  // Pack order per destination: (batch, local z, destination i1, i0-row).
  std::vector<size_t> send_counts(static_cast<size_t>(p)),
      recv_counts(static_cast<size_t>(p));
  size_t total_send = 0, total_recv = 0;
  for (int r = 0; r < p; ++r) {
    send_counts[static_cast<size_t>(r)] =
        nbatch * zloc * yrows_.count(r) * n0_;
    recv_counts[static_cast<size_t>(r)] =
        nbatch * zslabs_.count(r) * nyloc * n0_;
    total_send += send_counts[static_cast<size_t>(r)];
    total_recv += recv_counts[static_cast<size_t>(r)];
  }

  sendbuf_.resize(total_send);
  recvbuf_.resize(total_recv);
  size_t w = 0;
  for (int r = 0; r < p; ++r) {
    const size_t y0 = yrows_.offset(r), yc = yrows_.count(r);
    for (size_t b = 0; b < nbatch; ++b)
      for (size_t z = 0; z < zloc; ++z)
        for (size_t i1 = y0; i1 < y0 + yc; ++i1) {
          const C* row = slab + b * nreal_1 + n0_ * (i1 + n1_ * z);
          std::copy(row, row + n0_, sendbuf_.begin() + static_cast<long>(w));
          w += n0_;
        }
  }

  {
    OBS_SPAN("dfft.alltoallv", obs::Cat::kComm);
    comm_.alltoallv(sendbuf_.data(), send_counts, recvbuf_.data(),
                    recv_counts);
  }

  size_t rdx = 0;
  for (int r = 0; r < p; ++r) {
    const size_t z0 = zslabs_.offset(r), zc = zslabs_.count(r);
    for (size_t b = 0; b < nbatch; ++b)
      for (size_t z = z0; z < z0 + zc; ++z)
        for (size_t i1l = 0; i1l < nyloc; ++i1l) {
          C* row = pencil + b * npencil_1 + n0_ * (i1l + nyloc * z);
          std::copy(recvbuf_.begin() + static_cast<long>(rdx),
                    recvbuf_.begin() + static_cast<long>(rdx + n0_), row);
          rdx += n0_;
        }
  }
}

template <typename R>
void DistFft3T<R>::pencil_to_slab(const C* pencil, C* slab,
                                  size_t nbatch) const {
  const int p = zslabs_.parts();
  const size_t zloc = zslabs_.count(rank_);
  const size_t nyloc = yrows_.count(rank_);
  const size_t nreal_1 = n0_ * n1_ * zloc;
  const size_t npencil_1 = n0_ * nyloc * n2_;

  std::vector<size_t> send_counts(static_cast<size_t>(p)),
      recv_counts(static_cast<size_t>(p));
  size_t total_send = 0, total_recv = 0;
  for (int r = 0; r < p; ++r) {
    send_counts[static_cast<size_t>(r)] =
        nbatch * zslabs_.count(r) * nyloc * n0_;
    recv_counts[static_cast<size_t>(r)] =
        nbatch * zloc * yrows_.count(r) * n0_;
    total_send += send_counts[static_cast<size_t>(r)];
    total_recv += recv_counts[static_cast<size_t>(r)];
  }

  sendbuf_.resize(total_send);
  recvbuf_.resize(total_recv);
  size_t w = 0;
  for (int r = 0; r < p; ++r) {
    const size_t z0 = zslabs_.offset(r), zc = zslabs_.count(r);
    for (size_t b = 0; b < nbatch; ++b)
      for (size_t z = z0; z < z0 + zc; ++z)
        for (size_t i1l = 0; i1l < nyloc; ++i1l) {
          const C* row = pencil + b * npencil_1 + n0_ * (i1l + nyloc * z);
          std::copy(row, row + n0_, sendbuf_.begin() + static_cast<long>(w));
          w += n0_;
        }
  }

  {
    OBS_SPAN("dfft.alltoallv", obs::Cat::kComm);
    comm_.alltoallv(sendbuf_.data(), send_counts, recvbuf_.data(),
                    recv_counts);
  }

  size_t rdx = 0;
  for (int r = 0; r < p; ++r) {
    const size_t y0 = yrows_.offset(r), yc = yrows_.count(r);
    for (size_t b = 0; b < nbatch; ++b)
      for (size_t z = 0; z < zloc; ++z)
        for (size_t i1 = y0; i1 < y0 + yc; ++i1) {
          C* row = slab + b * nreal_1 + n0_ * (i1 + n1_ * z);
          std::copy(recvbuf_.begin() + static_cast<long>(rdx),
                    recvbuf_.begin() + static_cast<long>(rdx + n0_), row);
          rdx += n0_;
        }
  }
}

template <typename R>
void DistFft3T<R>::forward(const C* slab, C* pencil, size_t nbatch) const {
  if (nbatch == 0) return;
  OBS_SPAN("dfft.forward", obs::Cat::kFft);
  Timer t;
  const size_t zloc = zslabs_.count(rank_);
  const size_t nyloc = yrows_.count(rank_);
  const size_t nreal_1 = n0_ * n1_ * zloc;
  const size_t pplane = n0_ * nyloc;

  // Axes 0 and 1 on the z slab (xy planes are complete locally). The slab
  // input is const: stage through the persistent scratch so callers can
  // keep their real-space payloads (the circulating ring slabs) intact.
  work_.assign(slab, slab + nbatch * nreal_1);
  const detail::BoxAxes ax(n0_, n1_, n2_, zloc, pplane, nbatch);
  detail::axis_pass(p0_, ax.a0, work_.data(), true);
  detail::axis_pass(p1_, ax.a1, work_.data(), true);

  slab_to_pencil(work_.data(), pencil, nbatch);

  // Axis 2 on the y pencil (z lines are complete locally).
  detail::axis_pass(p2_, ax.a2, pencil, true);
  seconds_ += t.seconds();
}

template <typename R>
void DistFft3T<R>::inverse(const C* pencil, C* slab, size_t nbatch) const {
  if (nbatch == 0) return;
  OBS_SPAN("dfft.inverse", obs::Cat::kFft);
  Timer t;
  const size_t zloc = zslabs_.count(rank_);
  const size_t nyloc = yrows_.count(rank_);
  const size_t nreal_1 = n0_ * n1_ * zloc;
  const size_t npencil_1 = n0_ * nyloc * n2_;
  const size_t pplane = n0_ * nyloc;

  // Mirror of forward: axis 2 on the pencil, transpose back, axes 1 and 0
  // on the slab, then the serial engine's single trailing 1/size() scale.
  work_.assign(pencil, pencil + nbatch * npencil_1);
  const detail::BoxAxes ax(n0_, n1_, n2_, zloc, pplane, nbatch);
  detail::axis_pass(p2_, ax.a2, work_.data(), false);

  pencil_to_slab(work_.data(), slab, nbatch);

  detail::axis_pass(p1_, ax.a1, slab, false);
  detail::axis_pass(p0_, ax.a0, slab, false);

  const R s = R(1) / static_cast<R>(size());
  const size_t total = nbatch * nreal_1;
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < total; ++i) slab[i] *= s;
  seconds_ += t.seconds();
}

template class DistFft3T<float>;
template class DistFft3T<double>;

}  // namespace ptim::fft
