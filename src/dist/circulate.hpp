#pragma once
// Slab-circulation engine behind the band-parallel collectives: the 1-D
// exchange, the band ring of the 2-D slab exchange, and the rotation.
// `mine` holds this rank's payload — src_bands.count(me) bands of `stride`
// elements each — and apply(slab, origin) accumulates the contribution of
// the block that originated on rank `origin`. The three patterns match
// Table I: one broadcast per round, a synchronous Sendrecv ring, or a
// posted Isend/Irecv ring in which the transfer of slab k+1 is in flight
// while slab k is applied (the paper's Async scheme). Every pattern applies
// the slabs in a fixed round order on the calling thread.
//
// The engine is generic over the slab element type: cplx for the FP64
// pipeline, cplxf for the FP32 exchange policy — the latter halves every
// Bcast/Sendrecv/Wait byte count for free. Transfers go through the
// raw-byte Comm API (cast pinned explicitly so the typed element-count
// overloads never capture a bytes argument).
//
// Slab storage is a fixed set of backend::Buffers allocated up front and
// reused across all p rounds (one for Bcast, a double buffer for the
// rings) — never per round; the allocation count per circulation is pinned
// in test_dist.
//
// Error path: once an apply throws, this rank skips its remaining applies
// but still completes every transfer round, so no peer blocks on a message
// that never comes; the first exception is rethrown after the last round.

#include <algorithm>
#include <exception>
#include <vector>

#include "backend/buffer.hpp"
#include "common/types.hpp"
#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "obs/obs.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

namespace detail {

// One round's apply, skipped once an earlier round's apply has thrown; the
// first exception is parked in `err` for the rethrow after the last round.
template <typename T, typename Apply>
void apply_slab(const Apply& apply, const T* slab, int origin,
                std::exception_ptr& err) {
  if (err) return;
  OBS_SPAN("xchg.apply_slab", obs::Cat::kCompute);
  try {
    apply(slab, origin);
  } catch (...) {
    err = std::current_exception();
  }
}

}  // namespace detail

template <typename T, typename Apply>
void circulate_slabs(ptmpi::Comm& c, const BlockLayout& src_bands,
                     size_t stride, const std::vector<T>& mine,
                     ExchangePattern pat, const Apply& apply) {
  const int p = c.size();
  const int me = c.rank();
  if (p == 1) {
    apply(mine.data(), 0);
    return;
  }

  size_t maxw = 0;
  for (int r = 0; r < p; ++r) maxw = std::max(maxw, src_bands.count(r));
  const size_t slab_elems = maxw * stride;
  const size_t slab_bytes = slab_elems * sizeof(T);
  const int next = (me + 1) % p;
  const int prev = (me - 1 + p) % p;
  std::exception_ptr err;

  switch (pat) {
    case ExchangePattern::kBcast: {
      backend::Buffer<T> buf(slab_elems);
      for (int root = 0; root < p; ++root) {
        {
          OBS_SPAN("xchg.bcast", obs::Cat::kComm);
          if (root == me) std::copy(mine.begin(), mine.end(), buf.data());
          c.bcast(static_cast<void*>(buf.data()), slab_bytes, root);
        }
        detail::apply_slab(apply, buf.data(), root, err);
      }
      break;
    }
    case ExchangePattern::kRing: {
      // Persistent double buffer: cur/nxt swap across all p rounds.
      backend::Buffer<T> b0(slab_elems), b1(slab_elems);
      T* cur = b0.data();
      T* nxt = b1.data();
      std::copy(mine.begin(), mine.end(), cur);
      for (int s = 0; s < p; ++s) {
        detail::apply_slab(apply, cur, (me - s + p) % p, err);
        if (s + 1 < p) {
          OBS_SPAN("xchg.sendrecv", obs::Cat::kComm);
          c.sendrecv(next, static_cast<const void*>(cur), slab_bytes, prev,
                     static_cast<void*>(nxt), slab_bytes, /*tag=*/s);
          std::swap(cur, nxt);
        }
      }
      break;
    }
    case ExchangePattern::kAsyncRing: {
      backend::Buffer<T> b0(slab_elems), b1(slab_elems);
      T* cur = b0.data();
      T* nxt = b1.data();
      std::copy(mine.begin(), mine.end(), cur);
      for (int s = 0; s + 1 < p; ++s) {
        // The round's in-flight window: Isend/Irecv of the next slab are
        // posted before this slab's apply and waited for after it, so the
        // span encloses the apply the transfer overlaps.
        OBS_SPAN("xchg.inflight", obs::Cat::kComm);
        ptmpi::Request rr = c.irecv(prev, nxt, slab_bytes, /*tag=*/s);
        ptmpi::Request rs = c.isend(next, cur, slab_bytes, /*tag=*/s);
        detail::apply_slab(apply, cur, (me - s + p) % p, err);
        {
          OBS_SPAN("xchg.wait", obs::Cat::kComm);
          c.wait(rs);
          c.wait(rr);
        }
        std::swap(cur, nxt);
      }
      detail::apply_slab(apply, cur, (me + 1) % p, err);  // last round
      break;
    }
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace ptim::dist
